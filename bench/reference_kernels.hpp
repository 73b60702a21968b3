#pragma once
// Reference versions of two hot-path kernels, kept only as baselines for
// bench_micro's kernel rows and for the equivalence tests that pin the
// library's versions to them. The library never links these.
//
//  - lsd_group_rows: the MicroOracle's former Step 1. It pushes one
//    (row, us) pair per stored-edge endpoint and groups the pairs with two
//    stable LSD counting passes (level digit, then vertex digit) before
//    folding duplicate rows. core::StoredRows::build replaces it.
//  - UnionFindPacker: the former detail::ForestPacker, whose forests are
//    union-find structures (each probe of the placement binary search is
//    two path-halving finds). The label packer replaces it.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/oracle.hpp"
#include "core/weight_levels.hpp"
#include "graph/union_find.hpp"

namespace dp::bench_ref {

struct GroupedRows {
  std::vector<std::uint64_t> keys;  // sorted distinct rows i * L + k
  std::vector<double> sums;         // per-row us sum (parallel)
  double usc = 0;                   // sum wHat_k us, stored order
};

/// Reusable buffers of lsd_group_rows (n-sized offsets, pair arrays).
struct LsdScratch {
  std::vector<std::pair<std::uint64_t, double>> pairs;
  std::vector<std::pair<std::uint64_t, double>> grouped;
  std::vector<std::size_t> koff;
  std::vector<std::size_t> voff;
};

/// Group the stored sample's rows the way the oracle's Step 1 used to:
/// edges with level < 0 or us <= 0 are skipped, every other edge pushes
/// (u-row, us) then (v-row, us), and two stable counting passes sort the
/// pairs by key, so each row's sum folds in encounter order.
inline void lsd_group_rows(const core::LevelGraph& lg,
                           const std::vector<core::StoredEdge>& sample,
                           LsdScratch& s, GroupedRows& out) {
  const std::size_t n = lg.graph().num_vertices();
  const int L = lg.num_levels();
  const auto Lu = static_cast<std::uint64_t>(L);
  s.pairs.clear();
  out.usc = 0;
  for (const core::StoredEdge& e : sample) {
    if (e.level < 0 || e.us <= 0) continue;
    const auto k = static_cast<std::uint64_t>(e.level);
    s.pairs.emplace_back(static_cast<std::uint64_t>(e.u) * Lu + k, e.us);
    s.pairs.emplace_back(static_cast<std::uint64_t>(e.v) * Lu + k, e.us);
    out.usc += lg.level_weight(e.level) * e.us;
  }
  s.koff.assign(static_cast<std::size_t>(L) + 1, 0);
  for (const auto& p : s.pairs) ++s.koff[p.first % Lu + 1];
  for (int k = 0; k < L; ++k) s.koff[k + 1] += s.koff[k];
  s.grouped.resize(s.pairs.size());
  for (const auto& p : s.pairs) s.grouped[s.koff[p.first % Lu]++] = p;
  s.voff.assign(n + 1, 0);
  for (const auto& p : s.grouped) ++s.voff[p.first / Lu + 1];
  for (std::size_t v = 0; v < n; ++v) s.voff[v + 1] += s.voff[v];
  for (const auto& p : s.grouped) s.pairs[s.voff[p.first / Lu]++] = p;
  out.keys.clear();
  out.sums.clear();
  for (const auto& [key, us] : s.pairs) {
    if (!out.keys.empty() && out.keys.back() == key) {
      out.sums.back() += us;
    } else {
      out.keys.push_back(key);
      out.sums.push_back(us);
    }
  }
}

/// Nested greedy forest packing on union-find forests: the placement
/// index of edge (u, v) is one plus the first forest where u and v are
/// disconnected (a new forest when connected in all of them). reset()
/// keeps the forests' allocations, as the library packer's does.
class UnionFindPacker {
 public:
  explicit UnionFindPacker(std::size_t n) { reset(n); }

  void reset(std::size_t n) {
    n_ = n;
    for (std::size_t f = 0; f < active_; ++f) forests_[f].reset(n);
    active_ = 0;
  }

  std::size_t insert(std::uint32_t u, std::uint32_t v) {
    std::size_t lo = 0;
    std::size_t hi = active_;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (forests_[mid].connected(u, v)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == active_) {
      if (active_ == forests_.size()) {
        forests_.emplace_back(n_);
      } else {
        forests_[active_].reset(n_);
      }
      ++active_;
    }
    forests_[lo].unite(u, v);
    return lo + 1;
  }

 private:
  std::size_t n_ = 0;
  std::size_t active_ = 0;
  std::vector<UnionFind> forests_;
};

}  // namespace dp::bench_ref
