#pragma once
// Edge-strength (connectivity) estimation by layered subsampling —
// Algorithm 6 of the paper (after Ahn-Guha-McGregor PODS'12 / Fung et al.
// STOC'11 / Nagamochi-Ibaraki).
//
// Level i holds subsample G_i of G at rate 2^-i (nested: G_i contains G_{i+1}).
// Within each level we greedily pack k spanning forests F_1..F_k; an edge
// whose endpoints remain connected in the LAST forest at level i has >= k
// edge-disjoint-ish connectivity there, certifying strength ~ k * 2^i.
// Sampling each edge with probability ~ rho / strength then preserves all
// cuts within 1 +- xi whp (Benczur-Karger).
//
// One entry point, estimate_strengths_into, shared by the offline cut
// sparsifier, the deferred sparsifier and the sampling engine's rounds.
// Subsample depths come from a counter-based RNG (a pure function of
// (seed, edge index)) and every subsampling level packs its forests as an
// independent job, so the output is bitwise identical for any thread
// count; all buffers live in a caller-owned StrengthScratch so
// steady-state rounds allocate nothing. With a pool, level 0 (which holds
// EVERY edge and would otherwise serialize the whole pass) additionally
// splits into vertex-disjoint region jobs: connected components of the
// input are grouped into at most kStrengthRegions balanced buckets, and
// since forest packing never crosses a component boundary, packing each
// bucket independently (in ascending edge order) reproduces the serial
// placement indices exactly. Without a pool the split would buy nothing,
// so level 0 is one job; either way the placements are the same.

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/union_find.hpp"

namespace dp {

class ThreadPool;

namespace detail {

/// Greedy Nagamochi-Ibaraki forest decomposition with nesting: an edge is
/// placed into the first forest whose components its endpoints straddle.
/// Connectivity in forest j certifies >= j edge-disjoint-ish connectivity,
/// so the placement index is a per-edge strength certificate. The forests
/// are nested (connected in F_j implies connected in F_{j-1}), which makes
/// the placement search a binary search.
///
/// Each forest stores a component label per vertex, so a probe of the
/// binary search ("connected in F_j?") is one comparison of two labels.
/// A union relabels the smaller component, walking its members through a
/// circular member list, and splices the two lists; every vertex is
/// relabelled O(log n) times per forest. The placements are those of a
/// union-find packer (connectivity answers do not depend on the
/// representation). A self-loop is connected in every forest, so it opens
/// a new forest and its union does nothing. reset() keeps the forest
/// arrays so a scratch-owned packer reuses its allocations across rounds.
class ForestPacker {
 public:
  ForestPacker() = default;
  explicit ForestPacker(std::size_t n) { reset(n); }

  void reset(std::size_t n) {
    n_ = n;
    for (std::size_t f = 0; f < active_; ++f) forests_[f].reset(n);
    active_ = 0;
  }

  /// Insert edge (u, v); returns its (1-based) placement index.
  std::size_t insert(std::uint32_t u, std::uint32_t v) {
    // Binary search the first forest where u and v are disconnected.
    std::size_t lo = 0;        // invariant: connected in all < lo
    std::size_t hi = active_;  // disconnected somewhere in [lo, hi]
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      const std::vector<std::uint32_t>& label = forests_[mid].label;
      if (label[u] == label[v]) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == active_) {
      if (active_ == forests_.size()) forests_.emplace_back();
      forests_[active_].reset(n_);
      ++active_;
    }
    forests_[lo].unite(u, v);
    return lo + 1;
  }

 private:
  struct Forest {
    std::vector<std::uint32_t> label;  // per vertex: component label
    std::vector<std::uint32_t> next;   // per vertex: circular member list
    std::vector<std::uint32_t> size;   // per label: member count

    void reset(std::size_t n) {
      label.resize(n);
      next.resize(n);
      size.assign(n, 1);
      for (std::size_t x = 0; x < n; ++x) {
        label[x] = next[x] = static_cast<std::uint32_t>(x);
      }
    }

    void unite(std::uint32_t u, std::uint32_t v) {
      std::uint32_t keep = label[u];
      std::uint32_t gone = label[v];
      if (keep == gone) return;
      if (size[keep] < size[gone]) {
        std::swap(keep, gone);
        std::swap(u, v);
      }
      std::uint32_t x = v;  // v's component carries the label `gone`
      do {
        label[x] = keep;
        x = next[x];
      } while (x != v);
      std::swap(next[u], next[v]);
      size[keep] += size[gone];
    }
  };

  std::size_t n_ = 0;
  std::size_t active_ = 0;
  std::vector<Forest> forests_;
};

}  // namespace detail

/// Upper bound on vertex-disjoint region jobs for the level-0 forest
/// packing (each region job owns its own ForestPacker whose forests carry
/// n-sized label arrays, so the cap bounds scratch memory; the split never
/// depends on the pool size).
inline constexpr std::size_t kStrengthRegions = 8;

/// Reusable buffers for estimate_strengths_into. One scratch serves any
/// sequence of calls; buffers grow to the high-water mark and stay.
struct StrengthScratch {
  std::vector<std::uint8_t> level_cap;       // per edge: deepest level
  // Level CSR over positions: level 0 is positions [0, m), position e
  // being edge e (never written out); level i >= 1 is [level_offset[i],
  // level_offset[i + 1]), whose edge ids sit at level_members[pos - m].
  std::vector<std::uint32_t> level_offset;   // CSR offsets, one per level
  std::vector<std::uint32_t> level_members;  // edge ids of levels >= 1
  std::vector<std::uint32_t> cursor;         // fill cursors, one per level
  std::vector<double> candidate;             // per position: strength
  std::vector<detail::ForestPacker> packers;  // one per region/level job
  // Level-0 region split (vertex-disjoint component buckets; pool only).
  UnionFind components;
  std::vector<std::uint32_t> comp_count;      // per root: edge count
  std::vector<std::uint32_t> comp_order;      // roots by first appearance
  std::vector<std::uint8_t> comp_bucket;      // per root: region id
  std::vector<std::uint32_t> region_offset;   // CSR offsets, regions + 1
  std::vector<std::uint32_t> region_members;  // edge ids grouped by region
  std::vector<std::uint32_t> region_cursor;   // fill cursors, one per region
};

/// strength[e] >= 1 for every edge; larger = better connected. Runs in
/// O(m log m alpha(n)) work, written into a caller-owned output (resized
/// to edges.size()). Subsample depths are counter-based draws and
/// the per-level forest packings run as independent jobs on `pool`, so the
/// result depends only on (n, edges, seed) — never on the thread count.
void estimate_strengths_into(std::size_t n, const std::vector<Edge>& edges,
                             std::uint64_t seed,
                             std::vector<double>& strength,
                             StrengthScratch& scratch,
                             ThreadPool* pool = nullptr);

}  // namespace dp
