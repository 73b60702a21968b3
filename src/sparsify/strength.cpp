#include "sparsify/strength.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dp {

namespace {

int subsample_levels(std::size_t m) {
  return 1 +
         static_cast<int>(std::ceil(std::log2(static_cast<double>(m) + 1)));
}

/// A level-i certificate j * 2^i is only statistically meaningful when the
/// placement index j is at least ~log n (the k-connectivity requirement of
/// the original construction); below that, mere survival of the
/// subsampling would inflate weak edges (a bridge that survives 3 halvings
/// is still a bridge).
std::size_t strength_k_min(std::size_t n) {
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::ceil(std::log2(static_cast<double>(n) + 2))));
}

/// Partition the edge set into at most kStrengthRegions vertex-disjoint
/// buckets of connected components, balanced by edge count (components in
/// first-appearance order, each assigned to the lightest bucket so far).
/// Returns the number of buckets and fills scratch.region_offset /
/// scratch.region_members (edge ids ascending inside each bucket). The
/// split is a pure function of (n, edges) — never of the thread count.
std::size_t build_level0_regions(std::size_t n,
                                 const std::vector<Edge>& edges,
                                 StrengthScratch& scratch) {
  const std::size_t m = edges.size();
  scratch.components.reset(n);
  for (const Edge& e : edges) scratch.components.unite(e.u, e.v);

  scratch.comp_count.assign(n, 0);
  scratch.comp_order.clear();
  for (const Edge& e : edges) {
    const std::uint32_t root = scratch.components.find(e.u);
    if (scratch.comp_count[root] == 0) scratch.comp_order.push_back(root);
    ++scratch.comp_count[root];
  }

  const std::size_t regions =
      std::min(kStrengthRegions, scratch.comp_order.size());
  scratch.comp_bucket.assign(n, 0);
  std::uint32_t load[kStrengthRegions] = {};
  for (const std::uint32_t root : scratch.comp_order) {
    std::size_t lightest = 0;
    for (std::size_t r = 1; r < regions; ++r) {
      if (load[r] < load[lightest]) lightest = r;
    }
    scratch.comp_bucket[root] = static_cast<std::uint8_t>(lightest);
    load[lightest] += scratch.comp_count[root];
  }

  scratch.region_offset.assign(regions + 1, 0);
  for (const Edge& e : edges) {
    const std::uint8_t r =
        scratch.comp_bucket[scratch.components.find(e.u)];
    ++scratch.region_offset[r + 1];
  }
  for (std::size_t r = 0; r < regions; ++r) {
    scratch.region_offset[r + 1] += scratch.region_offset[r];
  }
  scratch.region_members.resize(m);
  scratch.region_cursor.assign(scratch.region_offset.begin(),
                               scratch.region_offset.begin() +
                                   static_cast<std::ptrdiff_t>(regions));
  for (std::size_t e = 0; e < m; ++e) {
    const std::uint8_t r =
        scratch.comp_bucket[scratch.components.find(edges[e].u)];
    scratch.region_members[scratch.region_cursor[r]++] =
        static_cast<std::uint32_t>(e);
  }
  return regions;
}

}  // namespace

void estimate_strengths_into(std::size_t n, const std::vector<Edge>& edges,
                             std::uint64_t seed,
                             std::vector<double>& strength,
                             Level0Placements level0,
                             StrengthScratch& scratch, ThreadPool* pool) {
  const std::size_t m = edges.size();
  strength.resize(m);
  if (!level0.packed) level0.placement.resize(m);
  if (m == 0) return;
  if (n == 0) {
    std::fill(strength.begin(), strength.end(), 1.0);
    return;
  }

  const auto levels = static_cast<std::size_t>(subsample_levels(m));
  const std::size_t k_min = strength_k_min(n);

  // Counter-based subsample depths: a pure function of (seed, e), so the
  // grouping below is independent of evaluation order. Edge e belongs to
  // levels 0..cap[e]. Levels >= 1 are nested filter passes in ascending
  // edge order: level 1 (cap >= 1) is filtered while the caps are drawn,
  // level i keeps level i - 1's edges with cap >= i, and the caps sum to
  // their total size. A filter writes every candidate and advances past
  // the kept ones (branch-free), so the buffer has one spare slot.
  const CounterRng rng(seed);
  scratch.level_cap.resize(m);
  std::uint8_t* cap = scratch.level_cap.data();
  if (scratch.level_members.size() <= m) scratch.level_members.resize(m + 1);
  std::uint32_t* members = scratch.level_members.data();
  std::size_t deeper = 0;
  std::size_t kept = 0;
  for (std::size_t e = 0; e < m; ++e) {
    const auto c = static_cast<std::uint8_t>(
        std::min<int>(static_cast<int>(levels) - 1,
                      rng.coin_flips_until_tail(e, 0)));
    cap[e] = c;
    deeper += c;
    members[kept] = static_cast<std::uint32_t>(e);
    kept += static_cast<std::size_t>(c > 0);
  }
  if (scratch.level_members.size() <= deeper) {
    scratch.level_members.resize(deeper + 1);
    members = scratch.level_members.data();
  }
  scratch.level_offset.assign(1, 0);
  for (std::size_t i = 1; kept > scratch.level_offset.back(); ++i) {
    const std::size_t begin = scratch.level_offset.back();
    scratch.level_offset.push_back(static_cast<std::uint32_t>(kept));
    for (std::size_t pos = begin; pos < scratch.level_offset[i]; ++pos) {
      const std::uint32_t e = members[pos];
      members[kept] = e;
      kept += static_cast<std::size_t>(cap[e] > i);
    }
  }
  // Nested subsamples: every level past the first empty one is empty.
  const std::size_t deep_levels = scratch.level_offset.size() - 1;

  std::uint32_t* placement = level0.placement.data();

  // Independent forest-packing jobs, each sequential in edge order and
  // writing only its own output slice — deterministic for any thread
  // count. Level 0 holds EVERY edge; with a pool it splits into
  // vertex-disjoint region jobs (balanced component buckets) so it does
  // not serialize the pass. Forest packing never crosses a component
  // boundary — an edge's placement index depends only on the earlier
  // edges of its own component — so per-region packing in ascending edge
  // order reproduces the serial placement indices exactly. Without a pool
  // level 0 is one job, and with placements handed in it is none. Levels
  // >= 1 are subsamples and stay one job each.
  scratch.candidate.resize(kept);
  std::size_t regions = 0;
  if (!level0.packed) {
    regions = pool != nullptr ? build_level0_regions(n, edges, scratch) : 1;
  }
  const std::size_t jobs = regions + deep_levels;
  if (scratch.packers.size() < jobs) {
    scratch.packers.resize(jobs);
  }
  run_jobs(pool, jobs, [&](std::size_t job) {
    detail::ForestPacker& packer = scratch.packers[job];
    packer.reset(n);
    if (job < regions) {
      if (pool == nullptr) {
        for (std::size_t e = 0; e < m; ++e) {
          placement[e] = static_cast<std::uint32_t>(
              packer.insert(edges[e].u, edges[e].v));
        }
        return;
      }
      for (std::size_t pos = scratch.region_offset[job];
           pos < scratch.region_offset[job + 1]; ++pos) {
        const std::uint32_t e = scratch.region_members[pos];
        placement[e] = static_cast<std::uint32_t>(
            packer.insert(edges[e].u, edges[e].v));
      }
      return;
    }
    const std::size_t i = job - regions + 1;
    const double scale = std::pow(2.0, static_cast<double>(i));
    for (std::size_t pos = scratch.level_offset[i - 1];
         pos < scratch.level_offset[i]; ++pos) {
      const std::uint32_t e = members[pos];
      const std::size_t j = packer.insert(edges[e].u, edges[e].v);
      scratch.candidate[pos] =
          j >= k_min ? static_cast<double>(j) * scale : 0.0;
    }
  });

  // Combine: level 0's placement j >= 1 is the floor, then the deeper
  // certificates in level order (max is exact, so the order is irrelevant
  // for the value — it just keeps the pass cache-friendly; std::max keeps
  // it branch-free, and no value is NaN).
  for (std::size_t e = 0; e < m; ++e) {
    strength[e] = static_cast<double>(placement[e]);
  }
  for (std::size_t pos = 0; pos < kept; ++pos) {
    const std::uint32_t e = members[pos];
    strength[e] = std::max(strength[e], scratch.candidate[pos]);
  }
}

}  // namespace dp
