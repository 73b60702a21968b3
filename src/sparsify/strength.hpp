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
//
// Level 0 is also the one level that does not depend on the seed: its
// placements are a function of the (u, v) sequence alone. A caller that
// meets the same sequence again (the deferred stage's per-class memo,
// sparsify/deferred) hands them back through Level0Placements, and the
// estimator then packs only the subsampled levels >= 1.

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
/// a new forest and its union does nothing.
///
/// All forests live in one n-strided buffer (forest f's labels are
/// label_[f * n, (f + 1) * n)), initialised when the forest opens, so
/// reset() is O(1) and keeps the buffers for the next packing. Nesting
/// also makes the forests that span all n vertices a prefix; they connect
/// every pair, so the search starts after them (on a dense weight class
/// almost every forest spans and the open frontier is a handful).
class ForestPacker {
 public:
  ForestPacker() = default;
  explicit ForestPacker(std::size_t n) { reset(n); }

  void reset(std::size_t n) noexcept {
    n_ = n;
    active_ = 0;
    spanning_ = 0;
  }

  /// Insert edge (u, v); returns its (1-based) placement index.
  std::size_t insert(std::uint32_t u, std::uint32_t v) {
    // Binary search the first forest where u and v are disconnected.
    std::size_t lo = spanning_;  // invariant: connected in all < lo
    std::size_t hi = active_;    // disconnected somewhere in [lo, hi]
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      const std::uint32_t* label = label_.data() + mid * n_;
      if (label[u] == label[v]) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == active_) open_forest();
    // A spanning forest lo means every forest before it spans too.
    if (unite(lo, u, v) == n_) spanning_ = lo + 1;
    return lo + 1;
  }

 private:
  void open_forest() {
    const std::size_t base = active_ * n_;
    if (label_.size() < base + n_) {
      label_.resize(base + n_);
      next_.resize(base + n_);
      size_.resize(base + n_);
    }
    for (std::size_t x = 0; x < n_; ++x) {
      label_[base + x] = next_[base + x] = static_cast<std::uint32_t>(x);
      size_[base + x] = 1;
    }
    ++active_;
  }

  /// Merge the components of u and v in forest f; returns the member
  /// count of the component now holding u.
  std::size_t unite(std::size_t f, std::uint32_t u, std::uint32_t v) {
    std::uint32_t* label = label_.data() + f * n_;
    std::uint32_t* next = next_.data() + f * n_;
    std::uint32_t* size = size_.data() + f * n_;
    std::uint32_t keep = label[u];
    std::uint32_t gone = label[v];
    if (keep == gone) return size[keep];
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
    return size[keep];
  }

  std::size_t n_ = 0;
  std::size_t active_ = 0;    // open forests
  std::size_t spanning_ = 0;  // forests [0, spanning_) span all n vertices
  std::vector<std::uint32_t> label_;  // per forest, per vertex: label
  std::vector<std::uint32_t> next_;   // per forest, per vertex: member ring
  std::vector<std::uint32_t> size_;   // per forest, per label: member count
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
  // Levels >= 1 as one CSR: level i's edge ids (ascending) sit at
  // level_members[level_offset[i - 1], level_offset[i]). Level 0 is every
  // edge in ascending order and is never written out.
  std::vector<std::uint32_t> level_offset;   // level_offset[0] = 0
  std::vector<std::uint32_t> level_members;  // edge ids of levels >= 1
  std::vector<double> candidate;   // per level_members slot: strength
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

/// Caller-owned level-0 placements, one per edge. Level 0 packs every
/// edge in ascending order, so its placements are a function of the
/// (u, v) sequence alone — not of the seed — and a caller that meets the
/// same sequence again may hand them back instead of repacking.
struct Level0Placements {
  std::vector<std::uint32_t>& placement;
  bool packed;  // true: read the slots; false: pack into them (resized)
};

/// strength[e] >= 1 for every edge; larger = better connected. Runs in
/// O(m log m alpha(n)) work, written into a caller-owned output (resized
/// to edges.size()). Subsample depths are counter-based draws and
/// the per-level forest packings run as independent jobs on `pool`, so the
/// result depends only on (n, edges, seed) — never on the thread count.
/// Level 0's placements go to (or, with level0.packed, come from)
/// level0.placement; handed-back slots must hold the placements a packing
/// of this (u, v) sequence wrote, and the result is then the same as
/// repacking.
void estimate_strengths_into(std::size_t n, const std::vector<Edge>& edges,
                             std::uint64_t seed,
                             std::vector<double>& strength,
                             Level0Placements level0,
                             StrengthScratch& scratch,
                             ThreadPool* pool = nullptr);

}  // namespace dp
