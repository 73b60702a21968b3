#pragma once
// Offline approximate weighted matching on in-memory (sub)graphs.
//
// Algorithm 2 of the paper invokes a near-linear offline
// (1-a3)-approximation (Duan-Pettie / Ahn-Guha SODA'14) on the union of the
// stored deferred sparsifiers. This module provides that role:
//   * exact blossom for small instances (n <= exact_threshold), and
//   * greedy + local-search (one-for-two swaps, two-for-one augmentations,
//     free-edge insertion) to convergence otherwise.
// The local search alone guarantees >= 1/2 and empirically lands at 0.9+ of
// optimal (validated against the exact solvers in the test suite).
//
// Re-entrancy: every entry point is a pure function of its arguments — all
// working state (MatchState, sweep orders, the RNG) is local, and the only
// mutation of the input graph is its mutex-guarded lazy CSR build. The
// round pipeline relies on this: OfflineResolve calls these solvers on a
// pool worker concurrently with the inner-iteration sweeps.

#include <cstdint>
#include <vector>

#include "matching/matching.hpp"

namespace dp {

struct ApproxOptions {
  /// Use the exact O(n^3) blossom when the graph has at most this many
  /// vertices (0 disables exact dispatch).
  std::size_t exact_threshold = 400;
  /// Maximum improvement sweeps of local search.
  std::size_t max_rounds = 64;
  /// Random seed for sweep order.
  std::uint64_t seed = 1;
};

// Every solver below has a core taking `weight_order`, a
// weight_descending_order of g (matching/greedy) that the greedy start and
// the local-search sweeps share, and a wrapper that sorts it once. Local
// search takes the order by value: it reshuffles it as its sweep order.

/// Approximate maximum weight matching.
Matching approx_weighted_matching(const Graph& g, const ApproxOptions& opts);
Matching approx_weighted_matching(const Graph& g);
Matching approx_weighted_matching(const Graph& g,
                                  std::vector<EdgeId> weight_order,
                                  const ApproxOptions& opts);

/// Local-search-only solver (never dispatches to exact); exposed for
/// benchmarking the components separately.
Matching local_search_matching(const Graph& g, std::size_t max_rounds,
                               std::uint64_t seed);
Matching local_search_matching(const Graph& g,
                               std::vector<EdgeId> weight_order,
                               std::size_t max_rounds, std::uint64_t seed);

/// Approximate maximum weight uncapacitated b-matching: weight-greedy with
/// saturation followed by unit-transfer local search.
BMatching approx_weighted_b_matching(const Graph& g, const Capacities& b,
                                     std::size_t max_rounds = 32);
BMatching approx_weighted_b_matching(const Graph& g, const Capacities& b,
                                     const std::vector<EdgeId>& weight_order,
                                     std::size_t max_rounds = 32);

}  // namespace dp
