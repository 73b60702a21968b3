#pragma once
// Greedy and maximal matchings / b-matchings.
//
// * greedy_matching: sort by weight, take feasible — the classic 1/2
//   approximation, used as a baseline throughout the benchmarks.
// * weight_descending_order / WeightOrder: the scan order every
//   weight-greedy routine uses (greedy, local search, their b-matching
//   versions). Each routine has a core that takes that order from the
//   caller and a wrapper that sorts once; a caller solving many subgraphs
//   of one graph (the round pipeline's offline re-solve) sorts once per
//   graph and restricts the order per subgraph in O(m) via WeightOrder.
// * maximal_matching: arbitrary-order maximal matching (1/2 for cardinality).
// * maximal_b_matching: maximal with the saturation rule of Lemma 20 — when
//   an edge (i, j) is chosen its multiplicity is raised to the residual
//   min(b_i, b_j), so each chosen edge saturates an endpoint; this is what
//   makes the Lattanzi-style filtering analysis carry over to b-matching.

#include <cstdint>
#include <vector>

#include "matching/matching.hpp"

namespace dp {

/// g's edge ids by weight descending, equal weights by ascending id — the
/// result of a stable sort by weight.
std::vector<EdgeId> weight_descending_order(const Graph& g);

/// One weight_descending_order of a graph, computed once and restricted to
/// subgraphs without sorting. For a subgraph whose local edge i is the
/// graph's edge ids[i] (same weight), with ids strictly ascending,
/// restrict_to(ids) returns the local ids in the subgraph's own
/// weight_descending_order: filtering keeps relative order, and ascending
/// ids map weight ties to ascending local ids. O(m) per call with reused
/// scratch (a membership bitmap with per-word ranks), so one instance
/// serves one caller at a time.
class WeightOrder {
 public:
  explicit WeightOrder(const Graph& g);

  /// Throws std::invalid_argument unless ids is strictly ascending and
  /// every id is an edge of the graph.
  std::vector<EdgeId> restrict_to(const std::vector<EdgeId>& ids);

 private:
  std::vector<EdgeId> order_;
  std::vector<std::uint64_t> member_;  // bit e set iff e is in ids
  std::vector<std::uint32_t> rank_;    // set bits in the words before w
};

/// Weight-sorted greedy matching (>= 1/2 of optimal weight).
Matching greedy_matching(const Graph& g);
/// The same scan over a caller-supplied weight_descending_order of g.
Matching greedy_matching(const Graph& g, const std::vector<EdgeId>& order);

/// Maximal matching scanning edges in stored order.
Matching maximal_matching(const Graph& g);

/// Maximal matching over an arbitrary subset of edge ids, scanning in the
/// given order and respecting pre-matched vertices (mate array updated).
void extend_maximal_matching(const Graph& g,
                             const std::vector<EdgeId>& candidates,
                             std::vector<Vertex>& mate, Matching& m);

/// Weight-sorted greedy b-matching: multiplicity = residual min(b_u, b_v)
/// at selection time (uncapacitated b-matching, Lemma 20 saturation).
BMatching greedy_b_matching(const Graph& g, const Capacities& b);
/// The same scan over a caller-supplied weight_descending_order of g.
BMatching greedy_b_matching(const Graph& g, const Capacities& b,
                            const std::vector<EdgeId>& order);

/// Maximal b-matching in stored edge order with saturation.
BMatching maximal_b_matching(const Graph& g, const Capacities& b);

}  // namespace dp
