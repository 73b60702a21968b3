#pragma once
// Weighted cut sparsification (Benczur-Karger via strength sampling).
//
// For weighted inputs the edges are first split into geometric weight
// classes [2^l, 2^{l+1}); each class is sparsified as a (near-)unweighted
// graph using strength-based sampling, and the union of per-class
// sparsifiers is a sparsifier of the whole graph (Lemma 17's splitting
// argument). The sampled edge keeps weight w_e / p_e, so every cut is
// preserved in expectation and within 1 +- xi whp.
//
// This is the deferred sparsifier (sparsify/deferred) with exact promises:
// deferred_probabilities at gamma = 1, one t = 1 sampling_mask draw, then
// the refinement by the same weights.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/accounting.hpp"

namespace dp {

/// One retained edge of a sparsifier: index into the input edge array plus
/// the reweighted value.
struct SparsifiedEdge {
  std::size_t index;
  double weight;
};

struct SparsifierOptions {
  /// Target cut accuracy (1 +- xi).
  double xi = 0.1;
  /// Oversampling constant C in p_e = min(1, C log n / (xi^2 strength_e)).
  double sampling_constant = 12.0;
};

/// Sparsify (n, edges) with per-edge weights `weight` (must be positive for
/// retained edges; zero-weight edges are dropped). Returns retained edges in
/// ascending index order; charges `meter` (if given) with the stored edge
/// count.
std::vector<SparsifiedEdge> cut_sparsify(std::size_t n,
                                         const std::vector<Edge>& edges,
                                         const std::vector<double>& weight,
                                         const SparsifierOptions& options,
                                         std::uint64_t seed,
                                         ResourceMeter* meter = nullptr);

/// Convenience: sparsify a Graph using its own edge weights.
std::vector<SparsifiedEdge> cut_sparsify(const Graph& g,
                                         const SparsifierOptions& options,
                                         std::uint64_t seed,
                                         ResourceMeter* meter = nullptr);

/// Materialize a sparsifier as a Graph (same vertex set).
Graph sparsifier_to_graph(std::size_t n, const std::vector<Edge>& edges,
                          const std::vector<SparsifiedEdge>& kept);

}  // namespace dp
