#include "sparsify/cut_sparsifier.hpp"

#include "sparsify/deferred.hpp"

namespace dp {

std::vector<SparsifiedEdge> cut_sparsify(std::size_t n,
                                         const std::vector<Edge>& edges,
                                         const std::vector<double>& weight,
                                         const SparsifierOptions& options,
                                         std::uint64_t seed,
                                         ResourceMeter* meter) {
  if (edges.empty() || n == 0) return {};
  // Exact weights are a promise with no distortion: gamma = 1 leaves
  // rho = C log n / xi^2, and the per-class strengths treat each class
  // as unweighted (weights within a class differ by < 2x, which the
  // constant absorbs).
  DeferredOptions deferred;
  deferred.xi = options.xi;
  deferred.gamma = 1.0;
  deferred.sampling_constant = options.sampling_constant;
  const DeferredSparsifier sample(n, edges, weight, deferred, seed);
  if (meter != nullptr) meter->add_stored_edges(sample.size());
  return sample.refine_from_full(weight);
}

std::vector<SparsifiedEdge> cut_sparsify(const Graph& g,
                                         const SparsifierOptions& options,
                                         std::uint64_t seed,
                                         ResourceMeter* meter) {
  std::vector<double> weight(g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    weight[e] = g.edge(static_cast<EdgeId>(e)).w;
  }
  return cut_sparsify(g.num_vertices(), g.edges(), weight, options, seed,
                      meter);
}

Graph sparsifier_to_graph(std::size_t n, const std::vector<Edge>& edges,
                          const std::vector<SparsifiedEdge>& kept) {
  Graph h(n);
  for (const SparsifiedEdge& s : kept) {
    h.add_edge(edges[s.index].u, edges[s.index].v, s.weight);
  }
  return h;
}

}  // namespace dp
