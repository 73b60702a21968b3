#include "sparsify/cut_sparsifier.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "sparsify/strength.hpp"
#include "util/rng.hpp"

namespace dp {

std::vector<SparsifiedEdge> cut_sparsify(std::size_t n,
                                         const std::vector<Edge>& edges,
                                         const std::vector<double>& weight,
                                         const SparsifierOptions& options,
                                         std::uint64_t seed,
                                         ResourceMeter* meter) {
  std::vector<SparsifiedEdge> kept;
  if (edges.empty() || n == 0) return kept;

  // Split into geometric weight classes.
  std::map<int, std::vector<std::size_t>> classes;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (!(weight[e] > 0)) continue;
    const int cls = static_cast<int>(std::floor(std::log2(weight[e])));
    classes[cls].push_back(e);
  }

  Rng rng(seed);
  const double log_n = std::log(static_cast<double>(std::max<std::size_t>(
      n, 3)));
  const double rho =
      options.sampling_constant * log_n / (options.xi * options.xi);

  for (const auto& [cls, members] : classes) {
    // Per-class strength on the class subgraph (treated as unweighted:
    // weights within a class differ by < 2x which the constant absorbs).
    std::vector<Edge> class_edges;
    class_edges.reserve(members.size());
    for (std::size_t e : members) class_edges.push_back(edges[e]);
    const std::vector<double> strength = estimate_strengths(
        n, class_edges, rng.next(), options.forests_per_level);
    for (std::size_t i = 0; i < members.size(); ++i) {
      const std::size_t e = members[i];
      const double p = std::min(1.0, rho / strength[i]);
      if (p >= 1.0 || rng.bernoulli(p)) {
        kept.push_back(SparsifiedEdge{e, weight[e] / p});
      }
    }
  }
  std::sort(kept.begin(), kept.end(),
            [](const SparsifiedEdge& a, const SparsifiedEdge& b) {
              return a.index < b.index;
            });
  if (meter != nullptr) meter->add_stored_edges(kept.size());
  return kept;
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
