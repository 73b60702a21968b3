#include "sketch/spanning_forest.hpp"

#include <cmath>
#include <memory>

#include "graph/union_find.hpp"
#include "sketch/agm.hpp"
#include "util/rng.hpp"

namespace dp {

SketchForestResult sketch_spanning_forest(const Graph& g, std::uint64_t seed,
                                          ResourceMeter* meter) {
  SketchForestResult result;
  const std::size_t n = g.num_vertices();
  if (n == 0) return result;

  Rng rng(seed);
  const int boruvka_rounds =
      std::max(1, static_cast<int>(std::ceil(std::log2(std::max<std::size_t>(
                      2, n)))) +
                      1);
  const int levels =
      std::max(4, 2 * static_cast<int>(std::ceil(std::log2(
                        std::max<std::size_t>(2, n)))) +
                      2);
  constexpr int kReps = 8;

  // One independent sketch copy per Boruvka round, all computable in a
  // single pass over the edges (this is the non-adaptive part).
  std::vector<L0SamplerSeed> seeds;
  std::vector<std::unique_ptr<AgmSketch>> copies;
  seeds.reserve(boruvka_rounds);
  copies.reserve(boruvka_rounds);
  for (int r = 0; r < boruvka_rounds; ++r) {
    seeds.emplace_back(levels, kReps, rng);
  }
  for (int r = 0; r < boruvka_rounds; ++r) {
    copies.push_back(std::make_unique<AgmSketch>(g, seeds[r], meter));
  }
  if (meter != nullptr) {
    meter->add_rounds(1);  // all sketches in one sampling round
    meter->add_passes(1);
  }

  // Deferred use: Boruvka merging with a fresh sketch copy per round.
  UnionFind uf(n);
  for (int round = 0; round < boruvka_rounds; ++round) {
    ++result.use_steps;
    // Collect current components.
    std::vector<std::vector<Vertex>> comps(n);
    for (std::size_t v = 0; v < n; ++v) {
      comps[uf.find(static_cast<Vertex>(v))].push_back(
          static_cast<Vertex>(v));
    }
    bool merged_any = false;
    std::vector<char> in_set(n, 0);
    for (std::size_t root = 0; root < n; ++root) {
      if (comps[root].empty()) continue;
      for (Vertex v : comps[root]) in_set[v] = 1;
      const auto edge = copies[round]->sample_boundary(in_set);
      for (Vertex v : comps[root]) in_set[v] = 0;
      if (!edge.has_value()) continue;
      if (uf.unite(edge->u, edge->v)) {
        result.forest.push_back(Edge{edge->u, edge->v, 1.0});
        merged_any = true;
      }
    }
    if (!merged_any) break;
  }
  result.components = uf.num_components();
  return result;
}

}  // namespace dp
