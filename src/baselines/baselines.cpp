#include "baselines/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <vector>

#include "matching/approx.hpp"
#include "matching/greedy.hpp"
#include "stream/edge_stream.hpp"
#include "util/rng.hpp"

namespace dp::baselines {

namespace {

constexpr EdgeId kNoEdge = ~EdgeId{0};

/// Maximal matching on a set of candidate edge ids via iterative uniform
/// sampling with budget edges per round (Lattanzi filtering). `mate` is
/// shared state so classes can respect earlier (heavier) matches.
void sampled_maximal_matching(const Graph& g, std::vector<EdgeId> candidates,
                              std::size_t budget, std::vector<Vertex>& mate,
                              Matching& m, Rng& rng, ResourceMeter* meter) {
  while (!candidates.empty()) {
    if (meter != nullptr) meter->add_rounds();
    std::vector<EdgeId> sample;
    if (candidates.size() <= budget) {
      sample = candidates;
    } else {
      const auto picks =
          rng.sample_without_replacement(candidates.size(), budget);
      sample.reserve(picks.size());
      for (std::size_t idx : picks) sample.push_back(candidates[idx]);
    }
    if (meter != nullptr) {
      meter->add_stored_edges(sample.size());
      meter->release_stored_edges(sample.size());
    }
    rng.shuffle(sample);
    extend_maximal_matching(g, sample, mate, m);
    candidates.erase(
        std::remove_if(candidates.begin(), candidates.end(),
                       [&](EdgeId e) {
                         const Edge& edge = g.edge(e);
                         return mate[edge.u] != Matching::kUnmatched ||
                                mate[edge.v] != Matching::kUnmatched;
                       }),
        candidates.end());
  }
}

std::size_t space_budget(std::size_t n, double p) {
  const double exponent = 1.0 + 1.0 / std::max(p, 1.01);
  return static_cast<std::size_t>(
             std::ceil(std::pow(static_cast<double>(n), exponent))) +
         16;
}

}  // namespace

Matching filtering_matching(const Graph& g, double p, std::uint64_t seed,
                            ResourceMeter* meter) {
  Rng rng(seed);
  const std::size_t budget = space_budget(g.num_vertices(), p);

  // Weight classes [2^c, 2^{c+1}); process heaviest class first, respecting
  // matches made by heavier classes (greedy layering => O(1) approx).
  std::map<int, std::vector<EdgeId>, std::greater<>> classes;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (g.edge(e).w <= 0) continue;
    classes[static_cast<int>(std::floor(std::log2(g.edge(e).w)))]
        .push_back(e);
  }
  std::vector<Vertex> mate(g.num_vertices(), Matching::kUnmatched);
  Matching m;
  for (auto& [cls, edges] : classes) {
    // Drop edges already blocked by heavier classes.
    edges.erase(std::remove_if(edges.begin(), edges.end(),
                               [&](EdgeId e) {
                                 const Edge& edge = g.edge(e);
                                 return mate[edge.u] !=
                                            Matching::kUnmatched ||
                                        mate[edge.v] !=
                                            Matching::kUnmatched;
                               }),
                edges.end());
    sampled_maximal_matching(g, edges, budget, mate, m, rng, meter);
  }
  return m;
}

BMatching filtering_b_matching(const Graph& g, const Capacities& b, double p,
                               std::uint64_t seed, ResourceMeter* meter) {
  Rng rng(seed);
  const std::size_t budget = space_budget(g.num_vertices(), p);
  std::vector<std::int64_t> residual(g.num_vertices());
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    residual[v] = b[static_cast<Vertex>(v)];
  }
  BMatching bm(g.num_edges());

  std::map<int, std::vector<EdgeId>, std::greater<>> classes;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (g.edge(e).w <= 0) continue;
    classes[static_cast<int>(std::floor(std::log2(g.edge(e).w)))]
        .push_back(e);
  }
  for (auto& [cls, candidates] : classes) {
    std::vector<EdgeId> remaining = candidates;
    while (!remaining.empty()) {
      if (meter != nullptr) meter->add_rounds();
      std::vector<EdgeId> sample;
      if (remaining.size() <= budget) {
        sample = remaining;
      } else {
        const auto picks =
            rng.sample_without_replacement(remaining.size(), budget);
        for (std::size_t idx : picks) sample.push_back(remaining[idx]);
      }
      rng.shuffle(sample);
      for (EdgeId e : sample) {
        const Edge& edge = g.edge(e);
        const std::int64_t y = std::min(residual[edge.u], residual[edge.v]);
        if (y > 0) {
          bm.add(e, y);
          residual[edge.u] -= y;
          residual[edge.v] -= y;
        }
      }
      remaining.erase(std::remove_if(remaining.begin(), remaining.end(),
                                     [&](EdgeId e) {
                                       const Edge& edge = g.edge(e);
                                       return residual[edge.u] == 0 ||
                                              residual[edge.v] == 0;
                                     }),
                      remaining.end());
    }
  }
  return bm;
}

Matching streaming_greedy_matching(const Graph& g, ResourceMeter* meter) {
  EdgeStream stream(g, meter);
  std::vector<char> used(g.num_vertices(), 0);
  Matching m;
  EdgeId id = 0;
  stream.for_each_pass([&](const Edge& e) {
    if (!used[e.u] && !used[e.v]) {
      used[e.u] = used[e.v] = 1;
      m.add(id);
    }
    ++id;
  });
  return m;
}

Matching paz_schwartzman_matching(const Graph& g, double eps,
                                  ResourceMeter* meter) {
  EdgeStream stream(g, meter);
  std::vector<double> phi(g.num_vertices(), 0.0);
  std::vector<EdgeId> stack;  // edges in arrival order of acceptance
  EdgeId id = 0;
  stream.for_each_pass([&](const Edge& e) {
    const double threshold = (1.0 + eps) * (phi[e.u] + phi[e.v]);
    if (e.w > threshold) {
      const double residual = e.w - (phi[e.u] + phi[e.v]);
      phi[e.u] += residual;
      phi[e.v] += residual;
      stack.push_back(id);
    }
    ++id;
  });
  if (meter != nullptr) {
    meter->add_stored_edges(stack.size());
    meter->release_stored_edges(stack.size());
  }
  // Unwind: later (heavier residual) edges first.
  std::vector<char> used(g.num_vertices(), 0);
  Matching m;
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    const Edge& e = g.edge(*it);
    if (!used[e.u] && !used[e.v]) {
      used[e.u] = used[e.v] = 1;
      m.add(*it);
    }
  }
  return m;
}

Matching improvement_matching(const Graph& g, double gamma,
                              ResourceMeter* meter) {
  EdgeStream stream(g, meter);
  std::vector<EdgeId> at(g.num_vertices(), kNoEdge);
  EdgeId id = 0;
  stream.for_each_pass([&](const Edge& e) {
    const EdgeId cu = at[e.u];
    const EdgeId cv = at[e.v];
    double conflict = 0;
    if (cu != kNoEdge) conflict += g.edge(cu).w;
    if (cv != kNoEdge && cv != cu) conflict += g.edge(cv).w;
    if (e.w > (1.0 + gamma) * conflict) {
      if (cu != kNoEdge) {
        at[g.edge(cu).u] = kNoEdge;
        at[g.edge(cu).v] = kNoEdge;
      }
      if (cv != kNoEdge) {
        at[g.edge(cv).u] = kNoEdge;
        at[g.edge(cv).v] = kNoEdge;
      }
      at[e.u] = id;
      at[e.v] = id;
    }
    ++id;
  });
  Matching m;
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    const EdgeId e = at[v];
    if (e != kNoEdge && g.edge(e).u == static_cast<Vertex>(v)) m.add(e);
  }
  return m;
}

Matching multipass_matching(const Graph& g, double gamma,
                            std::size_t max_passes, ResourceMeter* meter) {
  EdgeStream stream(g, meter);
  std::vector<EdgeId> at(g.num_vertices(), kNoEdge);
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    bool changed = false;
    EdgeId id = 0;
    stream.for_each_pass([&](const Edge& e) {
      const EdgeId cu = at[e.u];
      const EdgeId cv = at[e.v];
      if (cu == id || cv == id) {
        ++id;
        return;
      }
      double conflict = 0;
      if (cu != kNoEdge) conflict += g.edge(cu).w;
      if (cv != kNoEdge && cv != cu) conflict += g.edge(cv).w;
      if (e.w > (1.0 + gamma) * conflict) {
        if (cu != kNoEdge) {
          at[g.edge(cu).u] = kNoEdge;
          at[g.edge(cu).v] = kNoEdge;
        }
        if (cv != kNoEdge) {
          at[g.edge(cv).u] = kNoEdge;
          at[g.edge(cv).v] = kNoEdge;
        }
        at[e.u] = id;
        at[e.v] = id;
        changed = true;
      }
      ++id;
    });
    if (!changed) break;
  }
  Matching m;
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    const EdgeId e = at[v];
    if (e != kNoEdge && g.edge(e).u == static_cast<Vertex>(v)) m.add(e);
  }
  return m;
}

Matching sample_and_solve(const Graph& g, double p, std::uint64_t seed,
                          ResourceMeter* meter) {
  Rng rng(seed);
  const std::size_t budget = space_budget(g.num_vertices(), p);
  std::vector<EdgeId> sample;
  if (g.num_edges() <= budget) {
    sample.resize(g.num_edges());
    std::iota(sample.begin(), sample.end(), EdgeId{0});
  } else {
    const auto picks = rng.sample_without_replacement(g.num_edges(), budget);
    sample.reserve(picks.size());
    for (std::size_t idx : picks) sample.push_back(static_cast<EdgeId>(idx));
  }
  if (meter != nullptr) {
    meter->add_rounds();
    meter->add_stored_edges(sample.size());
  }
  Graph sub(g.num_vertices());
  for (EdgeId e : sample) {
    sub.add_edge(g.edge(e).u, g.edge(e).v, g.edge(e).w);
  }
  const Matching local = approx_weighted_matching(sub);
  Matching m;
  for (EdgeId idx : local.edges()) m.add(sample[idx]);
  return m;
}

}  // namespace dp::baselines
