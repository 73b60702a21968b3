#include "matching/greedy.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

namespace dp {

std::vector<EdgeId> weight_descending_order(const Graph& g) {
  std::vector<EdgeId> order(g.num_edges());
  std::iota(order.begin(), order.end(), EdgeId{0});
  std::stable_sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return g.edge(a).w > g.edge(b).w;
  });
  return order;
}

WeightOrder::WeightOrder(const Graph& g)
    : order_(weight_descending_order(g)),
      member_((g.num_edges() + 63) / 64, 0),
      rank_(member_.size(), 0) {}

std::vector<EdgeId> WeightOrder::restrict_to(
    const std::vector<EdgeId>& ids) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= order_.size() || (i > 0 && ids[i] <= ids[i - 1])) {
      throw std::invalid_argument(
          "WeightOrder::restrict_to: ids must be strictly ascending edge "
          "ids of the graph");
    }
  }
  for (const EdgeId e : ids) member_[e / 64] |= std::uint64_t{1} << (e % 64);
  std::uint32_t before = 0;
  for (std::size_t w = 0; w < member_.size(); ++w) {
    rank_[w] = before;
    before += static_cast<std::uint32_t>(std::popcount(member_[w]));
  }
  // Ascending ids make edge ids[i]'s local id its rank among the members.
  // Branch-free: every edge writes its would-be local id to the next slot,
  // which only members advance past (one spare slot for the last write).
  std::vector<EdgeId> local(ids.size() + 1);
  std::size_t out = 0;
  for (const EdgeId e : order_) {
    const std::uint64_t word = member_[e / 64];
    const std::uint64_t below = (std::uint64_t{1} << (e % 64)) - 1;
    local[out] =
        rank_[e / 64] + static_cast<EdgeId>(std::popcount(word & below));
    out += (word >> (e % 64)) & 1u;
  }
  local.pop_back();
  for (const EdgeId e : ids) member_[e / 64] = 0;
  return local;
}

Matching greedy_matching(const Graph& g) {
  return greedy_matching(g, weight_descending_order(g));
}

Matching greedy_matching(const Graph& g, const std::vector<EdgeId>& order) {
  std::vector<char> used(g.num_vertices(), 0);
  Matching m;
  for (EdgeId e : order) {
    const Edge& edge = g.edge(e);
    if (!used[edge.u] && !used[edge.v]) {
      used[edge.u] = used[edge.v] = 1;
      m.add(e);
    }
  }
  return m;
}

Matching maximal_matching(const Graph& g) {
  std::vector<char> used(g.num_vertices(), 0);
  Matching m;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    if (!used[edge.u] && !used[edge.v]) {
      used[edge.u] = used[edge.v] = 1;
      m.add(e);
    }
  }
  return m;
}

void extend_maximal_matching(const Graph& g,
                             const std::vector<EdgeId>& candidates,
                             std::vector<Vertex>& mate, Matching& m) {
  for (EdgeId e : candidates) {
    const Edge& edge = g.edge(e);
    if (mate[edge.u] == Matching::kUnmatched &&
        mate[edge.v] == Matching::kUnmatched) {
      mate[edge.u] = edge.v;
      mate[edge.v] = edge.u;
      m.add(e);
    }
  }
}

namespace {

BMatching b_matching_in_order(const Graph& g, const Capacities& b,
                              const std::vector<EdgeId>& order) {
  std::vector<std::int64_t> residual(g.num_vertices());
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    residual[v] = b[static_cast<Vertex>(v)];
  }
  BMatching bm(g.num_edges());
  for (EdgeId e : order) {
    const Edge& edge = g.edge(e);
    const std::int64_t y = std::min(residual[edge.u], residual[edge.v]);
    if (y > 0) {
      bm.set_multiplicity(e, y);
      residual[edge.u] -= y;
      residual[edge.v] -= y;
    }
  }
  return bm;
}

}  // namespace

BMatching greedy_b_matching(const Graph& g, const Capacities& b) {
  return b_matching_in_order(g, b, weight_descending_order(g));
}

BMatching greedy_b_matching(const Graph& g, const Capacities& b,
                            const std::vector<EdgeId>& order) {
  return b_matching_in_order(g, b, order);
}

BMatching maximal_b_matching(const Graph& g, const Capacities& b) {
  std::vector<EdgeId> order(g.num_edges());
  std::iota(order.begin(), order.end(), EdgeId{0});
  return b_matching_in_order(g, b, order);
}

}  // namespace dp
