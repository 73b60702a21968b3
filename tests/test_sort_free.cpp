// Equivalence of the round pipeline's linear-time groupings with the
// comparison sorts they replace, on seeded random inputs full of duplicates
// and ties:
//  - zeta row grouping (DenseKeySet) vs std::sort + std::unique, keys up to
//    the n * L - 1 edge of the key space, and each row's rank;
//  - weight-class grouping (group_weight_classes) vs std::sort of the
//    packed (class, edge) keys, promises spanning negative classes, the
//    extremes of the double range and every power of two with both
//    neighbours;
//  - every weight-ordered matching core fed a WeightOrder restriction vs
//    its sorting wrapper, with small integer weights so ties are common.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "graph/generators.hpp"
#include "matching/approx.hpp"
#include "matching/greedy.hpp"
#include "sparsify/deferred.hpp"
#include "util/dense_key_set.hpp"
#include "util/rng.hpp"

namespace dp {
namespace {

TEST(SortFree, DenseKeySetMatchesSortUnique) {
  DenseKeySet set;  // one instance across cases: reset must empty it
  std::vector<std::uint64_t> got;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    Rng rng(seed);
    const std::uint64_t n = 1 + rng.uniform(300);
    const std::uint64_t levels = 1 + rng.uniform(70);
    const std::uint64_t universe = n * levels;
    // Few distinct rows, many repeats (as in a stored sample, where a
    // vertex carries many edges of one level).
    const std::size_t count = rng.uniform(4000);
    const std::uint64_t distinct = 1 + rng.uniform(universe);
    std::vector<std::uint64_t> keys;
    for (std::size_t i = 0; i < count; ++i) {
      keys.push_back(rng.uniform(distinct) * universe / distinct);
    }
    keys.push_back(universe - 1);  // the top of the key space
    keys.push_back(0);
    keys.push_back(universe - 1);

    set.reset(universe);
    for (const std::uint64_t k : keys) set.insert(k);
    set.index_sorted(got);

    std::vector<std::uint64_t> want = keys;
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    ASSERT_EQ(got, want) << "seed " << seed;
    for (std::size_t r = 0; r < want.size(); ++r) {
      ASSERT_EQ(set.index_of(want[r]), r) << "seed " << seed;
    }
  }
  // Reset to a smaller universe over the last case's members: only the
  // new member is listed.
  set.reset(64);
  set.insert(63);
  set.index_sorted(got);
  EXPECT_EQ(got, std::vector<std::uint64_t>{63});
  EXPECT_EQ(set.index_of(63), 0u);
}

/// The packed-key sort group_weight_classes replaced, verbatim.
std::vector<std::uint64_t> sorted_class_keys(
    const std::vector<double>& promise) {
  std::vector<std::uint64_t> keys;
  for (std::size_t e = 0; e < promise.size(); ++e) {
    if (!(promise[e] > 0)) continue;
    const int cls = static_cast<int>(std::floor(std::log2(promise[e])));
    const auto biased =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(cls) +
                                   (std::int64_t{1} << 31));
    keys.push_back((biased << 32) | static_cast<std::uint64_t>(e));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(SortFree, WeightClassGroupingMatchesSort) {
  const double extremes[] = {
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      1e-300,
      0.75,
      std::nextafter(1.0, 0.0),  // just below a power of two
      1.0,
      std::nextafter(1024.0, 0.0),
      1e300,
      std::numeric_limits<double>::max(),
      0.0,
      -3.0,
      std::numeric_limits<double>::quiet_NaN()};
  DeferredScratch scratch;  // reused across cases, as the pipeline does
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    Rng rng(seed);
    std::vector<double> promise(rng.uniform(5000));
    for (double& p : promise) {
      const std::uint64_t pick = rng.uniform(10);
      if (pick == 0) {
        p = extremes[rng.uniform(std::size(extremes))];
      } else if (pick < 4) {
        // Repeated values: whole classes of exact ties.
        p = std::ldexp(1.0, static_cast<int>(rng.uniform(8)) - 4);
      } else {
        // Promises below and above 1, negative and positive classes.
        p = std::exp(-30.0 + 40.0 * rng.uniform_real());
      }
    }
    group_weight_classes(promise, scratch);
    ASSERT_EQ(scratch.class_keys, sorted_class_keys(promise))
        << "seed " << seed;
  }
  // Every power of two and both neighbours: the exponent field and libm's
  // floor(log2) disagree just below a power of two, and the subnormals
  // carry no implicit bit.
  std::vector<double> powers;
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    powers.push_back(std::nextafter(p, 0.0));
    powers.push_back(p);
    powers.push_back(
        std::nextafter(p, std::numeric_limits<double>::infinity()));
  }
  group_weight_classes(powers, scratch);
  ASSERT_EQ(scratch.class_keys, sorted_class_keys(powers));
  std::vector<double> none = {0.0, -1.0};
  group_weight_classes(none, scratch);
  EXPECT_TRUE(scratch.class_keys.empty());
}

/// gnm topology, weights uniform in {1, ..., max_w}: ties everywhere.
Graph tie_graph(std::size_t n, std::size_t m, std::int64_t max_w,
                std::uint64_t seed) {
  const Graph topo = gen::gnm(n, m, seed);
  Rng rng(seed + 7);
  Graph g(n);
  for (EdgeId e = 0; e < topo.num_edges(); ++e) {
    g.add_edge(topo.edge(e).u, topo.edge(e).v,
               static_cast<double>(rng.uniform_int(1, max_w)));
  }
  return g;
}

TEST(SortFree, RestrictedOrderMatchesStableSortAndMatchings) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const Graph g = tie_graph(60, 600, 4, 100 + seed);
    WeightOrder order(g);  // one per "solve", restricted many times
    Rng rng(seed);
    for (int rep = 0; rep < 4; ++rep) {
      // An ascending id subset, as the union / retained set / support are.
      std::vector<EdgeId> ids;
      const std::uint64_t keep = 1 + rng.uniform(4);  // keep ~1/keep
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (rng.uniform(keep) == 0) ids.push_back(e);
      }
      Graph sub(g.num_vertices());
      for (const EdgeId e : ids) {
        sub.add_edge(g.edge(e).u, g.edge(e).v, g.edge(e).w);
      }
      const std::vector<EdgeId> local = order.restrict_to(ids);

      std::vector<EdgeId> want(sub.num_edges());
      std::iota(want.begin(), want.end(), EdgeId{0});
      std::stable_sort(want.begin(), want.end(), [&](EdgeId a, EdgeId b) {
        return sub.edge(a).w > sub.edge(b).w;
      });
      ASSERT_EQ(local, want) << "seed " << seed << " rep " << rep;

      EXPECT_EQ(greedy_matching(sub, local).edges(),
                greedy_matching(sub).edges());
      EXPECT_EQ(local_search_matching(sub, local, 16, seed).edges(),
                local_search_matching(sub, 16, seed).edges());
      ApproxOptions opts;
      opts.exact_threshold = 0;
      opts.seed = seed;
      EXPECT_EQ(approx_weighted_matching(sub, local, opts).edges(),
                approx_weighted_matching(sub, opts).edges());

      const Capacities b = gen::random_capacities(g.num_vertices(), 1, 3,
                                                  seed * 31 + rep);
      const BMatching greedy_core = greedy_b_matching(sub, b, local);
      const BMatching greedy_wrap = greedy_b_matching(sub, b);
      const BMatching local_core = approx_weighted_b_matching(sub, b, local);
      const BMatching local_wrap = approx_weighted_b_matching(sub, b);
      for (EdgeId e = 0; e < sub.num_edges(); ++e) {
        ASSERT_EQ(greedy_core.multiplicity(e), greedy_wrap.multiplicity(e));
        ASSERT_EQ(local_core.multiplicity(e), local_wrap.multiplicity(e));
      }
    }
  }
}

TEST(SortFree, RestrictRejectsUnsortedOrForeignIds) {
  const Graph g = tie_graph(10, 20, 3, 5);
  WeightOrder order(g);
  EXPECT_THROW(order.restrict_to({3, 2}), std::invalid_argument);
  EXPECT_THROW(order.restrict_to({4, 4}), std::invalid_argument);
  EXPECT_THROW(order.restrict_to({static_cast<EdgeId>(g.num_edges())}),
               std::invalid_argument);
  // A rejected call leaves no stale membership behind.
  EXPECT_EQ(order.restrict_to({}).size(), 0u);
  EXPECT_EQ(order.restrict_to({0, 1}).size(), 2u);
}

}  // namespace
}  // namespace dp
