// Equivalence of two hot-path kernels with the versions they replaced
// (bench/reference_kernels.hpp), on seeded random inputs:
//  - the oracle's stored-row table (core::StoredRows::build) vs the former
//    two-pass LSD grouping: kept edges, sorted rows, per-row us sums and
//    usc, bitwise, on samples with repeated rows, self-loops, us <= 0
//    entries and level < 0 edges;
//  - the label forest packer (detail::ForestPacker) vs the union-find
//    packer: identical placement indices on random multigraphs with
//    parallel edges and self-loops, on dense multigraphs whose forests
//    span all n vertices, and on a class that never touches vertex n - 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/oracle.hpp"
#include "graph/generators.hpp"
#include "reference_kernels.hpp"
#include "sparsify/strength.hpp"
#include "util/rng.hpp"

namespace dp {
namespace {

using core::StoredEdge;
using core::StoredRows;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(StoredRows, MatchesLsdGroupingBitwise) {
  const std::size_t n = 80;
  Graph g = gen::gnm(n, 900, 31);
  gen::weight_uniform(g, 1.0, 16.0, 32);
  const core::LevelGraph lg(g, Capacities::unit(n), 0.2);
  const int levels = lg.num_levels();
  ASSERT_GT(levels, 2);

  StoredRows rows(lg);  // one table across cases: build must not leak state
  bench_ref::LsdScratch scratch;
  bench_ref::GroupedRows want;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    // A small vertex window makes rows repeat many times.
    const std::uint64_t window = 1 + rng.uniform(n);
    const std::size_t count = rng.uniform(600);
    std::vector<StoredEdge> sample(count);
    for (StoredEdge& e : sample) {
      e.u = static_cast<Vertex>(rng.uniform(window));
      e.v = rng.uniform(8) == 0 ? e.u
                                : static_cast<Vertex>(rng.uniform(window));
      e.level = static_cast<std::int32_t>(rng.uniform(levels + 1)) - 1;
      switch (rng.uniform(8)) {
        case 0: e.us = 0.0; break;
        case 1: e.us = -rng.uniform_real(); break;
        // Magnitudes spread over many binades so the fold order shows in
        // the low bits of every sum.
        default: e.us = std::ldexp(0.5 + rng.uniform_real(),
                                   static_cast<int>(rng.uniform(40)) - 20);
      }
    }
    bench_ref::lsd_group_rows(lg, sample, scratch, want);

    const std::span<StoredEdge> dst = rows.sample(sample.size());
    std::copy(sample.begin(), sample.end(), dst.begin());
    rows.build();

    std::vector<StoredEdge> kept;
    for (const StoredEdge& e : sample) {
      if (e.level >= 0 && e.us > 0) kept.push_back(e);
    }
    ASSERT_EQ(rows.edges().size(), kept.size()) << "seed " << seed;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      const StoredEdge& got = rows.edges()[i];
      EXPECT_TRUE(got.u == kept[i].u && got.v == kept[i].v &&
                  got.level == kept[i].level &&
                  bits(got.us) == bits(kept[i].us))
          << "seed " << seed << " edge " << i;
    }
    ASSERT_EQ(rows.keys(), want.keys) << "seed " << seed;
    ASSERT_EQ(rows.sums().size(), want.sums.size());
    for (std::size_t r = 0; r < want.sums.size(); ++r) {
      EXPECT_EQ(bits(rows.sums()[r]), bits(want.sums[r]))
          << "seed " << seed << " row " << want.keys[r];
    }
    EXPECT_EQ(bits(rows.usc()), bits(want.usc)) << "seed " << seed;
  }
}

TEST(StoredRows, ExplicitMultipliersUseTheGraphsEndpointsAndLevels) {
  Graph g = gen::gnm(30, 200, 41);
  gen::weight_uniform(g, 1.0, 16.0, 42);
  const core::LevelGraph lg(g, Capacities::unit(30), 0.2);
  std::vector<core::StoredMultiplier> us;
  std::vector<StoredEdge> sample;
  Rng rng(43);
  for (EdgeId e = 0; e < g.num_edges(); e += 3) {
    const double value = rng.uniform(5) == 0 ? 0.0 : rng.uniform_real();
    us.push_back(core::StoredMultiplier{e, value});
    sample.push_back(
        StoredEdge{g.edge(e).u, g.edge(e).v, lg.level(e), value});
  }
  const StoredRows rows = core::stored_rows(lg, us);
  bench_ref::LsdScratch scratch;
  bench_ref::GroupedRows want;
  bench_ref::lsd_group_rows(lg, sample, scratch, want);
  EXPECT_EQ(rows.keys(), want.keys);
  EXPECT_EQ(rows.sums(), want.sums);
  EXPECT_EQ(bits(rows.usc()), bits(want.usc));
}

TEST(Strength, LabelPackerMatchesUnionFindPacker) {
  detail::ForestPacker packer;  // reused across cases through reset()
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(100 + seed);
    const std::size_t n = 1 + rng.uniform(60);
    // Few vertices and many edges: heavy parallel multiplicity, so the
    // placements reach deep forests.
    const std::size_t m = rng.uniform(40 * n + 1);
    packer.reset(n);
    bench_ref::UnionFindPacker want(n);
    for (std::size_t e = 0; e < m; ++e) {
      const auto u = static_cast<std::uint32_t>(rng.uniform(n));
      const auto v = rng.uniform(6) == 0
                         ? u
                         : static_cast<std::uint32_t>(rng.uniform(n));
      ASSERT_EQ(packer.insert(u, v), want.insert(u, v))
          << "seed " << seed << " edge " << e << " (" << u << ", " << v
          << ")";
    }
  }
}

/// Pack `edges` with both packers and compare every placement.
void expect_packers_agree(detail::ForestPacker& packer, std::size_t n,
                          const std::vector<Edge>& edges, const char* what) {
  packer.reset(n);
  bench_ref::UnionFindPacker want(n);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    ASSERT_EQ(packer.insert(edges[e].u, edges[e].v),
              want.insert(edges[e].u, edges[e].v))
        << what << " n " << n << " edge " << e << " (" << edges[e].u << ", "
        << edges[e].v << ")";
  }
}

TEST(Strength, SpanningPrefixPackerMatchesUnionFindPacker) {
  // The packer starts each search after the forests that span all n
  // vertices. Dense multigraphs (small n, m >> n) open many spanning
  // forests; the self-loops come after the forests span, and the class
  // that never touches vertex n - 1 never has a spanning forest.
  detail::ForestPacker packer;  // reused across n: stale forests must die
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(500 + seed);
    const std::size_t n = 2 + rng.uniform(12);
    std::vector<Edge> dense;
    for (std::size_t e = 0; e < 300 * n; ++e) {
      const auto u = static_cast<Vertex>(rng.uniform(n));
      auto v = static_cast<Vertex>(rng.uniform(n - 1));
      if (v >= u) ++v;  // no self-loop yet
      dense.push_back(Edge{u, v, 1.0});
    }
    for (std::size_t e = 0; e < 40 * n; ++e) {
      const auto u = static_cast<Vertex>(rng.uniform(n));
      dense.push_back(Edge{u, rng.uniform(3) == 0
                                  ? u
                                  : static_cast<Vertex>(rng.uniform(n)),
                           1.0});
    }
    expect_packers_agree(packer, n, dense, "dense");

    std::vector<Edge> partial;  // vertex n - 1 stays isolated
    for (std::size_t e = 0; e < 200 * n; ++e) {
      const auto u = static_cast<Vertex>(rng.uniform(n - 1));
      partial.push_back(Edge{u, rng.uniform(10) == 0
                                    ? u
                                    : static_cast<Vertex>(rng.uniform(n - 1)),
                             1.0});
    }
    expect_packers_agree(packer, n, partial, "partial");
  }
  // One vertex: every forest spans as it opens; every edge is a self-loop.
  expect_packers_agree(packer, 1, std::vector<Edge>(20, Edge{0, 0, 1.0}),
                       "single vertex");
}

TEST(Strength, SelfLoopOpensAForestAndMergesNothing) {
  detail::ForestPacker packer(3);
  EXPECT_EQ(packer.insert(0, 0), 1u);  // connected in every (no) forest
  EXPECT_EQ(packer.insert(0, 1), 1u);  // forest 1 stayed all singletons
  EXPECT_EQ(packer.insert(1, 1), 2u);
  EXPECT_EQ(packer.insert(0, 1), 2u);
  EXPECT_EQ(packer.insert(1, 2), 1u);
  EXPECT_EQ(packer.insert(0, 2), 2u);
  EXPECT_EQ(packer.insert(2, 0), 3u);
  EXPECT_EQ(packer.insert(2, 2), 4u);
}

}  // namespace
}  // namespace dp
