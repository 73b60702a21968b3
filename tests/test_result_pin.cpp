// Pinned solver results: the exact SolverResult bit patterns (value,
// certified ratio, lambda, beta) plus hashes of the per-round history, the
// meter summary and the returned b-matching, for three small instances.
// Performance work on the round pipeline (grouping, ordering, scratch
// reuse) must leave every one of them bitwise unchanged; a change that
// alters a result on purpose must re-pin these constants and say why.
//
// The offline re-solve is forced onto greedy + local search
// (exact_threshold = 0) so the weight-ordered matching path runs on every
// round, and two of the instances use small integer weights so equal-weight
// ties are common and the order of tied edges matters.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/solver.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace dp::core {
namespace {

struct Pin {
  std::uint64_t value;
  std::uint64_t certified_ratio;
  std::uint64_t lambda;
  std::uint64_t beta;
  std::uint64_t history;
  std::uint64_t meter;
  std::uint64_t matching;
};

class Fnv {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((x >> (8 * i)) & 0xffu)) * 0x100000001b3ULL;
    }
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  void add(const std::string& s) {
    for (const char c : s) {
      h_ = (h_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

Pin fingerprint(const SolverResult& r) {
  Fnv history;
  for (const RoundStats& s : r.history) {
    history.add(static_cast<std::uint64_t>(s.round));
    history.add(s.lambda);
    history.add(s.beta);
    history.add(s.best_value);
    history.add(static_cast<std::uint64_t>(s.stored_edges));
    history.add(static_cast<std::uint64_t>(s.oracle_calls));
  }
  Fnv meter;
  meter.add(r.meter.summary());
  Fnv matching;
  for (EdgeId e = 0; e < r.b_matching.num_edges(); ++e) {
    matching.add(static_cast<std::uint64_t>(r.b_matching.multiplicity(e)));
  }
  return Pin{std::bit_cast<std::uint64_t>(r.value),
             std::bit_cast<std::uint64_t>(r.certified_ratio),
             std::bit_cast<std::uint64_t>(r.lambda),
             std::bit_cast<std::uint64_t>(r.beta),
             history.value(),
             meter.value(),
             matching.value()};
}

void expect_pinned(const SolverResult& r, const Pin& want) {
  const Pin got = fingerprint(r);
  // On a mismatch, print the new constants so an intended re-pin is a
  // copy-paste (never re-pin to hide an unintended change).
  const auto hex = [](std::uint64_t x) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                  static_cast<unsigned long long>(x));
    return std::string(buf);
  };
  SCOPED_TRACE("got {" + hex(got.value) + ", " + hex(got.certified_ratio) +
               ", " + hex(got.lambda) + ", " + hex(got.beta) + ", " +
               hex(got.history) + ", " + hex(got.meter) + ", " +
               hex(got.matching) + "}");
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(got.certified_ratio, want.certified_ratio);
  EXPECT_EQ(got.lambda, want.lambda);
  EXPECT_EQ(got.beta, want.beta);
  EXPECT_EQ(got.history, want.history);
  EXPECT_EQ(got.meter, want.meter);
  EXPECT_EQ(got.matching, want.matching);
}

SolverOptions pin_options() {
  SolverOptions opt;
  opt.eps = 0.2;
  opt.p = 2.0;
  opt.seed = 1307;
  opt.max_outer_rounds = 6;
  opt.sparsifiers_per_round = 4;
  opt.oracle.threads = 2;
  opt.offline.exact_threshold = 0;  // always greedy + local search
  return opt;
}

/// gnm topology with weights drawn uniformly from {1, ..., max_w}.
Graph integer_weight_graph(std::size_t n, std::size_t m, std::int64_t max_w,
                           std::uint64_t seed) {
  const Graph topo = gen::gnm(n, m, seed);
  Rng rng(seed + 1);
  Graph g(n);
  for (EdgeId e = 0; e < topo.num_edges(); ++e) {
    const Edge& edge = topo.edge(e);
    g.add_edge(edge.u, edge.v,
               static_cast<double>(rng.uniform_int(1, max_w)));
  }
  return g;
}

TEST(ResultPin, RealWeightsUnitCaps) {
  Graph g = gen::gnm(150, 8000, 71);
  gen::weight_uniform(g, 1.0, 16.0, 72);
  const SolverResult r = Solver(g, pin_options()).solve();
  expect_pinned(r, Pin{0x40924a8e5dbc75bfULL, 0x3fef7add859c8a0cULL,
                       0x3f49a0f996a04a4dULL, 0x40f30adbd5a58871ULL,
                       0x0f9ec0883b029bbdULL, 0x9e9c852f31e43ee7ULL,
                       0xbee051bd93d35fc4ULL});
}

TEST(ResultPin, IntegerWeightsUnitCaps) {
  const Graph g = integer_weight_graph(150, 8000, 4, 73);
  const SolverResult r = Solver(g, pin_options()).solve();
  expect_pinned(r, Pin{0x4072800000000000ULL, 0x3fef92c5f92c5f93ULL,
                       0x3f499f98986b6596ULL, 0x40f335502145f1d6ULL,
                       0xbc65e8842eed1a28ULL, 0x3b138587bc9690bcULL,
                       0xcc4db887daea76a5ULL});
}

TEST(ResultPin, IntegerWeightsBMatching) {
  const Graph g = integer_weight_graph(150, 8000, 4, 75);
  const Capacities b = gen::random_capacities(150, 1, 3, 76);
  const SolverResult r = Solver(g, b, pin_options()).solve();
  expect_pinned(r, Pin{0x4081b00000000000ULL, 0x3fef71c71c71c71cULL,
                       0x3f49a02f25ccd49fULL, 0x410fd8a3a0635be4ULL,
                       0xb6116b95168e888bULL, 0xc4f432a0c540266eULL,
                       0x7a06a4d000e3c0c4ULL});
}

}  // namespace
}  // namespace dp::core
