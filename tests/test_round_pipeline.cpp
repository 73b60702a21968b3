// Tests for the staged round pipeline (core/round_pipeline): the offline
// re-solve overlapped with the inner MW iterations must be bitwise
// equivalent to the sequential stage order (oracle.threads == 1, every
// stage inline) — for the whole SolverResult (value, lambda, beta,
// certified ratio, per-round history, meter counters), for 1/2/8 threads
// and for both places the solver joins a round's Merge — and the
// offline/merge helpers must behave like Algorithm 2 steps 5/6.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "access/in_memory.hpp"
#include "core/checkpoint.hpp"
#include "core/round_pipeline.hpp"
#include "core/solver.hpp"
#include "graph/generators.hpp"

namespace dp::core {
namespace {

SolverOptions pipeline_options(double eps = 0.2) {
  SolverOptions opt;
  opt.eps = eps;
  opt.p = 2.0;
  opt.seed = 97;
  opt.max_outer_rounds = 3;
  opt.sparsifiers_per_round = 4;
  return opt;
}

void expect_bitwise_equal(const SolverResult& a, const SolverResult& b,
                          const char* label) {
  EXPECT_EQ(a.value, b.value) << label;
  EXPECT_EQ(a.dual_bound, b.dual_bound) << label;
  EXPECT_EQ(a.certified_ratio, b.certified_ratio) << label;
  EXPECT_EQ(a.lambda, b.lambda) << label;
  EXPECT_EQ(a.beta, b.beta) << label;
  EXPECT_EQ(a.outer_rounds, b.outer_rounds) << label;
  EXPECT_EQ(a.oracle_calls, b.oracle_calls) << label;
  ASSERT_EQ(a.history.size(), b.history.size()) << label;
  for (std::size_t r = 0; r < a.history.size(); ++r) {
    EXPECT_EQ(a.history[r].round, b.history[r].round) << label;
    EXPECT_EQ(a.history[r].lambda, b.history[r].lambda) << label;
    EXPECT_EQ(a.history[r].beta, b.history[r].beta) << label;
    EXPECT_EQ(a.history[r].best_value, b.history[r].best_value) << label;
    EXPECT_EQ(a.history[r].stored_edges, b.history[r].stored_edges)
        << label;
    EXPECT_EQ(a.history[r].oracle_calls, b.history[r].oracle_calls)
        << label;
  }
  // Meter counters: the per-stage thread-local meters must aggregate to
  // the same totals whatever the thread count or join placement.
  EXPECT_EQ(a.meter.rounds(), b.meter.rounds()) << label;
  EXPECT_EQ(a.meter.passes(), b.meter.passes()) << label;
  EXPECT_EQ(a.meter.stored_edges(), b.meter.stored_edges()) << label;
  EXPECT_EQ(a.meter.peak_edges(), b.meter.peak_edges()) << label;
  EXPECT_EQ(a.meter.inner_iterations(), b.meter.inner_iterations())
      << label;
  EXPECT_EQ(a.meter.oracle_calls(), b.meter.oracle_calls()) << label;
  // Separation flow-work counters (incremental Gusfield): the same flows
  // must run — and the same flows be saved — in every execution mode.
  EXPECT_EQ(a.meter.max_flows(), b.meter.max_flows()) << label;
  EXPECT_EQ(a.meter.max_flows_saved(), b.meter.max_flows_saved()) << label;
  EXPECT_EQ(a.meter.gh_full_builds(), b.meter.gh_full_builds()) << label;
  EXPECT_EQ(a.meter.gh_incremental(), b.meter.gh_incremental()) << label;
  EXPECT_EQ(a.meter.gh_tree_reuses(), b.meter.gh_tree_reuses()) << label;
  for (EdgeId e = 0; e < a.b_matching.num_edges(); ++e) {
    ASSERT_EQ(a.b_matching.multiplicity(e), b.b_matching.multiplicity(e))
        << label << " edge " << e;
  }
}

// The solver joins a round's Merge after the next round's opening sweep
// (deferred) unless it keeps per-round checkpoints, which it does when an
// on_checkpoint hook is set or a stop is armed (immediate join). Every
// placement at every thread count must match the 1-thread deferred run.
enum class JoinPlacement { kDeferred, kOnCheckpoint, kArmedStop };

void expect_placement_matches_reference(JoinPlacement placement,
                                        const char* name) {
  Graph g = gen::gnm(120, 900, 61);
  gen::weight_uniform(g, 1.0, 12.0, 62);
  // Sequential reference: no pool, so every stage runs inline and in order.
  SolverOptions ref_opt = pipeline_options();
  ref_opt.oracle.threads = 1;
  const SolverResult ref = solve_matching(g, ref_opt);
  EXPECT_GT(ref.value, 0.0);
  EXPECT_FALSE(ref.history.empty());

  for (const std::size_t threads : {1, 2, 8}) {
    SolverOptions opt = pipeline_options();
    opt.oracle.threads = threads;
    std::size_t checkpoints = 0;
    if (placement == JoinPlacement::kOnCheckpoint) {
      opt.on_checkpoint = [&checkpoints](const RoundCheckpoint&) {
        ++checkpoints;
        return true;
      };
    } else if (placement == JoinPlacement::kArmedStop) {
      opt.cancel = CancelToken::make();  // armed, never fired
    }
    const SolverResult run = solve_matching(g, opt);
    const std::string label =
        std::string(name) + " threads=" + std::to_string(threads);
    expect_bitwise_equal(ref, run, label.c_str());
    EXPECT_EQ(run.status, SolverStatus::kComplete) << label;
    if (placement == JoinPlacement::kOnCheckpoint) {
      EXPECT_EQ(checkpoints, run.outer_rounds) << label;
    }
  }
}

// Deferred join: at 2 and 8 threads the offline job overlaps both the
// inner iterations and the next round's opening sweep.
TEST(RoundPipeline, BitwiseIdenticalAcrossThreadsAndOverlap) {
  expect_placement_matches_reference(JoinPlacement::kDeferred, "deferred");
}

TEST(RoundPipeline, BitwiseIdenticalAcrossThreadsJoinOnCheckpoint) {
  expect_placement_matches_reference(JoinPlacement::kOnCheckpoint,
                                     "on_checkpoint");
}

TEST(RoundPipeline, BitwiseIdenticalAcrossThreadsJoinOnArmedStop) {
  expect_placement_matches_reference(JoinPlacement::kArmedStop,
                                     "armed_stop");
}

TEST(RoundPipeline, BitwiseIdenticalForBMatching) {
  Graph g = gen::gnm(60, 400, 71);
  gen::weight_uniform(g, 1.0, 8.0, 72);
  const Capacities b = gen::random_capacities(60, 1, 3, 73);
  SolverOptions ref_opt = pipeline_options(0.15);
  ref_opt.oracle.threads = 1;
  const SolverResult ref = solve_b_matching(g, b, ref_opt);
  for (const std::size_t threads : {2, 8}) {
    SolverOptions opt = pipeline_options(0.15);
    opt.oracle.threads = threads;
    const SolverResult run = solve_b_matching(g, b, opt);
    const std::string label = "bmatching threads=" + std::to_string(threads);
    expect_bitwise_equal(ref, run, label.c_str());
  }
}

TEST(RoundPipeline, SolveOfflineReportsPositiveSupportOnly) {
  Graph g = gen::gnm(40, 200, 81);
  gen::weight_uniform(g, 1.0, 6.0, 82);
  const Capacities b = Capacities::unit(40);
  const LevelGraph lg(g, b, 0.2);
  MicroOracle oracle(lg, b, OracleConfig{});
  RoundPipelineOptions popt;
  popt.eps = 0.2;
  access::InMemorySubstrate substrate;
  substrate.bind(g, lg, oracle.worker_pool(), popt.grain);
  RoundPipeline pipeline(substrate, lg, b, /*unit_caps=*/true, oracle,
                         popt);

  std::vector<EdgeId> support;
  std::vector<Edge> support_edges;
  for (EdgeId e = 0; e < g.num_edges(); e += 2) {
    support.push_back(e);
    support_edges.push_back(g.edge(e));
  }
  const OfflineSolution sol = pipeline.solve_offline(support, support_edges);
  ASSERT_FALSE(sol.support.empty());
  // The reported support is exactly the positive-multiplicity edges (one
  // multiplicity per support edge, ascending ids drawn from the offered
  // subgraph), and the cached value is the solution's original-weight
  // value.
  ASSERT_EQ(sol.multiplicity.size(), sol.support.size());
  BMatching bm(g.num_edges());
  for (std::size_t i = 0; i < sol.support.size(); ++i) {
    if (i > 0) EXPECT_LT(sol.support[i - 1], sol.support[i]);
    EXPECT_TRUE(std::binary_search(support.begin(), support.end(),
                                   sol.support[i]));
    bm.set_multiplicity(sol.support[i], sol.multiplicity[i]);
  }
  EXPECT_TRUE(bm.is_valid(g, b));
  double value = 0;
  std::size_t positives = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (bm.multiplicity(e) > 0) {
      ++positives;
      value += static_cast<double>(bm.multiplicity(e)) * g.edge(e).w;
    }
  }
  EXPECT_EQ(sol.support.size(), positives);
  for (std::size_t i = 0; i < sol.support.size(); ++i) {
    EXPECT_GT(sol.multiplicity[i], 0);
  }
  EXPECT_EQ(sol.value, value);

  // merge_offline keeps the better incumbent and raises beta from the
  // normalized (level-weight) value of the support.
  Incumbent inc;
  inc.best = BMatching(g.num_edges());
  inc.beta = 1e-12;
  pipeline.merge_offline(sol, inc);
  EXPECT_EQ(inc.value, sol.value);
  EXPECT_GT(inc.beta, 1e-12);
  // The incumbent now holds exactly the solution.
  EXPECT_EQ(inc.best.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(inc.best.multiplicity(e), bm.multiplicity(e)) << "edge " << e;
  }
  // A worse solution must not displace the incumbent.
  OfflineSolution worse;
  worse.value = 0;
  const double beta_before = inc.beta;
  pipeline.merge_offline(worse, inc);
  EXPECT_EQ(inc.value, sol.value);
  EXPECT_EQ(inc.beta, beta_before);
  EXPECT_EQ(inc.best.support(), sol.support.size());
}

}  // namespace
}  // namespace dp::core
