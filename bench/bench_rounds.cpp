// E2 (Theorem 1/15): number of adaptive sampling rounds. We measure the
// round at which the incumbent integral solution reaches (1-eps) of its
// final value under a fixed round budget. Expected shape: convergence
// rounds flat in n (the paper's point: adaptivity is O(p/eps), independent
// of the graph size) and weakly increasing as eps shrinks.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/sampling.hpp"
#include "core/solver.hpp"
#include "graph/generators.hpp"
#include "sparsify/deferred.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

/// The seed solver's per-round sampling+union stage (PR 2 state): t
/// dependent Bernoulli sweeps off one stateful generator into a
/// vector-of-vectors, then a union membership pass. Kept verbatim as the
/// wall-clock baseline for the batched engine.
std::size_t reference_sampling_round(const std::vector<double>& prob,
                                     std::size_t t, std::uint64_t seed,
                                     std::vector<std::size_t>& union_out,
                                     std::uint64_t& consume_acc) {
  dp::Rng rng(seed);
  std::vector<std::vector<std::size_t>> stored(t);
  std::size_t stored_total = 0;
  for (std::size_t q = 0; q < t; ++q) {
    for (std::size_t idx = 0; idx < prob.size(); ++idx) {
      if (prob[idx] > 0 && (prob[idx] >= 1.0 || rng.bernoulli(prob[idx]))) {
        stored[q].push_back(idx);
      }
    }
    stored_total += stored[q].size();
  }
  std::vector<char> in_union(prob.size(), 0);
  for (const auto& s : stored) {
    for (std::size_t idx : s) in_union[idx] = 1;
  }
  union_out.clear();
  for (std::size_t idx = 0; idx < prob.size(); ++idx) {
    if (in_union[idx]) union_out.push_back(idx);
  }
  // The solver-side consumption of the round: one walk over each
  // sparsifier's support (the inner-iteration `ids` build).
  for (const auto& s : stored) {
    for (std::size_t idx : s) consume_acc += idx;
  }
  return stored_total;
}

/// Run the batched sampling+union stage vs the sequential baseline and gate
/// bitwise thread-count invariance of the stored sets. Returns false on a
/// determinism violation.
bool sampling_stage_bench(dp::bench::BenchReport& report) {
  using namespace dp;
  std::printf("\nbatched sampling+union stage vs sequential baseline\n");
  std::printf("%-8s %-8s %-4s %14s %14s %10s %10s\n", "n", "m", "t",
              "ref_seconds", "engine_seconds", "speedup", "stored");
  bool ok = true;
  // Third config: oversampling dialed down so most probabilities stay
  // fractional — the Bernoulli-heavy regime (saturated probabilities
  // exercise the full-mask shortcut instead).
  const struct {
    std::size_t n;
    double sampling_constant;
  } configs[] = {{2000, 0.25}, {4000, 0.25}, {4000, 0.002}};
  for (const auto& config : configs) {
    const std::size_t n = config.n;
    const std::size_t m = 8 * n;
    const std::size_t t = 8;
    Graph g = gen::gnm(n, m, n + 17);
    gen::weight_uniform(g, 1.0, 16.0, n + 18);
    std::vector<double> promise(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) promise[e] = g.edge(e).w;

    // The solver's per-round deferred options (solve() at p = 2).
    DeferredOptions dopt;
    dopt.xi = 0.5;
    dopt.gamma = std::sqrt(std::pow(static_cast<double>(n), 0.25));
    dopt.sampling_constant = config.sampling_constant;

    const std::vector<double> prob =
        deferred_probabilities(n, g.edges(), promise, dopt, n + 19);
    core::SamplingEngine engine;

    // Both sides are timed end-to-end: draw + union + one consumption walk
    // per sparsifier (the engine defers per-sparsifier materialization to
    // that walk, so timing the draw alone would under-count it).
    const std::uint64_t seed = n + 20;
    std::vector<std::size_t> ref_union;
    std::uint64_t ref_acc = 0;
    double ref_seconds = 1e300;
    std::size_t ref_stored = 0;
    for (int rep = 0; rep < 9; ++rep) {
      WallTimer timer;
      ref_stored =
          reference_sampling_round(prob, t, seed, ref_union, ref_acc);
      ref_seconds = std::min(ref_seconds, timer.seconds());
    }

    std::uint64_t engine_acc = 0;
    double engine_seconds = 1e300;
    for (int rep = 0; rep < 9; ++rep) {
      WallTimer timer;
      engine.draw(prob, t, /*round=*/1, seed);
      for (std::size_t q = 0; q < t; ++q) {
        engine.last_round().for_each_stored(
            q, [&](std::uint32_t idx) { engine_acc += idx; });
      }
      engine_seconds = std::min(engine_seconds, timer.seconds());
    }
    if ((ref_acc == 0) != (engine_acc == 0)) {
      std::fprintf(stderr, "FATAL: consumption walk mismatch\n");
      ok = false;
    }
    const core::SamplingRound& round = engine.last_round();

    // Determinism gate: stored sets bitwise identical for 1/2/8 threads.
    for (std::size_t threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      core::SamplingEngine other(&pool);
      other.draw(prob, t, 1, seed);
      if (other.last_round().masks() != round.masks() ||
          other.last_round().union_support() != round.union_support() ||
          other.last_round().stored_total() != round.stored_total()) {
        std::fprintf(stderr,
                     "FATAL: sampling draws differ at %zu threads (n=%zu)\n",
                     threads, n);
        ok = false;
      }
      for (std::size_t q = 0; q < t; ++q) {
        const auto a = round.sparsifier(q);
        const auto b = other.last_round().sparsifier(q);
        if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) {
          std::fprintf(stderr,
                       "FATAL: sparsifier %zu differs at %zu threads\n", q,
                       threads);
          ok = false;
        }
      }
    }

    const double speedup = ref_seconds / engine_seconds;
    std::printf("%-8zu %-8zu %-4zu %14.6f %14.6f %10.2f %10zu\n", n, m, t,
                ref_seconds, engine_seconds, speedup,
                round.stored_total());
    (void)ref_stored;  // stored counts differ: ref draws are sequential
    report.add({static_cast<double>(n), static_cast<double>(m),
                static_cast<double>(t), ref_seconds, engine_seconds, speedup,
                static_cast<double>(round.stored_total())});
  }
  return ok;
}

}  // namespace

int main() {
  using namespace dp;
  bench::header("E2 rounds (Theorem 1/15)",
                "sampling rounds to reach (1-eps) of the final value: flat "
                "in n; total adaptive rounds bounded by O(p/eps)");

  std::printf("%-8s %-8s %14s %12s %10s %12s\n", "n", "eps", "conv_round",
              "total_rounds", "oracle", "certified");
  bench::BenchReport report(
      "rounds", {"n", "eps", "conv_round", "total_rounds", "oracle_calls",
                 "certified_ratio"});
  for (std::size_t n : {100, 200, 400, 800}) {
    for (double eps : {0.25, 0.15}) {
      Graph g = gen::gnm(n, 8 * n, n + 5);
      gen::weight_uniform(g, 1.0, 16.0, n + 6);
      core::SolverOptions opts;
      opts.eps = eps;
      opts.p = 2.0;
      opts.seed = 3;
      opts.max_outer_rounds = 12;
      opts.sparsifiers_per_round = 4;
      const auto result = core::solve_matching(g, opts);
      std::size_t conv_round = result.history.size();
      for (const auto& rs : result.history) {
        if (rs.best_value >= (1.0 - eps) * result.value) {
          conv_round = rs.round;
          break;
        }
      }
      std::printf("%-8zu %-8.2f %14zu %12zu %10zu %12.4f\n", n, eps,
                  conv_round, result.meter.rounds(), result.oracle_calls,
                  result.certified_ratio);
      report.add({static_cast<double>(n), eps,
                  static_cast<double>(conv_round),
                  static_cast<double>(result.meter.rounds()),
                  static_cast<double>(result.oracle_calls),
                  result.certified_ratio});
    }
  }

  bench::BenchReport sampling_report(
      "sampling", {"n", "m", "t", "ref_seconds", "engine_seconds", "speedup",
                   "stored"});
  return sampling_stage_bench(sampling_report) ? 0 : 1;
}
