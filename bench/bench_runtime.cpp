// E5 (Theorem 15): running time vs m at fixed eps and p. Expected shape:
// near-linear growth in m (the paper claims O(m poly(1/eps, log n))).
// Each size runs two configurations — the default solve (worker pool of hardware
// concurrency: sweeps chunk-parallel, the offline re-solve overlapped with
// the inner MW iterations and the next round's opening sweep) and the same
// solve at oracle.threads = 1 (no pool: every stage inline, in order),
// alternating five times; "seconds" and "seconds_seq" are the medians — so
// BENCH_runtime.json tracks the pipelined win ("speedup" = seconds_seq /
// seconds) alongside the absolute trajectory.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/checkpoint.hpp"
#include "core/solver.hpp"
#include "graph/generators.hpp"
#include "util/math.hpp"
#include "util/timer.hpp"

namespace {

constexpr int kRepeats = 5;

double median(std::vector<double> xs) {
  std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
  return xs[xs.size() / 2];
}

}  // namespace

int main() {
  using namespace dp;
  bench::header("E5 runtime (Theorem 15)",
                "wall seconds vs m at fixed n, eps, p; expect near-linear "
                "growth in m and a pipelined win vs the 1-thread "
                "sequential stage order");

  bench::BenchReport report("runtime", {"n", "m", "seconds", "seconds_seq",
                                        "speedup", "certified_ratio"});
  std::vector<double> ms, secs;
  const std::size_t n = 600;

  // Determinism gate: the certified ratio AND the per-round stored-edge
  // counts must be bitwise identical across thread counts AND across the
  // places the solver joins a round's Merge — deferred past the next
  // opening sweep, or right after the round when it keeps checkpoints (an
  // on_checkpoint hook, or an armed stop that never fires). This is the
  // fixed-chunk contract of the oracle sweeps, lambda, covering_us, the
  // batched sampling engine's counter-based draws, and the round
  // pipeline's single merge point.
  {
    Graph g = gen::gnm(n, 3000, 3001);
    gen::weight_uniform(g, 1.0, 16.0, 3002);
    core::SolverOptions opts;
    opts.eps = 0.25;
    opts.p = 2.0;
    opts.seed = 13;
    opts.max_outer_rounds = 2;
    opts.sparsifiers_per_round = 2;
    enum Placement { kDeferred, kOnCheckpoint, kArmedStop };
    double ratio[9];
    std::vector<std::size_t> stored[9];
    std::size_t slot = 0;
    for (const std::size_t threads : {1, 2, 8}) {
      for (const Placement placement :
           {kDeferred, kOnCheckpoint, kArmedStop}) {
        core::SolverOptions run = opts;
        run.oracle.threads = threads;
        if (placement == kOnCheckpoint) {
          run.on_checkpoint = [](const core::RoundCheckpoint&) {
            return true;
          };
        } else if (placement == kArmedStop) {
          run.cancel = CancelToken::make();  // armed, never fired
        }
        const auto result = core::solve_matching(g, run);
        ratio[slot] = result.certified_ratio;
        for (const auto& rs : result.history) {
          stored[slot].push_back(rs.stored_edges);
        }
        ++slot;
      }
    }
    for (std::size_t s = 1; s < slot; ++s) {
      if (ratio[0] != ratio[s]) {
        std::fprintf(stderr,
                     "FATAL: certified ratio varies with threads/join "
                     "placement (run %zu: %.17g vs %.17g)\n",
                     s, ratio[0], ratio[s]);
        return 1;
      }
      if (stored[0] != stored[s]) {
        std::fprintf(stderr,
                     "FATAL: per-round stored-edge counts vary with "
                     "threads/join placement (run %zu)\n", s);
        return 1;
      }
    }
    std::printf("determinism: certified ratio and stored-edge counts "
                "bitwise stable for 1/2/8 threads x deferred/checkpoint/"
                "armed-stop join placement (%.6f)\n\n", ratio[0]);
  }

  std::printf("%-10s %-10s %12s %12s %10s %12s\n", "n", "m", "seconds",
              "seconds_seq", "speedup", "ratio");
  for (std::size_t m : {3000, 6000, 12000, 24000}) {
    Graph g = gen::gnm(n, m, m + 1);
    gen::weight_uniform(g, 1.0, 16.0, m + 2);
    core::SolverOptions opts;
    opts.eps = 0.25;
    opts.p = 2.0;
    opts.seed = 13;
    opts.max_outer_rounds = 4;
    opts.sparsifiers_per_round = 3;

    // Five alternating pooled / 1-thread solves, reported as the median
    // of each: a single timing swings about 2x from run to run on a
    // shared host, which would make the gated speedup column noise.
    std::vector<double> pooled_secs, seq_secs;
    core::SolverResult result;
    for (int rep = 0; rep < kRepeats; ++rep) {
      WallTimer timer;
      result = core::solve_matching(g, opts);
      pooled_secs.push_back(timer.seconds());

      core::SolverOptions seq = opts;
      seq.oracle.threads = 1;
      WallTimer seq_timer;
      const auto seq_result = core::solve_matching(g, seq);
      seq_secs.push_back(seq_timer.seconds());
      if (seq_result.certified_ratio != result.certified_ratio) {
        std::fprintf(stderr,
                     "FATAL: pipelined and 1-thread results diverge at "
                     "m=%zu\n", m);
        return 1;
      }
    }
    const double sec = median(pooled_secs);
    const double sec_seq = median(seq_secs);

    const double speedup = sec > 0 ? sec_seq / sec : 0.0;
    std::printf("%-10zu %-10zu %12.3f %12.3f %10.2f %12.4f\n", n, m, sec,
                sec_seq, speedup, result.certified_ratio);
    report.add({static_cast<double>(n), static_cast<double>(m), sec,
                sec_seq, speedup, result.certified_ratio});
    ms.push_back(static_cast<double>(m));
    secs.push_back(sec);
  }
  std::printf("-> time-vs-m log-log slope %.3f (near-linear target ~1)\n",
              loglog_slope(ms, secs));
  return 0;
}
