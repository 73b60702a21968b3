// perfbench harness: runs one named workload from a seed, checks its
// outputs, and prints every metric by name and unit as one JSON line.
//
//   perfbench_harness --workload dense_mem|dense_file|churn_serve
//                     --seed N --seconds S --trace 0|1
//                     [--out-dir DIR] [--scale full|tiny] [--force-failure]
//
// --trace 0 prints the end-to-end metrics; --trace 1 is a separate pass that
// prints the per-layer metrics, measured by timing calls into each layer's
// public functions (and through perfbench/trace.hpp's delegating substrate),
// and writes a Chrome trace-event file into --out-dir. --scale tiny and
// --force-failure exist for perfbench/selftest.py. See perfbench/README.md
// for why each workload exists and what it loads.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "access/in_memory.hpp"
#include "access/streaming.hpp"
#include "core/checkpoint.hpp"
#include "core/solver.hpp"
#include "dynamic/delta.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "matching/approx.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "stream/edge_file.hpp"
#include "trace.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace {

using namespace dp;
using perfbench::now_ns;

// ---------------------------------------------------------------- metrics --

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed by --trace 0, in this order, on every workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"solve_s", "s"},
    {"certified_ratio", "ratio"}, {"rounds", "count"},
    {"passes", "count"},        {"peak_stored_per_m", "ratio"},
    {"peak_rss_mb", "MB"},      {"ok_share", "ratio"},
    {"ops_per_s", "1/s"},       {"certify_p50_ms", "ms"},
};

// Printed by --trace 1, in this order, on every workload. A layer the
// workload leaves idle reads 0.
constexpr MetricDef kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"stream.write_s", "s"},
    {"stream.bytes_per_edge_pass", "B"},
    {"stream.prefetch_hits", "count"},
    {"stream.io_stalls", "count"},
    {"stream.stall_share", "ratio"},
    {"stream.scan_mb_per_s", "MB/s"},
    {"access.sweep_s", "s"},
    {"access.kernel_s", "s"},
    {"access.sweep_gbps_computed", "GB/s"},
    {"access.draw_s", "s"},
    {"access.fetch_s", "s"},
    {"access.fetch_calls", "count"},
    {"access.stored_attr_calls", "count"},
    {"access.union_s", "s"},
    {"access.peak_resident_edges", "count"},
    {"core.round_s_p50", "s"},
    {"core.round_s_p95", "s"},
    {"core.open_round_s", "s"},
    {"core.multipliers_s", "s"},
    {"core.refine_merge_s", "s"},
    {"core.between_rounds_s", "s"},
    {"core.oracle_calls", "count"},
    {"core.inner_iterations", "count"},
    {"core.max_flows", "count"},
    {"core.gh_incremental", "count"},
    {"core.speedup_2t", "x"},
    {"core.speedup_4t", "x"},
    {"matching.offline_s", "s"},
    {"matching.offline_critical_share", "ratio"},
    {"dynamic.apply_exec_ms", "ms"},
    {"dynamic.resolve_exec_ms", "ms"},
    {"dynamic.rounds_per_resolve", "count"},
    {"dynamic.warm_share", "ratio"},
    {"serve.probe_ms_p50", "ms"},
    {"serve.probe_ms_p99", "ms"},
    {"serve.resolve_ms_p95", "ms"},
    {"serve.delta_ms_p50", "ms"},
    {"serve.samples_probe", "count"},
    {"serve.samples_resolve", "count"},
    {"serve.samples_delta", "count"},
    {"serve.queue_ms_p50_probe", "ms"},
    {"serve.queue_ms_p99_probe", "ms"},
    {"serve.queue_ms_p50_resolve", "ms"},
    {"serve.queue_ms_p99_resolve", "ms"},
    {"serve.queue_ms_p50_delta", "ms"},
    {"serve.queue_ms_p99_delta", "ms"},
    {"serve.exec_ms_p50_probe", "ms"},
    {"serve.exec_ms_p50_resolve", "ms"},
    {"serve.exec_ms_p50_delta", "ms"},
    {"serve.queue_depth_max", "count"},
    {"serve.shed", "count"},
    {"serve.not_ready", "count"},
    {"trace.solve_s_untraced", "s"},
    {"trace.solve_s_traced", "s"},
    {"trace.overhead_s", "s"},
};

/// Collects the run's metrics and its attempted/failed tally, and prints
/// the final JSON line.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// One attempted operation or output check. A failure is counted, never
  /// dropped, and explained on stderr.
  bool op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
    }
    return ok;
  }

  /// Sets a metric of the table this run prints; any other name is a bug.
  void put(const std::string& name, double value) {
    for (const MetricDef& def : table()) {
      if (name == def.name) {
        values_.emplace_back(name, std::isfinite(value) ? value : 0.0);
        return;
      }
    }
    throw std::logic_error("perfbench: unknown metric " + name);
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double ok_share() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(attempted_ - failed_) /
                                 static_cast<double>(attempted_);
  }

  void print() const {
    std::ostringstream out;
    out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& def : table()) {
      double value = 0.0;
      bool found = false;
      for (const auto& [name, v] : values_) {
        if (name == def.name) {
          value = v;
          found = true;
        }
      }
      if (!found && !trace_ && failed_ == 0) {
        // A run that completed without failures sets every end-to-end
        // metric; a missing one is a harness bug.
        throw std::logic_error(std::string("perfbench: metric not set: ") +
                               def.name);
      }
      char num[64];
      std::snprintf(num, sizeof num, "%.17g", value);
      out << (first ? "" : ", ") << '"' << def.name << "\": {\"value\": "
          << num << ", \"unit\": \"" << def.unit << "\"}";
      first = false;
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<MetricDef> table() const {
    if (trace_) return {std::begin(kPerLayer), std::end(kPerLayer)};
    return {std::begin(kEndToEnd), std::end(kEndToEnd)};
  }

  bool trace_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, double>> values_;
};

// ---------------------------------------------------------------- helpers --

double secs(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Peak resident set size of this process so far (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Independent output check: the matching's edges are in range and share
/// no endpoint, and its weight is the reported value.
bool valid_matching(const Graph& g, const core::SolverResult& r,
                    std::string* why) {
  std::vector<char> used(g.num_vertices(), 0);
  double weight = 0.0;
  for (EdgeId e = 0; e < r.b_matching.num_edges(); ++e) {
    const std::int64_t mult = r.b_matching.multiplicity(e);
    if (mult == 0) continue;
    if (mult != 1 || e >= g.num_edges()) {
      *why = "edge " + std::to_string(e) + " has multiplicity " +
             std::to_string(mult);
      return false;
    }
    const Edge& edge = g.edge(e);
    if (used[edge.u] || used[edge.v]) {
      *why = "vertex matched twice at edge " + std::to_string(e);
      return false;
    }
    used[edge.u] = used[edge.v] = 1;
    weight += edge.w;
  }
  if (std::abs(weight - r.value) > 1e-9 * std::max(1.0, r.value)) {
    *why = "matching weight " + std::to_string(weight) +
           " differs from reported value " + std::to_string(r.value);
    return false;
  }
  if (!(r.certified_ratio > 0.0 && r.certified_ratio <= 1.0)) {
    *why = "certified_ratio " + std::to_string(r.certified_ratio) +
           " outside (0, 1]";
    return false;
  }
  return true;
}

/// Bitwise comparison of two solve results: value, certificate, history,
/// every meter counter and the matching. The prefetch hit/stall split is a
/// timing signal (only their sum is deterministic), so it compares summed.
bool same_result(const core::SolverResult& a, const core::SolverResult& b,
                 std::string* why) {
  const auto fail = [why](const std::string& what) {
    *why = what;
    return false;
  };
  if (bits(a.value) != bits(b.value)) return fail("value");
  if (bits(a.dual_bound) != bits(b.dual_bound)) return fail("dual_bound");
  if (bits(a.certified_ratio) != bits(b.certified_ratio)) {
    return fail("certified_ratio");
  }
  if (bits(a.lambda) != bits(b.lambda)) return fail("lambda");
  if (bits(a.beta) != bits(b.beta)) return fail("beta");
  if (a.outer_rounds != b.outer_rounds) return fail("outer_rounds");
  if (a.oracle_calls != b.oracle_calls) return fail("oracle_calls");
  if (a.status != b.status) return fail("status");
  if (a.history.size() != b.history.size()) return fail("history length");
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const core::RoundStats& x = a.history[i];
    const core::RoundStats& y = b.history[i];
    if (x.round != y.round || bits(x.lambda) != bits(y.lambda) ||
        bits(x.beta) != bits(y.beta) ||
        bits(x.best_value) != bits(y.best_value) ||
        x.stored_edges != y.stored_edges || x.oracle_calls != y.oracle_calls) {
      return fail("history row " + std::to_string(i));
    }
  }
  core::MeterSnapshot ma = core::MeterSnapshot::of(a.meter);
  core::MeterSnapshot mb = core::MeterSnapshot::of(b.meter);
  for (core::MeterSnapshot* m : {&ma, &mb}) {
    m->prefetch_hits += m->io_stalls;
    m->io_stalls = 0;
  }
  if (std::memcmp(&ma, &mb, sizeof ma) != 0) return fail("meter");
  if (a.b_matching.num_edges() != b.b_matching.num_edges()) {
    return fail("matching size");
  }
  for (EdgeId e = 0; e < a.b_matching.num_edges(); ++e) {
    if (a.b_matching.multiplicity(e) != b.b_matching.multiplicity(e)) {
      return fail("matching edge " + std::to_string(e));
    }
  }
  return true;
}

// --------------------------------------------------------------- settings --

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool tiny = false;
  bool force_failure = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
      return argv[++i];
    };
    if (key == "--workload") {
      a.workload = value();
    } else if (key == "--seed") {
      a.seed = std::stoull(value());
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value());
      have_seconds = true;
    } else if (key == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
      have_trace = true;
    } else if (key == "--out-dir") {
      a.out_dir = value();
    } else if (key == "--scale") {
      const std::string v = value();
      if (v != "full" && v != "tiny") {
        throw std::invalid_argument("--scale full|tiny");
      }
      a.tiny = v == "tiny";
    } else if (key == "--force-failure") {
      a.force_failure = true;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload != "dense_mem" && a.workload != "dense_file" &&
      a.workload != "churn_serve") {
    throw std::invalid_argument(
        "--workload dense_mem|dense_file|churn_serve is required");
  }
  if (!have_seed || !have_seconds || !have_trace || !(a.seconds > 0)) {
    throw std::invalid_argument("--seed, --seconds (> 0) and --trace are "
                                "required");
  }
  return a;
}

/// Setup is repeated and its median reported, so one slow repetition does
/// not move setup_s. Dense setup loads the instance from its DPEF file,
/// about 4 ms, so a dense setup sample is the mean of a batch of loads, and
/// a batch runs before the first timed solve and after each one. Churn
/// setup (which includes the initial certified solve) takes about 3 s.
constexpr int kDenseSetupBatch = 16;
constexpr int kChurnSetupReps = 3;
/// churn_serve's solve_s is the median of this many from-scratch solves of
/// the initial snapshot.
constexpr int kChurnScratchSolves = 3;

/// dense_*: the paper's regime, m ~ 3.6 n^{4/3} ln n at p = 3. One oracle
/// thread: each solve takes about 5.5 s, so a run holds several, and one
/// busy thread leaves the timings less exposed to the rest of a shared host
/// (see README.md, "Findings").
struct DenseConfig {
  std::size_t n = 500;
  std::size_t m = 90000;
  double p = 3.0;
  double eps = 0.25;
  std::size_t threads = 1;
  /// dense_file's cap on resident edge records, below m (0 = none).
  std::size_t budget_edges = 72000;
};

/// churn_serve: one sparse snapshot served by two workers.
struct ChurnConfig {
  std::size_t n = 2000;
  std::size_t m = 20000;
  double p = 3.0;
  double eps = 0.25;
  std::size_t solver_threads = 1;
  std::size_t workers = 2;
  std::size_t delta_edges = 20;  // k: half removals, half insertions
  std::size_t probes = 16;       // reads submitted with each resolve
  /// Fixed cycle count (0 = run for --seconds). The tiny self-test scale
  /// fixes it so that a seed reproduces the whole run.
  std::size_t cycles = 0;
};

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt) {
  return mix_combine(seed, salt);
}

core::SolverOptions solver_options(double p, double eps, std::uint64_t seed,
                                   std::size_t threads) {
  core::SolverOptions opt;
  opt.p = p;
  opt.eps = eps;
  opt.seed = seed;
  opt.oracle.threads = threads;
  return opt;
}


// ------------------------------------------------------------ dense_* -----

struct DenseSetup {
  Graph graph;
  std::string file;  // the instance as a DPEF file
  double generate_s = 0, write_s = 0;
  std::vector<double> setup_s;
};

/// Deletes a run's scratch file however the run ends.
struct RemoveOnExit {
  std::string path;
  ~RemoveOnExit() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove(path, ec);
  }
};

/// Creates the instance from the seed and writes it to `s.file`, once.
/// Setup then loads it from there (dense_setup): generating it is dominated
/// by hash-set inserts whose speed swung 35-45% between sets of runs on a
/// shared host while solve_s moved 13%; loading is a sequential decode.
Graph dense_create(const Args& args, const DenseConfig& cfg, DenseSetup& s) {
  const std::int64_t t0 = now_ns();
  Graph g = gen::gnm(cfg.n, cfg.m, sub_seed(args.seed, 1));
  gen::weight_uniform(g, 1.0, 16.0, sub_seed(args.seed, 2));
  const std::int64_t t1 = now_ns();
  stream::write_edge_file(s.file, g);
  s.generate_s = secs(t1 - t0);
  s.write_s = secs(now_ns() - t1);
  return g;
}

/// One setup batch: loads the instance from its DPEF file (header, size and
/// every block checksum validated) kDenseSetupBatch times and adds the
/// batch's mean time to `s`; keeps the last copy.
void dense_setup(DenseSetup& s) {
  const std::int64_t t0 = now_ns();
  for (int rep = 0; rep < kDenseSetupBatch; ++rep) {
    s.graph = stream::read_edge_file(s.file);
  }
  s.setup_s.push_back(secs(now_ns() - t0) / kDenseSetupBatch);
}

/// Edge-for-edge equality of two graphs.
bool same_graph(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices() ||
      a.num_edges() != b.num_edges()) {
    return false;
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    const Edge& x = a.edge(e);
    const Edge& y = b.edge(e);
    if (x.u != y.u || x.v != y.v || bits(x.w) != bits(y.w)) return false;
  }
  return true;
}

/// One untraced solve: through the file-backed streaming substrate when
/// `file` is set (prefetch on, resident-edge budget `budget`), else on the
/// solver's own in-memory substrate. Opening the file is part of the solve.
core::SolverResult timed_solve(const Graph& g, core::SolverOptions opt,
                               const std::string& file, std::size_t budget,
                               double* seconds) {
  const std::int64_t t0 = now_ns();
  access::StreamingSubstrate streaming;
  if (!file.empty()) {
    streaming.attach_source(
        stream::EdgeSource(std::make_shared<stream::EdgeFileStream>(file)));
    opt.substrate = &streaming;
    opt.memory_budget_edges = budget;
  }
  core::SolverResult r = core::solve_matching(g, opt);
  *seconds = secs(now_ns() - t0);
  return r;
}

/// A solve routed through the delegating TracedSubstrate, with the
/// counters it gathered.
struct TracedSolve {
  core::SolverResult result;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t retained = 0;
  std::size_t sweeps = 0;
  std::int64_t kernel_ns = 0;
  std::int64_t fetch_ns = 0;
  std::uint64_t fetch_calls = 0;
  std::uint64_t stored_attr_calls = 0;
  std::vector<std::vector<Edge>> unions;  // every 10th round's stored union
  int span = -1;  // the solve's span in the log

  double seconds() const { return secs(end_ns - start_ns); }
};

TracedSolve traced_solve(const Graph& g, core::SolverOptions opt,
                         const std::string& file, std::size_t budget,
                         perfbench::SpanLog& log) {
  TracedSolve out;
  out.start_ns = now_ns();
  access::InMemorySubstrate mem;
  access::StreamingSubstrate streaming;
  perfbench::TracedSubstrate traced(
      file.empty() ? static_cast<access::Substrate&>(mem) : streaming, log);
  if (!file.empty()) {
    traced.attach_source(
        stream::EdgeSource(std::make_shared<stream::EdgeFileStream>(file)));
    opt.memory_budget_edges = budget;
  }
  traced.capture_unions(10);
  opt.substrate = &traced;
  out.result = core::solve_matching(g, opt);
  out.end_ns = now_ns();
  out.retained = traced.num_retained();
  out.sweeps = traced.sweeps();
  out.kernel_ns = traced.kernel_busy_ns();
  out.fetch_ns = traced.fetch_ns();
  out.fetch_calls = traced.fetch_calls();
  out.stored_attr_calls = traced.stored_attr_calls();
  out.unions = traced.captured_unions();
  out.span = log.add(perfbench::Span{"core.solve", out.start_ns, out.end_ns,
                                     -1, -1, 0, -1});
  return out;
}

/// Round-stage times of one traced solve, cut at the substrate call
/// boundaries the main thread crosses (sweep, draw, release_stored).
/// Round r runs from its sweep to the next sweep. With the solver's
/// cross-round pipelining the merge of round r (and its release_stored)
/// lands after the sweep of round r + 1; refine_merge of round r is
/// therefore "draw end -> release end" minus that sweep.
struct StageTimes {
  double open_round = 0, multipliers = 0, refine_merge = 0, between = 0;
  double sweep = 0, draw = 0, union_s = 0;
  std::vector<double> round_s;
  std::vector<double> refine_merge_per_round;
};

StageTimes analyse_rounds(perfbench::SpanLog& log, const TracedSolve& ts) {
  const std::vector<perfbench::Span> all = log.spans();
  std::vector<int> sweeps, draws, releases, access;
  StageTimes st;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const perfbench::Span& s = all[i];
    if (s.start_ns < ts.start_ns || s.end_ns > ts.end_ns) continue;
    const double d = secs(s.end_ns - s.start_ns);
    const int idx = static_cast<int>(i);
    if (s.name.rfind("access.", 0) == 0) access.push_back(idx);
    if (s.name == "access.sweep") {
      sweeps.push_back(idx);
      st.sweep += d;
    } else if (s.name == "access.draw") {
      draws.push_back(idx);
      st.draw += d;
    } else if (s.name == "access.release") {
      releases.push_back(idx);
    } else if (s.name == "access.union") {
      st.union_s += d;
    }
  }
  const auto span = [&](int i) -> const perfbench::Span& {
    return all[static_cast<std::size_t>(i)];
  };
  // First span in `v` that starts at or after `t`, or -1.
  const auto first_after = [&](const std::vector<int>& v, std::int64_t t) {
    for (int i : v) {
      if (span(i).start_ns >= t) return i;
    }
    return -1;
  };
  std::vector<std::pair<perfbench::Span, int>> rounds;  // span, log index
  for (int d : draws) {
    const perfbench::Span& dr = span(d);
    int sw = -1;
    for (int i : sweeps) {
      if (span(i).end_ns <= dr.start_ns) sw = i;
    }
    if (sw < 0) continue;
    const perfbench::Span& open = span(sw);
    std::int64_t mult_from = open.end_ns;
    for (int i : releases) {
      if (span(i).start_ns >= open.end_ns && span(i).end_ns <= dr.start_ns) {
        mult_from = span(i).end_ns;
      }
    }
    const int next = first_after(sweeps, dr.end_ns);
    const int rel = first_after(releases, dr.end_ns);
    const std::int64_t round_end =
        next >= 0 ? span(next).start_ns
                  : (rel >= 0 ? span(rel).end_ns : dr.end_ns);
    st.open_round += secs(open.end_ns - open.start_ns);
    st.multipliers += secs(dr.start_ns - mult_from);
    if (rel >= 0) {
      std::int64_t rm = span(rel).end_ns - dr.end_ns;
      if (next >= 0 && span(next).start_ns < span(rel).start_ns) {
        rm -= span(next).end_ns - span(next).start_ns;
      }
      st.refine_merge += secs(rm);
      st.refine_merge_per_round.push_back(secs(rm));
      if (next >= 0 && span(rel).end_ns <= span(next).start_ns) {
        st.between += secs(span(next).start_ns - span(rel).end_ns);
      }
    }
    st.round_s.push_back(secs(round_end - open.start_ns));
    // Trace structure: round -> {sweep, multipliers, draw, refine}.
    const perfbench::Span round_span{"core.round", open.start_ns, round_end,
                                     ts.span, dr.id, 0, -1};
    const int round = log.add(round_span);
    rounds.emplace_back(round_span, round);
    log.add(perfbench::Span{"core.multipliers", mult_from, dr.start_ns,
                            round, dr.id, 0, -1});
    log.add(perfbench::Span{"core.refine", dr.end_ns,
                            next >= 0 ? span(next).start_ns : round_end,
                            round, dr.id, 0, -1});
  }
  // Each access call's parent is the round whose window it starts in (the
  // offline job's union materialization included), else the solve.
  for (int i : access) {
    int parent = ts.span;
    for (const auto& [r, index] : rounds) {
      if (span(i).start_ns >= r.start_ns && span(i).start_ns < r.end_ns) {
        parent = index;
      }
    }
    log.set_parent(i, parent);
  }
  return st;
}

/// Median time of approx_weighted_matching (the offline re-solve's
/// algorithm, default options as in SolverOptions::offline) on each
/// captured stored union.
double replay_offline(std::size_t n, const std::vector<std::vector<Edge>>& us) {
  std::vector<double> times;
  for (const std::vector<Edge>& edges : us) {
    Graph sub(n);
    for (const Edge& e : edges) sub.add_edge(e.u, e.v, e.w);
    const std::int64_t t0 = now_ns();
    approx_weighted_matching(sub, ApproxOptions{});
    times.push_back(secs(now_ns() - t0));
  }
  return median(times);
}

void put_traced_core(Report& rep, perfbench::SpanLog& log,
                     const TracedSolve& ts, std::size_t n) {
  const StageTimes st = analyse_rounds(log, ts);
  const ResourceMeter& meter = ts.result.meter;
  const double kernel_s = secs(ts.kernel_ns);
  // Computed bytes per sweep: each retained edge's attribute record read
  // plus its ratio written.
  const double sweep_bytes =
      static_cast<double>(ts.sweeps) * static_cast<double>(ts.retained) *
      static_cast<double>(sizeof(access::RetainedEdge) + sizeof(double));
  rep.put("access.sweep_s", st.sweep);
  rep.put("access.kernel_s", kernel_s);
  rep.put("access.sweep_gbps_computed", ratio(sweep_bytes, st.sweep) / 1e9);
  rep.put("access.draw_s", st.draw);
  rep.put("access.fetch_s", secs(ts.fetch_ns));
  rep.put("access.fetch_calls", static_cast<double>(ts.fetch_calls));
  rep.put("access.stored_attr_calls",
          static_cast<double>(ts.stored_attr_calls));
  rep.put("access.union_s", st.union_s);
  rep.put("access.peak_resident_edges",
          static_cast<double>(meter.peak_resident_edges()));
  rep.put("core.round_s_p50", median(st.round_s));
  rep.put("core.round_s_p95", percentile(st.round_s, 0.95));
  rep.put("core.open_round_s", st.open_round);
  rep.put("core.multipliers_s", st.multipliers);
  rep.put("core.refine_merge_s", st.refine_merge);
  rep.put("core.between_rounds_s", st.between);
  rep.put("core.oracle_calls", static_cast<double>(meter.oracle_calls()));
  rep.put("core.inner_iterations",
          static_cast<double>(meter.inner_iterations()));
  rep.put("core.max_flows", static_cast<double>(meter.max_flows()));
  rep.put("core.gh_incremental", static_cast<double>(meter.gh_incremental()));
  const double offline_s = replay_offline(n, ts.unions);
  rep.put("matching.offline_s", offline_s);
  rep.put("matching.offline_critical_share",
          ratio(offline_s, median(st.refine_merge_per_round)));
}

/// Solves at 1, 2 and 4 threads (bitwise-checked against `ref`) and puts
/// the speed-ups over the 1-thread solve. `ref_s` is `ref`'s time at
/// `ref_threads`.
void put_speedups(Report& rep, const Graph& g, const core::SolverResult& ref,
                  double ref_s, std::size_t ref_threads,
                  const core::SolverOptions& base, const std::string& file,
                  std::size_t budget) {
  double t[5] = {0, 0, 0, 0, 0};
  t[ref_threads] = ref_s;
  for (const std::size_t threads : {1, 2, 4}) {
    if (threads == ref_threads) continue;
    core::SolverOptions opt = base;
    opt.oracle.threads = threads;
    const core::SolverResult r = timed_solve(g, opt, file, budget, &t[threads]);
    std::string why;
    rep.op(same_result(ref, r, &why),
           std::to_string(threads) + "-thread solve differs from the " +
               std::to_string(ref_threads) + "-thread solve: " + why);
  }
  rep.put("core.speedup_2t", ratio(t[1], t[2]));
  rep.put("core.speedup_4t", ratio(t[1], t[4]));
}

void write_trace(Report& rep, const perfbench::SpanLog& log, const Args& args) {
  const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  rep.op(log.write_chrome_trace(path), "writing " + path);
  std::fprintf(stderr, "perfbench: wrote %s\n", path.c_str());
}

/// Checks one dense solve's output: completed, valid matching, certified
/// ratio in (0, 1]. --force-failure tampers with the reported value so the
/// check must fail.
void check_dense(Report& rep, const Args& args, const Graph& g,
                 const core::SolverResult& r, const std::string& label) {
  rep.op(r.status == core::SolverStatus::kComplete,
         label + ": solve did not complete");
  core::SolverResult shown = r;
  if (args.force_failure) shown.value *= 1.000001;
  std::string why;
  rep.op(valid_matching(g, shown, &why), label + ": " + why);
}

void run_dense(const Args& args, bool file, Report& rep) {
  DenseConfig cfg;
  if (args.tiny) {
    cfg.n = 150;
    cfg.m = 3000;
    cfg.budget_edges = 0;  // a tiny instance's sample exceeds m
  }
  DenseSetup s;
  s.file = args.out_dir + "/dense-" + std::to_string(args.seed) + ".dpef";
  const RemoveOnExit remove_file{s.file};
  {
    const Graph created = dense_create(args, cfg, s);
    dense_setup(s);
    rep.op(same_graph(created, s.graph),
           "instance loaded from its DPEF file differs from the generated one");
  }
  const Graph& g = s.graph;
  const std::size_t budget = file ? cfg.budget_edges : 0;
  const core::SolverOptions base =
      solver_options(cfg.p, cfg.eps, args.seed, cfg.threads);
  const auto same_as_memory = [&](const core::SolverResult& r) {
    // The control-pair contract: the file-backed solve equals the
    // in-memory one bitwise at the same seed.
    const core::SolverResult mem = core::solve_matching(g, base);
    rep.op(bits(mem.value) == bits(r.value) &&
               bits(mem.certified_ratio) == bits(r.certified_ratio),
           "dense_file value/certified_ratio differ from dense_mem");
  };

  if (!args.trace) {
    std::vector<double> times;
    core::SolverResult first;
    const std::int64_t start = now_ns();
    do {
      double t = 0;
      core::SolverResult r =
          timed_solve(g, base, file ? s.file : "", budget, &t);
      times.push_back(t);
      std::fprintf(stderr, "perfbench: solve %zu: %.3f s\n", times.size(), t);
      check_dense(rep, args, g, r, "solve " + std::to_string(times.size()));
      if (times.size() == 1) {
        first = std::move(r);
      } else {
        std::string why;
        rep.op(same_result(first, r, &why), "repeat solve differs: " + why);
      }
      dense_setup(s);
    } while (secs(now_ns() - start) < args.seconds);
    rep.put("peak_rss_mb", peak_rss_mb());
    if (file) same_as_memory(first);
    rep.put("setup_s", median(s.setup_s));
    rep.put("solve_s", median(times));
    rep.put("certified_ratio", first.certified_ratio);
    rep.put("rounds", static_cast<double>(first.outer_rounds));
    rep.put("passes", static_cast<double>(first.meter.passes()));
    rep.put("peak_stored_per_m",
            ratio(static_cast<double>(first.meter.peak_edges()),
                  static_cast<double>(g.num_edges())));
    rep.put("ops_per_s", ratio(1.0, median(times)));  // at the median solve
    rep.put("certify_p50_ms", median(times) * 1e3);
    return;
  }

  rep.put("graph.generate_s", s.generate_s);
  rep.put("stream.write_s", s.write_s);
  double untraced_s = 0;
  const core::SolverResult r0 =
      timed_solve(g, base, file ? s.file : "", budget, &untraced_s);
  check_dense(rep, args, g, r0, "untraced solve");
  perfbench::SpanLog log;
  const TracedSolve ts = traced_solve(g, base, file ? s.file : "", budget, log);
  std::string why;
  rep.op(same_result(r0, ts.result, &why),
         "traced solve differs from untraced: " + why);
  put_traced_core(rep, log, ts, cfg.n);
  put_speedups(rep, g, r0, untraced_s, cfg.threads, base, file ? s.file : "",
               budget);
  if (file) {
    same_as_memory(r0);
    const ResourceMeter& meter = r0.meter;
    const double hits = static_cast<double>(meter.prefetch_hits());
    const double stalls = static_cast<double>(meter.io_stalls());
    rep.put("stream.bytes_per_edge_pass",
            ratio(static_cast<double>(meter.io_bytes()),
                  static_cast<double>(g.num_edges()) *
                      static_cast<double>(meter.passes())));
    rep.put("stream.prefetch_hits", hits);
    rep.put("stream.io_stalls", stalls);
    rep.put("stream.stall_share", ratio(stalls, stalls + hits));
    // One standalone sequential scan of the file (page cache warm).
    std::vector<double> rates;
    for (int rep_i = 0; rep_i < 3; ++rep_i) {
      stream::EdgeFileStream fs(s.file);
      double sum = 0;
      const std::int64_t t0 = now_ns();
      fs.for_each([&sum](EdgeId, const Edge& e) { sum += e.w; });
      const double t = secs(now_ns() - t0);
      const double bytes = static_cast<double>(
          stream::kEdgeFileHeaderBytes +
          fs.num_edges() * stream::kEdgeRecordBytes + fs.num_blocks() * 8);
      rates.push_back(sum > 0 ? ratio(bytes / 1e6, t) : 0.0);
    }
    rep.put("stream.scan_mb_per_s", median(rates));
  }
  rep.put("trace.solve_s_untraced", untraced_s);
  rep.put("trace.solve_s_traced", ts.seconds());
  rep.put("trace.overhead_s", ts.seconds() - untraced_s);
  write_trace(rep, log, args);
}

// ---------------------------------------------------------- churn_serve ---

/// The client's copy of the snapshot's live edge set, from which it draws
/// deltas that remove existing edges and insert absent ones.
struct LiveEdges {
  std::vector<dyn::EdgeInsert> edges;
  std::unordered_set<std::uint64_t> keys;
};

/// Integer weights in [1, 16], so the maximum weight W* (and with it the
/// level structure the warm path depends on) survives edge churn.
Graph churn_graph(const ChurnConfig& cfg, std::uint64_t seed,
                  LiveEdges& live) {
  const Graph shape = gen::gnm(cfg.n, cfg.m, sub_seed(seed, 1));
  Rng rng(sub_seed(seed, 2));
  Graph g(cfg.n);
  live = LiveEdges{};
  for (const Edge& e : shape.edges()) {
    const double w = 1.0 + static_cast<double>(rng.uniform(16));
    g.add_edge(e.u, e.v, w);
    live.edges.push_back(dyn::EdgeInsert{std::min(e.u, e.v),
                                         std::max(e.u, e.v), w});
    live.keys.insert(dyn::edge_key(e.u, e.v));
  }
  return g;
}

dyn::EdgeDelta next_delta(LiveEdges& live, Rng& rng, std::size_t n,
                          std::size_t k) {
  dyn::EdgeDelta d;
  std::unordered_set<std::uint64_t> removed;
  for (std::size_t i = 0; i < k / 2 && !live.edges.empty(); ++i) {
    const std::size_t at = rng.uniform(live.edges.size());
    const dyn::EdgeInsert e = live.edges[at];
    d.removes.push_back(dyn::EdgeRemove{e.u, e.v});
    removed.insert(dyn::edge_key(e.u, e.v));
    live.keys.erase(dyn::edge_key(e.u, e.v));
    live.edges[at] = live.edges.back();
    live.edges.pop_back();
  }
  while (d.inserts.size() < k - k / 2) {
    const auto u = static_cast<Vertex>(rng.uniform(n));
    const auto v = static_cast<Vertex>(rng.uniform(n));
    const std::uint64_t key = dyn::edge_key(u, v);
    if (u == v || live.keys.count(key) != 0 || removed.count(key) != 0) {
      continue;
    }
    const dyn::EdgeInsert e{std::min(u, v), std::max(u, v),
                            1.0 + static_cast<double>(rng.uniform(16))};
    live.keys.insert(key);
    live.edges.push_back(e);
    d.inserts.push_back(e);
  }
  return d;
}

/// Per-class latency samples of the closed loop (ms).
struct ClassSamples {
  std::vector<double> total, queue, exec;

  void add(const serve::Response& r) {
    queue.push_back(static_cast<double>(r.queue_us) / 1e3);
    exec.push_back(static_cast<double>(r.exec_us) / 1e3);
    total.push_back(static_cast<double>(r.queue_us + r.exec_us) / 1e3);
  }
};

struct ChurnLoop {
  ClassSamples probe, resolve, delta;
  std::size_t requests = 0;
  std::size_t resolves_warm = 0;
  std::size_t resolve_rounds = 0;
  std::size_t queue_depth_max = 0;
  std::vector<double> cycle_s;  // wall time of each cycle
  serve::Response last_resolve;
  serve::ServiceStats stats;
};

/// The timed closed loop: each cycle applies one k-edge delta (a write),
/// then submits one resolve together with a burst of zipfian probes (reads)
/// and waits for all of them. Runs until --seconds have passed (or for
/// cfg.cycles cycles).
ChurnLoop churn_loop(const Args& args, const ChurnConfig& cfg, Report& rep,
                     serve::MatchingService& svc, std::size_t snapshot,
                     const Graph& base, LiveEdges& live,
                     dyn::DynamicGraph& mirror, perfbench::SpanLog* log) {
  ChurnLoop out;
  serve::WorkloadMix mix;
  mix.solve = 0.0;
  const serve::WorkloadGen reads(sub_seed(args.seed, 3), base, mix);
  Rng rng(sub_seed(args.seed, 4));
  std::uint64_t op = 0;
  std::size_t cycle = 0;
  const auto record = [&](const serve::Response& r, std::int64_t submitted,
                          ClassSamples& cls, const char* name) {
    ++out.requests;
    cls.add(r);
    if (log != nullptr) {
      const std::int64_t queued =
          submitted + static_cast<std::int64_t>(r.queue_us) * 1000;
      const std::int64_t done =
          queued + static_cast<std::int64_t>(r.exec_us) * 1000;
      const auto id = static_cast<std::int64_t>(out.requests);
      const int top = log->add(
          perfbench::Span{name, submitted, done, -1, id, 0, -1});
      log->add(perfbench::Span{"serve.queue", submitted, queued, top, id, 0,
                               -1});
      log->add(perfbench::Span{"serve.exec", queued, done, top, id, 0, -1});
    }
  };
  const std::int64_t start = now_ns();
  do {
    const std::int64_t t_cycle = now_ns();
    const dyn::EdgeDelta delta =
        next_delta(live, rng, cfg.n, cfg.delta_edges);
    mirror.apply(delta);
    serve::Request write;
    write.type = serve::RequestType::kApplyDelta;
    write.snapshot = snapshot;
    write.delta = std::make_shared<const dyn::EdgeDelta>(delta);
    const std::int64_t t_write = now_ns();
    const serve::Response applied = svc.submit(std::move(write)).wait();
    record(applied, t_write, out.delta, "serve.delta");
    rep.op(applied.status == serve::ResponseStatus::kOk,
           std::string("delta: ") +
               serve::response_status_name(applied.status));

    serve::Request resolve;
    resolve.type = serve::RequestType::kResolve;
    resolve.snapshot = snapshot;
    const std::int64_t t_burst = now_ns();
    const serve::ResponseTicket resolve_ticket = svc.submit(std::move(resolve));
    std::vector<serve::ResponseTicket> probes;
    for (std::size_t i = 0; i < cfg.probes; ++i, ++op) {
      serve::Request probe;
      probe.snapshot = snapshot;
      probe.u = reads.vertex(0, op);
      if (reads.kind(0, op) == serve::OpKind::kProbeEdge) {
        probe.type = serve::RequestType::kProbeEdge;
        const Vertex v = reads.neighbor_of(probe.u, 0, op);
        probe.v = v == serve::kNoNeighbor ? probe.u : v;
      } else {
        probe.type = serve::RequestType::kProbeRatio;
      }
      probes.push_back(svc.submit(std::move(probe)));
    }
    out.queue_depth_max = std::max(out.queue_depth_max, svc.queue_depth());

    const serve::Response r = resolve_ticket.wait();
    record(r, t_burst, out.resolve, "serve.resolve");
    rep.op(r.status == serve::ResponseStatus::kOk && r.certified &&
               r.certified_ratio > 0 && r.certified_ratio <= 1,
           std::string("resolve: ") + serve::response_status_name(r.status) +
               " " + r.detail);
    out.resolves_warm += r.warm_resolve ? 1 : 0;
    out.resolve_rounds += r.rounds_executed;
    out.last_resolve = r;
    for (const serve::ResponseTicket& ticket : probes) {
      const serve::Response p = ticket.wait();
      record(p, t_burst, out.probe, "serve.probe");
      rep.op(p.status == serve::ResponseStatus::kOk && p.certified,
             std::string("probe: ") + serve::response_status_name(p.status));
    }
    out.cycle_s.push_back(secs(now_ns() - t_cycle));
    ++cycle;
  } while (cfg.cycles != 0 ? cycle < cfg.cycles
                           : secs(now_ns() - start) < args.seconds);
  out.stats = svc.stats();
  return out;
}

void run_churn(const Args& args, Report& rep) {
  ChurnConfig cfg;
  if (args.tiny) {
    cfg.n = 300;
    cfg.m = 1500;
    cfg.delta_edges = 6;
    cfg.probes = 8;
    cfg.cycles = 20;
  }
  const core::SolverOptions base =
      solver_options(cfg.p, cfg.eps, args.seed, cfg.solver_threads);
  serve::ServiceOptions sopt;
  sopt.workers = cfg.workers;
  sopt.solver = base;

  // Setup: generate the snapshot, start the service, and run the initial
  // certified solve that later resolves warm-start from.
  std::vector<double> setup_s, generate_s;
  std::unique_ptr<serve::MatchingService> svc;
  std::size_t snapshot = 0;
  Graph g;
  LiveEdges live;
  for (int rep_i = 0; rep_i < kChurnSetupReps; ++rep_i) {
    svc.reset();
    const std::int64_t t0 = now_ns();
    g = churn_graph(cfg, args.seed, live);
    const std::int64_t t1 = now_ns();
    svc = std::make_unique<serve::MatchingService>(sopt);
    snapshot = svc->add_snapshot(g);
    serve::Request solve;
    solve.type = serve::RequestType::kSolve;
    solve.snapshot = snapshot;
    const serve::Response r = svc->submit(std::move(solve)).wait();
    const std::int64_t t2 = now_ns();
    rep.op(r.status == serve::ResponseStatus::kOk && r.certified,
           std::string("initial solve: ") +
               serve::response_status_name(r.status));
    generate_s.push_back(secs(t1 - t0));
    setup_s.push_back(secs(t2 - t0));
  }

  dyn::DynamicGraph mirror{Graph(g)};
  perfbench::SpanLog log;
  const ChurnLoop loop = churn_loop(args, cfg, rep, *svc, snapshot, g, live,
                                    mirror, args.trace ? &log : nullptr);
  if (!args.trace) rep.put("peak_rss_mb", peak_rss_mb());
  svc.reset();

  // Check: a from-scratch solve of the final snapshot equals the last warm
  // resolve bitwise (value and certified ratio).
  const std::shared_ptr<const Graph> final_graph = mirror.materialize();
  core::SolverOptions scratch_opt = base;
  scratch_opt.graph_generation = mirror.generation();
  double scratch_s = 0;
  const core::SolverResult scratch =
      timed_solve(*final_graph, scratch_opt, "", 0, &scratch_s);
  std::string why;
  rep.op(scratch.status == core::SolverStatus::kComplete &&
             valid_matching(*final_graph, scratch, &why),
         "final scratch solve: " + why);
  double shown_value = loop.last_resolve.value;
  if (args.force_failure) shown_value *= 1.000001;
  rep.op(bits(shown_value) == bits(scratch.value) &&
             bits(loop.last_resolve.certified_ratio) ==
                 bits(scratch.certified_ratio),
         "last warm resolve differs from a from-scratch solve of the final "
         "snapshot");

  const auto n_resolves = static_cast<double>(loop.resolve.total.size());
  if (!args.trace) {
    // solve_s: from-scratch solves of the initial snapshot, which the seed
    // fixes; the final snapshot depends on how many cycles the loop ran.
    std::vector<double> times(kChurnScratchSolves);
    const core::SolverResult initial = timed_solve(g, base, "", 0, &times[0]);
    rep.op(initial.status == core::SolverStatus::kComplete &&
               valid_matching(g, initial, &why),
           "initial scratch solve: " + why);
    for (std::size_t i = 1; i < times.size(); ++i) {
      rep.op(same_result(initial, timed_solve(g, base, "", 0, &times[i]), &why),
             "repeat scratch solve differs: " + why);
    }
    rep.put("setup_s", median(setup_s));
    rep.put("solve_s", median(times));
    rep.put("certified_ratio", loop.last_resolve.certified_ratio);
    rep.put("rounds", static_cast<double>(initial.outer_rounds));
    rep.put("passes", static_cast<double>(initial.meter.passes()));
    rep.put("peak_stored_per_m",
            ratio(static_cast<double>(initial.meter.peak_edges()),
                  static_cast<double>(g.num_edges())));
    // Requests per cycle over the median cycle time: a few cycles stalled
    // by the host do not move it, as they would requests / loop seconds.
    const double per_cycle = ratio(static_cast<double>(loop.requests),
                                   static_cast<double>(loop.cycle_s.size()));
    rep.put("ops_per_s", ratio(per_cycle, median(loop.cycle_s)));
    rep.put("certify_p50_ms", median(loop.resolve.total));
    return;
  }

  rep.put("graph.generate_s", median(generate_s));
  rep.put("dynamic.apply_exec_ms", median(loop.delta.exec));
  rep.put("dynamic.resolve_exec_ms", median(loop.resolve.exec));
  rep.put("dynamic.rounds_per_resolve",
          ratio(static_cast<double>(loop.resolve_rounds), n_resolves));
  rep.put("dynamic.warm_share",
          ratio(static_cast<double>(loop.resolves_warm), n_resolves));
  rep.put("serve.probe_ms_p50", median(loop.probe.total));
  rep.put("serve.probe_ms_p99", percentile(loop.probe.total, 0.99));
  rep.put("serve.resolve_ms_p95", percentile(loop.resolve.total, 0.95));
  rep.put("serve.delta_ms_p50", median(loop.delta.total));
  rep.put("serve.samples_probe", static_cast<double>(loop.probe.total.size()));
  rep.put("serve.samples_resolve", n_resolves);
  rep.put("serve.samples_delta", static_cast<double>(loop.delta.total.size()));
  rep.put("serve.queue_ms_p50_probe", median(loop.probe.queue));
  rep.put("serve.queue_ms_p99_probe", percentile(loop.probe.queue, 0.99));
  rep.put("serve.queue_ms_p50_resolve", median(loop.resolve.queue));
  rep.put("serve.queue_ms_p99_resolve", percentile(loop.resolve.queue, 0.99));
  rep.put("serve.queue_ms_p50_delta", median(loop.delta.queue));
  rep.put("serve.queue_ms_p99_delta", percentile(loop.delta.queue, 0.99));
  rep.put("serve.exec_ms_p50_probe", median(loop.probe.exec));
  rep.put("serve.exec_ms_p50_resolve", median(loop.resolve.exec));
  rep.put("serve.exec_ms_p50_delta", median(loop.delta.exec));
  rep.put("serve.queue_depth_max", static_cast<double>(loop.queue_depth_max));
  rep.put("serve.shed", static_cast<double>(loop.stats.shed));
  rep.put("serve.not_ready", static_cast<double>(loop.stats.not_ready));

  // The scratch solve of the final snapshot, traced: the core and access
  // layers on the sparse instance, and the thread scaling of that solve.
  const TracedSolve ts =
      traced_solve(*final_graph, scratch_opt, "", 0, log);
  rep.op(same_result(scratch, ts.result, &why),
         "traced scratch solve differs from untraced: " + why);
  put_traced_core(rep, log, ts, cfg.n);
  put_speedups(rep, *final_graph, scratch, scratch_s, cfg.solver_threads,
               scratch_opt, "", 0);
  rep.put("trace.solve_s_untraced", scratch_s);
  rep.put("trace.solve_s_traced", ts.seconds());
  rep.put("trace.overhead_s", ts.seconds() - scratch_s);
  write_trace(rep, log, args);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench_harness --workload "
                 "dense_mem|dense_file|churn_serve --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--scale full|tiny] "
                 "[--force-failure]\n",
                 e.what());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  Report rep(args.trace);
  try {
    if (args.workload == "churn_serve") {
      run_churn(args, rep);
    } else {
      run_dense(args, args.workload == "dense_file", rep);
    }
  } catch (const std::exception& e) {
    rep.op(false, std::string("exception: ") + e.what());
  }
  if (!args.trace) rep.put("ok_share", rep.ok_share());
  rep.print();
  return 0;
}
