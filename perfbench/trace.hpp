#pragma once
// Benchmark-side tracing: an in-memory span log written out as Chrome
// trace-event JSON, and a delegating access::Substrate that timestamps every
// virtual call into the real backend it wraps.
//
// Everything here lives in the benchmark: it observes the library only
// through its public seams (the Substrate virtuals and the SweepKernel
// callbacks the round pipeline hands to them), so a traced solve runs the
// exact code of an untraced one. The traced run checks that claim bitwise.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "access/substrate.hpp"

namespace perfbench {

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;        // index into the log, -1 = top level
  std::int64_t id = -1;   // round or request id, -1 = none
  std::uint32_t tid = 0;  // small per-thread index
  /// Time inside this span spent in work that is not recorded as child
  /// spans (sweep kernel callbacks: too many to log one by one).
  std::int64_t busy_ns = -1;  // -1 = not measured
};

/// Thread-safe span store. Spans stay in memory until write_chrome_trace.
class SpanLog {
 public:
  /// Appends a span and returns its index.
  int add(Span span);
  /// Sets the parent of span `child`.
  void set_parent(int child, int parent);
  std::vector<Span> spans() const;

  /// Writes the log as Chrome trace-event JSON ("X" complete events). Each
  /// event carries its parent, id and self time: its duration minus the
  /// part of it that its child spans cover. Returns false on an IO error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::uint32_t thread_index();

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::thread::id> thread_ids_;  // index = Span::tid
};

/// Wall time during which at least one callback is running. Callbacks may
/// run on several pool threads at once; overlapping calls count once.
class BusyClock {
 public:
  void enter();
  void exit();
  std::int64_t busy_ns() const;

 private:
  mutable std::mutex mu_;
  int active_ = 0;
  std::int64_t since_ns_ = 0;
  std::int64_t busy_ns_ = 0;
};

/// Delegating substrate. Forwards every virtual to `inner` and records one
/// span per main-thread call (sweep, draw, release_stored) and per stored
/// union materialization (the offline job's thread), plus aggregate time
/// and call counts for the per-index calls (fetch_edges, stored_attr).
///
/// It takes the same pipeline path as the backend it wraps: table-backed
/// when the source is in memory (its own bind() materializes the identical
/// retained table, which the pipeline reads directly), table-free when the
/// source is file-backed. Its meter mirrors the inner meter after every
/// forwarded call that can charge it, so the solver folds the backend's
/// own accounting into SolverResult::meter.
class TracedSubstrate final : public dp::access::Substrate {
 public:
  /// `inner` and `log` must outlive this substrate. Call attach_source on
  /// this object (it forwards the source at bind time).
  TracedSubstrate(dp::access::Substrate& inner, SpanLog& log);

  dp::access::SubstrateKind kind() const noexcept override {
    return inner_.kind();
  }
  const char* name() const noexcept override { return inner_.name(); }
  bool accepts_file_source() const noexcept override {
    return inner_.accepts_file_source();
  }

  void multiplier_sweep(const dp::access::SweepKernel& kernel) override;
  const dp::core::SamplingRound& draw(const std::vector<double>& prob,
                                      std::size_t t, std::uint64_t round,
                                      std::uint64_t seed) override;
  dp::access::RetainedEdge stored_attr(std::uint32_t idx) const override;
  void fetch_edges(const std::uint32_t* idxs, std::size_t count,
                   dp::Edge* out) const override;
  void materialize_union(const std::vector<std::uint32_t>& indices,
                         std::vector<dp::EdgeId>& ids,
                         std::vector<dp::Edge>& edges) const override;
  void release_stored(std::size_t k) override;

  /// Keep a copy of the stored union of every round whose index is a
  /// multiple of `stride` (0 = none), for replaying the offline matching.
  void capture_unions(std::size_t stride) { capture_stride_ = stride; }
  const std::vector<std::vector<dp::Edge>>& captured_unions() const {
    return captured_;
  }

  std::int64_t kernel_busy_ns() const { return kernel_busy_ns_; }
  std::int64_t fetch_ns() const { return fetch_ns_.load(); }
  std::uint64_t fetch_calls() const { return fetch_calls_.load(); }
  std::uint64_t stored_attr_calls() const { return stored_attr_calls_.load(); }
  std::size_t sweeps() const { return sweeps_; }

 protected:
  bool materializes_table() const noexcept override {
    return !source().file_backed();
  }
  void on_bind() override;

 private:
  void sync_meter() { meter_ = inner_.meter(); }

  dp::access::Substrate& inner_;
  SpanLog& log_;
  std::int64_t round_ = -1;  // round of the latest draw
  std::size_t sweeps_ = 0;
  std::int64_t kernel_busy_ns_ = 0;
  std::size_t capture_stride_ = 0;
  mutable std::mutex capture_mu_;
  mutable std::vector<std::vector<dp::Edge>> captured_;
  mutable std::atomic<std::int64_t> fetch_ns_{0};
  mutable std::atomic<std::uint64_t> fetch_calls_{0};
  mutable std::atomic<std::uint64_t> stored_attr_calls_{0};
};

}  // namespace perfbench
