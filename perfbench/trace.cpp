#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>

namespace perfbench {

std::uint32_t SpanLog::thread_index() {
  const std::thread::id self = std::this_thread::get_id();
  for (std::size_t i = 0; i < thread_ids_.size(); ++i) {
    if (thread_ids_[i] == self) return static_cast<std::uint32_t>(i);
  }
  thread_ids_.push_back(self);
  return static_cast<std::uint32_t>(thread_ids_.size() - 1);
}

int SpanLog::add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  span.tid = thread_index();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::set_parent(int child, int parent) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(child)].parent = parent;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

namespace {

/// Length of the union of the intervals, clipped to [lo, hi).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                        std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (auto [s, e] : iv) {
    s = std::max(s, reach);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      reach = e;
    }
  }
  return covered;
}

}  // namespace

bool SpanLog::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      all.size());
  std::int64_t origin = all.empty() ? 0 : all.front().start_ns;
  for (const Span& s : all) {
    origin = std::min(origin, s.start_ns);
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::int64_t inside = covered_ns(children[i], s.start_ns, s.end_ns);
    if (s.busy_ns >= 0) inside += s.busy_ns;
    const std::int64_t self = std::max<std::int64_t>(
        0, s.end_ns - s.start_ns - inside);
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %d, \"id\": %lld, \"self_us\": %.3f",
                 s.name.c_str(), s.tid,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, static_cast<long long>(s.id),
                 static_cast<double>(self) / 1e3);
    if (s.busy_ns >= 0) {
      std::fprintf(f, ", \"kernel_us\": %.3f",
                   static_cast<double>(s.busy_ns) / 1e3);
    }
    std::fprintf(f, "}}%s\n", i + 1 == all.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void BusyClock::enter() {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_++ == 0) since_ns_ = now_ns();
}

void BusyClock::exit() {
  std::lock_guard<std::mutex> lock(mu_);
  if (--active_ == 0) busy_ns_ += now_ns() - since_ns_;
}

std::int64_t BusyClock::busy_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return busy_ns_;
}

TracedSubstrate::TracedSubstrate(dp::access::Substrate& inner, SpanLog& log)
    : inner_(inner), log_(log) {}

void TracedSubstrate::on_bind() {
  // The solver installed budget, faults and stop on this object; the
  // backend that does the work needs them, and the source, before its own
  // bind.
  inner_.attach_source(source());
  inner_.set_memory_budget(memory_budget());
  inner_.set_fault_plan(fault_plan());
  inner_.set_stop(stop_);
  inner_.bind(*g_, *lg_, pool_, grain_);
  sync_meter();
  round_ = -1;
  sweeps_ = 0;
  kernel_busy_ns_ = 0;
  captured_.clear();
}

void TracedSubstrate::multiplier_sweep(const dp::access::SweepKernel& kernel) {
  BusyClock busy;
  const dp::access::SweepKernel timed =
      [&kernel, &busy](std::size_t lo, std::size_t hi,
                       const dp::access::RetainedEdge* edges) {
        busy.enter();
        kernel(lo, hi, edges);
        busy.exit();
      };
  Span span{"access.sweep", now_ns(), 0, -1,
            static_cast<std::int64_t>(sweeps_), 0, 0};
  inner_.multiplier_sweep(timed);
  span.end_ns = now_ns();
  span.busy_ns = busy.busy_ns();
  kernel_busy_ns_ += span.busy_ns;
  ++sweeps_;
  sync_meter();
  log_.add(std::move(span));
}

const dp::core::SamplingRound& TracedSubstrate::draw(
    const std::vector<double>& prob, std::size_t t, std::uint64_t round,
    std::uint64_t seed) {
  round_ = static_cast<std::int64_t>(round);
  Span span{"access.draw", now_ns(), 0, -1, round_, 0, -1};
  const dp::core::SamplingRound& out = inner_.draw(prob, t, round, seed);
  span.end_ns = now_ns();
  sync_meter();
  log_.add(std::move(span));
  return out;
}

dp::access::RetainedEdge TracedSubstrate::stored_attr(std::uint32_t idx) const {
  stored_attr_calls_.fetch_add(1, std::memory_order_relaxed);
  return inner_.stored_attr(idx);
}

void TracedSubstrate::fetch_edges(const std::uint32_t* idxs, std::size_t count,
                                  dp::Edge* out) const {
  const std::int64_t start = now_ns();
  inner_.fetch_edges(idxs, count, out);
  fetch_ns_.fetch_add(now_ns() - start, std::memory_order_relaxed);
  fetch_calls_.fetch_add(1, std::memory_order_relaxed);
}

void TracedSubstrate::materialize_union(
    const std::vector<std::uint32_t>& indices, std::vector<dp::EdgeId>& ids,
    std::vector<dp::Edge>& edges) const {
  // Runs on the offline job's thread. round_ was written by the draw that
  // froze this union, before the job was submitted.
  Span span{"access.union", now_ns(), 0, -1, round_, 0, -1};
  inner_.materialize_union(indices, ids, edges);
  span.end_ns = now_ns();
  log_.add(std::move(span));
  if (capture_stride_ != 0 &&
      round_ % static_cast<std::int64_t>(capture_stride_) == 0) {
    std::lock_guard<std::mutex> lock(capture_mu_);
    captured_.push_back(edges);
  }
}

void TracedSubstrate::release_stored(std::size_t k) {
  Span span{"access.release", now_ns(), 0, -1, round_, 0, -1};
  inner_.release_stored(k);
  span.end_ns = now_ns();
  sync_meter();
  log_.add(std::move(span));
}

}  // namespace perfbench
