#include "access/in_memory.hpp"

#include "util/thread_pool.hpp"

namespace dp::access {

void InMemorySubstrate::on_bind() {
  engine_ = core::SamplingEngine(pool_, grain_);
}

void InMemorySubstrate::multiplier_sweep(const SweepKernel& kernel) {
  // RAM model: random access is free; only rounds and stored edges are
  // model quantities, so the sweep charges nothing. The stop is polled at
  // access entry only — never from inside pool worker lambdas, where an
  // exception could not unwind safely.
  poll_stop("mem.sweep");
  const RetainedEdge* edges = table_.data();
  run_chunks(pool_, 0, table_.size(), grain_,
             [&](std::size_t, std::size_t lo, std::size_t hi) {
               kernel(lo, hi, edges + lo);  // base-relative span
             });
}

const core::SamplingRound& InMemorySubstrate::draw(
    const std::vector<double>& prob, std::size_t t, std::uint64_t round,
    std::uint64_t seed) {
  poll_stop("mem.draw");
  const core::SamplingRound& draws = engine_.draw(prob, t, round, seed);
  meter_.add_rounds();
  meter_.add_passes();
  meter_.add_stored_edges(draws.stored_total());
  return draws;
}

}  // namespace dp::access
