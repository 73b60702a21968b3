#include "core/sampling.hpp"

#include <utility>

#include "sparsify/deferred.hpp"
#include "util/error.hpp"

namespace dp::core {

namespace {

void check_t(std::size_t t) {
  if (t > kMaxSparsifiersPerRound) {
    throw ConfigError("SamplingEngine: at most 32 sparsifiers per round");
  }
}

/// Mask sweep with t lifted to a compile-time constant: the q-loop inside
/// sampling_mask fully unrolls and its independent mix chains pipeline
/// (~1.7x over the runtime-t loop). The expression evaluated per (q, idx)
/// is exactly sampling_mask's, so the draws stay bitwise identical to the
/// generic runtime-t path the streaming and MapReduce substrates evaluate.
template <std::size_t T>
void mask_sweep_fixed(const CounterRng& round_rng, const double* prob,
                      std::uint32_t* masks, std::size_t lo, std::size_t hi) {
  for (std::size_t idx = lo; idx < hi; ++idx) {
    masks[idx] = sampling_mask(round_rng, T, idx, prob[idx]);
  }
}

void mask_sweep(const CounterRng& round_rng, std::size_t t,
                const double* prob, std::uint32_t* masks, std::size_t lo,
                std::size_t hi) {
  const bool dispatched = [&]<std::size_t... Ts>(
                              std::index_sequence<Ts...>) {
    return (((t == Ts + 1)
                 ? (mask_sweep_fixed<Ts + 1>(round_rng, prob, masks, lo, hi),
                    true)
                 : false) ||
            ...);
  }(std::make_index_sequence<24>{});
  if (!dispatched) {
    for (std::size_t idx = lo; idx < hi; ++idx) {
      masks[idx] = sampling_mask(round_rng, t, idx, prob[idx]);
    }
  }
}

}  // namespace

std::uint32_t* SamplingEngine::begin_round(std::size_t num_edges,
                                           std::size_t t) {
  check_t(t);
  round_.t_ = t;
  round_.masks_.assign(num_edges, 0);
  return round_.masks_.data();
}

const SamplingRound& SamplingEngine::draw(const std::vector<double>& prob,
                                          std::size_t t, std::uint64_t round,
                                          std::uint64_t seed) {
  std::uint32_t* masks = begin_round(prob.size(), t);
  const CounterRng round_rng = sampling_round_rng(seed, round);
  // Separate mask and extract passes: keeping the draw loop free of
  // counter stores lets it pipeline the independent per-q mix chains
  // (measurably faster than fusing the counting into the sweep).
  run_chunks(pool_, 0, prob.size(), grain_,
             [&](std::size_t, std::size_t lo, std::size_t hi) {
               mask_sweep(round_rng, t, prob.data(), masks, lo, hi);
             });
  return end_round();
}

const SamplingRound& SamplingEngine::end_round() {
  const std::size_t m = round_.masks_.size();
  const std::size_t chunks = m == 0 ? 0 : (m + grain_ - 1) / grain_;
  // Two slots per chunk: union count and stored-incidence (popcount) sum.
  chunk_counts_.assign(chunks * 2, 0);
  // Raw pointers hoisted out of the loops: the counter stores cannot alias
  // the vector control blocks, and the compiler must be able to see that.
  const std::uint32_t* masks = round_.masks_.data();
  std::uint32_t* chunk_counts = chunk_counts_.data();
  run_chunks(pool_, 0, m, grain_,
             [&](std::size_t c, std::size_t lo, std::size_t hi) {
               std::uint32_t members = 0;
               std::uint32_t stored = 0;
               for (std::size_t idx = lo; idx < hi; ++idx) {
                 members += masks[idx] != 0;
                 stored += static_cast<std::uint32_t>(
                     __builtin_popcount(masks[idx]));
               }
               chunk_counts[c * 2] = members;
               chunk_counts[c * 2 + 1] = stored;
             });

  // Serial scan in chunk order: chunk_counts_ becomes each chunk's write
  // cursor, so the scatter fills ascending-by-index runs. Chunk boundaries
  // depend only on the grain — the union is identical whatever the thread
  // count.
  std::uint32_t union_total = 0;
  std::size_t stored_total = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::uint32_t count = chunk_counts_[c * 2];
    stored_total += chunk_counts_[c * 2 + 1];
    chunk_counts_[c * 2] = union_total;
    union_total += count;
  }
  round_.stored_total_ = stored_total;
  round_.union_.resize(union_total);

  std::uint32_t* union_out = round_.union_.data();
  run_chunks(pool_, 0, m, grain_,
             [&](std::size_t c, std::size_t lo, std::size_t hi) {
               std::uint32_t cursor = chunk_counts[c * 2];
               for (std::size_t idx = lo; idx < hi; ++idx) {
                 if (masks[idx] != 0) {
                   union_out[cursor++] = static_cast<std::uint32_t>(idx);
                 }
               }
             });
  return round_;
}

}  // namespace dp::core
