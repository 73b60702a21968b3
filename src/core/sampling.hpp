#pragma once
// Deterministic batched sampling rounds — the data-access side of
// Algorithm 2 (Definition 4 / Lemma 17).
//
// One adaptive sampling round draws t independent deferred sparsifiers from
// the same per-edge inclusion probabilities. The seed implementation ran t
// dependent Bernoulli sweeps off one stateful generator, which (a) serialized
// the t * m draws and (b) tied every draw to the full history of draws before
// it, locking the round out of the fixed-chunk determinism contract that
// covers the rest of the solve loop.
//
// SamplingEngine replaces that with ONE sweep: the inclusion decisions of all
// t sparsifiers for edge `idx` pack into a t-bit mask computed by
// sparsify/deferred's sampling_mask (a counter-based RNG) as a pure
// function of (seed, round, q, idx). Consequences:
//
//  - any access substrate that can enumerate (idx, prob) pairs reproduces the
//    exact same sets, so the engine has ONE way to build a round: the
//    substrate writes each retained index's mask into the engine's buffer
//    (begin_round) — the in-memory chunk-parallel sweep (draw), the
//    streaming substrate's shuffled pass, or the MapReduce substrate's
//    filtered reducer output — and the engine extracts the union once
//    (end_round). Each substrate charges its own round / pass / store
//    accounting;
//  - the in-memory sweep chunk-parallelizes over the edges (run_chunks), and
//    the stored sets are bitwise identical for any thread count;
//  - per-sparsifier supports and the round's union extract from the masks
//    into one CSR (replacing the per-round vector-of-vectors), and all round
//    state lives in reusable engine buffers.

#include <cstdint>
#include <vector>

#include "util/thread_pool.hpp"

namespace dp::core {

/// Upper bound on sparsifiers per round (one bit each in the packed
/// 32-bit mask; the solver's automatic t is clamped to [2, 24], so 32 is
/// headroom, and the narrow mask halves the memory traffic of the draw,
/// extraction and consumption sweeps).
inline constexpr std::size_t kMaxSparsifiersPerRound = 32;

/// One round's draws: per-edge masks plus the CSR-extracted union support.
/// Per-sparsifier supports are NOT materialized — each is consumed exactly
/// once by the solver's inner loop, so iterating the union with a bit test
/// (for_each_stored) costs less than building t index lists ever would.
/// Owned and recycled by a SamplingEngine; views stay valid until the
/// engine's next begin_round.
class SamplingRound {
 public:
  std::size_t num_sparsifiers() const noexcept { return t_; }
  std::size_t num_edges() const noexcept { return masks_.size(); }

  /// Total stored (edge, sparsifier) incidences of the round.
  std::size_t stored_total() const noexcept { return stored_total_; }

  /// Invoke fn(idx) for every edge index held by sparsifier q, ascending.
  template <typename Fn>
  void for_each_stored(std::size_t q, Fn&& fn) const {
    const std::uint32_t* masks = masks_.data();
    for (const std::uint32_t idx : union_) {
      if ((masks[idx] >> q) & 1) fn(idx);
    }
  }

  /// Materialized support of sparsifier q (ascending) — a convenience for
  /// tests and diagnostics; hot paths should use for_each_stored.
  std::vector<std::uint32_t> sparsifier(std::size_t q) const {
    std::vector<std::uint32_t> out;
    for_each_stored(q, [&](std::uint32_t idx) { out.push_back(idx); });
    return out;
  }

  /// Ascending indices of edges stored by at least one sparsifier.
  const std::vector<std::uint32_t>& union_support() const noexcept {
    return union_;
  }

  /// Packed per-edge inclusion masks (bit q = sparsifier q).
  const std::vector<std::uint32_t>& masks() const noexcept { return masks_; }

 private:
  friend class SamplingEngine;

  std::size_t t_ = 0;
  std::size_t stored_total_ = 0;
  std::vector<std::uint32_t> masks_;
  std::vector<std::uint32_t> union_;
};

/// Reusable, deterministic batched sampling subsystem: one engine serves
/// all rounds of a solve and recycles the round's buffers.
class SamplingEngine {
 public:
  /// `pool`/`grain` follow the solver's fixed-chunk determinism contract
  /// (pool == nullptr runs inline; the output never depends on either).
  explicit SamplingEngine(ThreadPool* pool = nullptr,
                          std::size_t grain = 2048)
      : pool_(pool), grain_(grain == 0 ? 1 : grain) {}

  /// Start a round of t sparsifiers over `num_edges` indices: returns the
  /// zeroed mask buffer, into which the caller writes sampling_mask for
  /// each retained index (in any order, from any substrate).
  std::uint32_t* begin_round(std::size_t num_edges, std::size_t t);

  /// Extract the union support and stored_total from the masks written
  /// since begin_round. The returned round is valid until the next
  /// begin_round.
  const SamplingRound& end_round();

  /// The in-memory sweep: all t sparsifiers of round `round` drawn over
  /// `prob` in one chunk-parallel pass (begin_round + sweep + end_round).
  /// Charges nothing; the caller owns the round's accounting.
  const SamplingRound& draw(const std::vector<double>& prob, std::size_t t,
                            std::uint64_t round, std::uint64_t seed);

  const SamplingRound& last_round() const noexcept { return round_; }

 private:
  ThreadPool* pool_;
  std::size_t grain_;
  std::vector<std::uint32_t> chunk_counts_;  // per chunk: union cursor, stored
  SamplingRound round_;
};

}  // namespace dp::core
