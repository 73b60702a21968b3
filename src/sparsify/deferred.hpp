#pragma once
// Deferred cut sparsifiers — Definition 4 / Lemma 17 of the paper.
//
// The exact multiplier u_e of an edge is NOT known at sampling time; only a
// promise value sigma_e with sigma_e/gamma <= u_e <= sigma_e*gamma is. The
// data structure D samples edge *indices* using the promise values with the
// sampling probability inflated by gamma^2 (so it dominates the probability
// the exact weights would have demanded), stores them, and later — once the
// exact u values of the stored edges are revealed — produces a (1 +- xi)
// cut sparsifier of the exact-weighted graph.
//
// This is the mechanism that lets Theorem 1 run O(eps^-1 log gamma)
// multiplicative-weight iterations per single adaptive sampling round: the
// multipliers drift by at most e^eps per iteration, so gamma =
// e^{eps * iterations} bounds the drift and the oversampled structure covers
// every intermediate weight vector.
//
// Probabilities come per weight class from strength estimation
// (sparsify/strength). Between rounds most classes keep the same edges
// (a dense round's floor class holds the same ~94% of the edges round
// after round), and a class's level-0 forest packing depends only on its
// edges, so DeferredScratch memoizes it per class, keyed on the class's
// member indices; only the seed-dependent subsampled levels are packed
// again.

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.hpp"
#include "sparsify/cut_sparsifier.hpp"
#include "sparsify/strength.hpp"
#include "util/accounting.hpp"
#include "util/rng.hpp"

namespace dp {

class ThreadPool;

struct DeferredOptions {
  /// Cut accuracy of the refined sparsifier.
  double xi = 0.125;
  /// Promise distortion gamma >= 1 (exact weights within [sigma/g, sigma*g]).
  double gamma = 1.5;
  /// Oversampling constant (multiplies the gamma^2 factor).
  double sampling_constant = 12.0;
};

/// One weight class's level-0 forest packing, kept across rounds: the
/// class's member indices (ascending) and the placements a packing of
/// exactly those edges wrote. 8 B per class edge.
struct Level0Memo {
  std::uint64_t cls = 0;                // biased class bits
  std::vector<std::uint32_t> members;   // edge indices the placements are of
  std::vector<std::uint32_t> placement;
};

/// Reusable buffers for deferred_probabilities_into: weight-class grouping,
/// the level-0 memo plus the strength scratch. One instance serves any
/// sequence of rounds.
struct DeferredScratch {
  std::vector<std::uint64_t> class_keys;   // packed (class, edge index)
  std::vector<std::int16_t> edge_class;    // per-edge class cache
  std::vector<std::size_t> class_offsets;  // counting-pass buckets
  std::vector<std::uint32_t> class_members;  // per-class member indices
  std::vector<Edge> class_edges;           // per-class subgraph, reused
  std::vector<double> class_strength;      // per-class strengths, reused
  // Level-0 memo: one entry per class of the latest call, ascending by
  // class (entries of classes that are gone are dropped). Only a
  // speed-up: a resumed solve starts it empty.
  std::vector<Level0Memo> memo;
  std::vector<Level0Memo> memo_next;  // being filled by the current call
  StrengthScratch strength;
};

/// Weight classes of the positive promises: fills scratch.class_keys with
/// packed (floor(log2 promise) + 2^31) << 32 | edge index keys, sorted
/// ascending — by class, then by edge — in O(m + class range) with one
/// counting pass; the sequence equals std::sort of the same keys.
/// Non-positive (and NaN) promises get no key. The class is read from the
/// double's exponent field; subnormals and mantissas within 2^-32 of a
/// power of two take std::floor(std::log2(p)), whose rounding there can
/// differ from the exponent, so every class equals the libm one.
void group_weight_classes(const std::vector<double>& promise,
                          DeferredScratch& scratch);

/// Batched edge-record fetch: fill out[0..count) with the records of the
/// given edge indices. The access layer's Substrate::fetch_edges matches
/// this shape, so the probability stage can run against a backend with NO
/// materialized per-edge vector (the file-backed streaming substrate).
using DeferredEdgeFetch = std::function<void(
    const std::uint32_t* idxs, std::size_t count, Edge* out)>;

/// Per-edge inclusion probabilities for a deferred sparsifier built from
/// promise weights (strength estimation + gamma^2 oversampling), computed
/// into a caller-owned vector with all working memory in `scratch`
/// (steady-state rounds allocate nothing). Weight classes group by one
/// counting pass (group_weight_classes), each class subgraph is gathered
/// through `fetch`, per-class seeds are counter-based (a pure function of
/// (seed, class)), and the strength estimation inside each class runs its
/// per-level jobs on `pool` — so the output is bitwise identical for any
/// thread count. `num_edges` is the index-space size (== promise.size()).
/// A class whose member indices equal its memo entry from the previous
/// call reuses the entry's level-0 placements (level 0 packs every class
/// edge in order and does not depend on the seed), skipping that packing
/// and its region split; the output is the same either way. The memo
/// therefore assumes that `fetch` returns the same edge for an index on
/// every call through one scratch, as a solve's substrate does; a caller
/// that rewrites the edges behind the indices clears `scratch.memo` (or
/// takes a fresh scratch) first.
void deferred_probabilities_into(std::size_t n, std::size_t num_edges,
                                 const DeferredEdgeFetch& fetch,
                                 const std::vector<double>& promise,
                                 const DeferredOptions& options,
                                 std::uint64_t seed,
                                 std::vector<double>& prob,
                                 DeferredScratch& scratch,
                                 ThreadPool* pool = nullptr);

/// Allocating convenience over an in-memory edge vector. A caller drawing
/// MANY independent sparsifiers from the SAME promise vector (the t
/// per-round structures of Theorem 1) computes the probabilities once and
/// then draws cheap sampling_mask bits.
std::vector<double> deferred_probabilities(std::size_t n,
                                           const std::vector<Edge>& edges,
                                           const std::vector<double>& promise,
                                           const DeferredOptions& options,
                                           std::uint64_t seed);

/// The per-round draw stream: callers fork once per round and pass the
/// forked stream to sampling_mask, which then hashes only the edge index.
inline CounterRng sampling_round_rng(std::uint64_t seed,
                                     std::uint64_t round) noexcept {
  return CounterRng(seed).fork(round);
}

/// Inclusion mask of edge `idx` for one round: bit q is set iff the edge
/// belongs to sparsifier q (q < t <= 32). A pure function of
/// (seed, round, q, idx) — `round_rng` must come from sampling_round_rng —
/// which is the ONE sparsifier draw of the library: the offline and
/// deferred sparsifiers (t = 1) and every access substrate (in-memory
/// sweep, streaming pass, MapReduce mapper) evaluate it, so the
/// substrates' stored sets are bitwise identical. The Bernoulli compare
/// happens in the integer domain (threshold = p * 2^64, computed once per
/// edge), so the per-sparsifier draw is one mix + one compare, branchless.
inline std::uint32_t sampling_mask(const CounterRng& round_rng, std::size_t t,
                                   std::uint64_t idx, double p) noexcept {
  if (!(p > 0.0) || t == 0) return 0;
  const std::uint32_t full =
      t >= 32 ? ~std::uint32_t{0}
              : (std::uint32_t{1} << t) - std::uint32_t{1};
  if (p >= 1.0) return full;
  const auto threshold = static_cast<std::uint64_t>(p * 0x1.0p64);
  const std::uint64_t base = round_rng.bits(idx);
  std::uint32_t mask = 0;
  // Unrolled by hand: t is a runtime value, and without the unroll the
  // compiler chains the (independent) per-q mixes instead of pipelining
  // them — worth ~1.7x on the fractional-probability sweep.
  std::size_t q = 0;
  for (; q + 4 <= t; q += 4) {
    mask |= static_cast<std::uint32_t>(mix_combine(base, q) < threshold)
            << q;
    mask |= static_cast<std::uint32_t>(mix_combine(base, q + 1) < threshold)
            << (q + 1);
    mask |= static_cast<std::uint32_t>(mix_combine(base, q + 2) < threshold)
            << (q + 2);
    mask |= static_cast<std::uint32_t>(mix_combine(base, q + 3) < threshold)
            << (q + 3);
  }
  for (; q < t; ++q) {
    mask |= static_cast<std::uint32_t>(mix_combine(base, q) < threshold)
            << q;
  }
  return mask;
}

class DeferredSparsifier {
 public:
  /// Sample-and-store phase: only `promise` (sigma) values are consulted,
  /// and the store is one t = 1 sampling_mask draw. Charges `meter` one
  /// adaptive round and the stored edge count.
  DeferredSparsifier(std::size_t n, const std::vector<Edge>& edges,
                     const std::vector<double>& promise,
                     const DeferredOptions& options, std::uint64_t seed,
                     ResourceMeter* meter = nullptr);

  /// Indices (into the original edge array) held by the structure.
  const std::vector<std::size_t>& stored_indices() const noexcept {
    return stored_;
  }
  /// Inclusion probability used for stored edge i (parallel to
  /// stored_indices()).
  const std::vector<double>& probabilities() const noexcept { return prob_; }

  std::size_t size() const noexcept { return stored_.size(); }

  /// Refinement phase: exact weights for the stored edges are revealed
  /// (parallel to stored_indices()); emits the reweighted sparsifier edges.
  /// Edges whose exact weight is zero are dropped.
  std::vector<SparsifiedEdge> refine(
      const std::vector<double>& exact_weights) const;

  /// Convenience: refine by looking up exact weights from a full per-edge
  /// vector indexed like the original edge array.
  std::vector<SparsifiedEdge> refine_from_full(
      const std::vector<double>& full_exact_weights) const;

 private:
  std::vector<std::size_t> stored_;
  std::vector<double> prob_;
};

}  // namespace dp
