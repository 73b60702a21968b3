#include "sparsify/deferred.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dp {

void group_weight_classes(const std::vector<double>& promise,
                          DeferredScratch& scratch) {
  constexpr std::int16_t kNoClass = std::numeric_limits<std::int16_t>::min();
  const std::size_t num_edges = promise.size();
  // floor(log2) of a positive finite double lies in [-1074, 1023], so every
  // class fits the int16 per-edge cache (computed once, read twice).
  scratch.edge_class.resize(num_edges);
  int lo = std::numeric_limits<int>::max();
  int hi = std::numeric_limits<int>::min();
  for (std::size_t e = 0; e < num_edges; ++e) {
    if (!(promise[e] > 0)) {
      scratch.edge_class[e] = kNoClass;
      continue;
    }
    const int cls = static_cast<int>(std::floor(std::log2(promise[e])));
    scratch.edge_class[e] = static_cast<std::int16_t>(cls);
    lo = std::min(lo, cls);
    hi = std::max(hi, cls);
  }
  scratch.class_keys.clear();
  if (lo > hi) return;
  // Counting pass over [lo, hi]; edges are visited in ascending order, so
  // each class lists its edges ascending — the order std::sort gives the
  // packed keys, whose biased class offset keeps negative classes first.
  std::vector<std::size_t>& offsets = scratch.class_offsets;
  offsets.assign(static_cast<std::size_t>(hi - lo) + 2, 0);
  for (const std::int16_t cls : scratch.edge_class) {
    if (cls != kNoClass) ++offsets[static_cast<std::size_t>(cls - lo) + 1];
  }
  for (std::size_t c = 1; c < offsets.size(); ++c) {
    offsets[c] += offsets[c - 1];
  }
  scratch.class_keys.resize(offsets.back());
  for (std::size_t e = 0; e < num_edges; ++e) {
    const std::int16_t cls = scratch.edge_class[e];
    if (cls == kNoClass) continue;
    const auto biased = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(cls) + (std::int64_t{1} << 31));
    scratch.class_keys[offsets[static_cast<std::size_t>(cls - lo)]++] =
        (biased << 32) | static_cast<std::uint64_t>(e);
  }
}

void deferred_probabilities_into(std::size_t n, std::size_t num_edges,
                                 const DeferredEdgeFetch& fetch,
                                 const std::vector<double>& promise,
                                 const DeferredOptions& options,
                                 std::uint64_t seed,
                                 std::vector<double>& prob,
                                 DeferredScratch& scratch, ThreadPool* pool) {
  if (promise.size() != num_edges) {
    throw std::invalid_argument("deferred_probabilities: size mismatch");
  }
  if (options.gamma < 1.0) {
    throw std::invalid_argument("deferred_probabilities: gamma must be >= 1");
  }
  prob.assign(num_edges, 0.0);
  if (num_edges == 0 || n == 0) return;

  // Per weight class: strength-based probabilities computed from the
  // promise weights and inflated by gamma^2 (Lemma 17: p' computed from
  // sigma times O(chi^2) dominates the exact-weight probability; gamma = 1
  // is the plain cut sparsifier).
  //
  // Classes group by a stable counting pass over the class range instead of
  // a std::map of vectors (group_weight_classes).
  group_weight_classes(promise, scratch);

  const CounterRng rng(seed);
  const double log_n =
      std::log(static_cast<double>(std::max<std::size_t>(n, 3)));
  const double rho = options.sampling_constant * options.gamma *
                     options.gamma * log_n / (options.xi * options.xi);

  std::size_t lo = 0;
  while (lo < scratch.class_keys.size()) {
    const std::uint64_t cls_bits = scratch.class_keys[lo] >> 32;
    std::size_t hi = lo;
    while (hi < scratch.class_keys.size() &&
           (scratch.class_keys[hi] >> 32) == cls_bits) {
      ++hi;
    }
    // Gather the class subgraph through the batched fetch.
    scratch.class_members.clear();
    scratch.class_members.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      scratch.class_members.push_back(
          static_cast<std::uint32_t>(scratch.class_keys[i] & 0xffffffffULL));
    }
    scratch.class_edges.resize(hi - lo);
    fetch(scratch.class_members.data(), hi - lo,
          scratch.class_edges.data());
    // Per-class seed is a pure function of (seed, class), so dropping or
    // adding a class never shifts the draws of the others.
    estimate_strengths_into(n, scratch.class_edges, rng.bits(cls_bits),
                            scratch.class_strength, scratch.strength, pool);
    for (std::size_t i = lo; i < hi; ++i) {
      prob[scratch.class_keys[i] & 0xffffffffULL] =
          std::min(1.0, rho / scratch.class_strength[i - lo]);
    }
    lo = hi;
  }
}

std::vector<double> deferred_probabilities(std::size_t n,
                                           const std::vector<Edge>& edges,
                                           const std::vector<double>& promise,
                                           const DeferredOptions& options,
                                           std::uint64_t seed) {
  const Edge* base = edges.data();
  std::vector<double> prob;
  DeferredScratch scratch;
  deferred_probabilities_into(
      n, edges.size(),
      [base](const std::uint32_t* idxs, std::size_t count, Edge* out) {
        for (std::size_t i = 0; i < count; ++i) out[i] = base[idxs[i]];
      },
      promise, options, seed, prob, scratch);
  return prob;
}

DeferredSparsifier::DeferredSparsifier(std::size_t n,
                                       const std::vector<Edge>& edges,
                                       const std::vector<double>& promise,
                                       const DeferredOptions& options,
                                       std::uint64_t seed,
                                       ResourceMeter* meter) {
  const std::vector<double> prob =
      deferred_probabilities(n, edges, promise, options, seed);
  const CounterRng round_rng = sampling_round_rng(seed, 0);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (sampling_mask(round_rng, 1, e, prob[e]) != 0) {
      stored_.push_back(e);
      prob_.push_back(prob[e]);
    }
  }
  if (meter != nullptr) {
    meter->add_rounds();
    meter->add_stored_edges(stored_.size());
  }
}

std::vector<SparsifiedEdge> DeferredSparsifier::refine(
    const std::vector<double>& exact_weights) const {
  if (exact_weights.size() != stored_.size()) {
    throw std::invalid_argument("DeferredSparsifier::refine: size mismatch");
  }
  std::vector<SparsifiedEdge> out;
  out.reserve(stored_.size());
  for (std::size_t i = 0; i < stored_.size(); ++i) {
    if (!(exact_weights[i] > 0)) continue;
    out.push_back(SparsifiedEdge{stored_[i], exact_weights[i] / prob_[i]});
  }
  return out;
}

std::vector<SparsifiedEdge> DeferredSparsifier::refine_from_full(
    const std::vector<double>& full_exact_weights) const {
  std::vector<double> local;
  local.reserve(stored_.size());
  for (std::size_t e : stored_) local.push_back(full_exact_weights[e]);
  return refine(local);
}

}  // namespace dp
