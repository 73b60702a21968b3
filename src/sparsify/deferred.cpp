#include "sparsify/deferred.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dp {

namespace {

/// floor(log2(p)) for a positive p. A normal double's exponent field is
/// that value, but libm's log2 rounds to the next integer for mantissas
/// just below a power of two, so the band within 2^-32 of one (either
/// side) and the subnormals take the libm path; outside the band the
/// computed log2 stays far more than an ulp from any integer.
int weight_class(double p) {
  constexpr std::uint64_t kFraction = (std::uint64_t{1} << 52) - 1;
  constexpr std::uint64_t kBand = std::uint64_t{1} << 20;
  const auto bits = std::bit_cast<std::uint64_t>(p);
  const auto exponent = static_cast<int>(bits >> 52);  // sign bit clear
  const std::uint64_t fraction = bits & kFraction;
  if (exponent == 0 || exponent == 0x7ff || fraction < kBand ||
      fraction > kFraction - kBand) {
    return static_cast<int>(std::floor(std::log2(p)));
  }
  return exponent - 1023;
}

}  // namespace

void group_weight_classes(const std::vector<double>& promise,
                          DeferredScratch& scratch) {
  constexpr std::int16_t kNoClass = std::numeric_limits<std::int16_t>::min();
  // floor(log2) of a positive finite double lies in [-1074, 1024] (libm
  // rounds log2 of the doubles just below 2^1024 up to 1024), so every
  // class fits the int16 per-edge cache and one fixed-size count table.
  constexpr int kMinClass = -1074;
  constexpr std::size_t kClasses = 1024 - kMinClass + 1;
  const std::size_t num_edges = promise.size();
  scratch.edge_class.resize(num_edges);
  std::vector<std::size_t>& offsets = scratch.class_offsets;
  offsets.assign(kClasses, 0);
  for (std::size_t e = 0; e < num_edges; ++e) {
    if (!(promise[e] > 0)) {
      scratch.edge_class[e] = kNoClass;
      continue;
    }
    const int cls = weight_class(promise[e]);
    scratch.edge_class[e] = static_cast<std::int16_t>(cls);
    ++offsets[static_cast<std::size_t>(cls - kMinClass)];
  }
  std::size_t total = 0;
  for (std::size_t& slot : offsets) {
    const std::size_t count = slot;
    slot = total;
    total += count;
  }
  // Edges are visited in ascending order, so each class lists its edges
  // ascending — the order std::sort gives the packed keys, whose biased
  // class offset keeps negative classes first. Equal classes come in runs
  // (a dense round's floor class holds most edges), so the current run's
  // write cursor stays in a local and goes back to its class when the run
  // ends.
  scratch.class_keys.resize(total);
  std::int16_t run = kNoClass;
  std::size_t cursor = 0;
  std::uint64_t tag = 0;
  for (std::size_t e = 0; e < num_edges; ++e) {
    const std::int16_t cls = scratch.edge_class[e];
    if (cls != run) {
      if (run != kNoClass) {
        offsets[static_cast<std::size_t>(run - kMinClass)] = cursor;
      }
      run = cls;
      if (cls == kNoClass) continue;
      cursor = offsets[static_cast<std::size_t>(cls - kMinClass)];
      tag = static_cast<std::uint64_t>(static_cast<std::int64_t>(cls) +
                                       (std::int64_t{1} << 31))
            << 32;
    } else if (cls == kNoClass) {
      continue;
    }
    scratch.class_keys[cursor++] = tag | static_cast<std::uint64_t>(e);
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

  scratch.memo_next.clear();
  std::size_t prev = 0;  // cursor into the previous call's memo
  std::size_t lo = 0;
  while (lo < scratch.class_keys.size()) {
    const std::uint64_t cls_bits = scratch.class_keys[lo] >> 32;
    std::size_t hi = lo;
    while (hi < scratch.class_keys.size() &&
           (scratch.class_keys[hi] >> 32) == cls_bits) {
      ++hi;
    }
    const std::size_t count = hi - lo;
    // Gather the class subgraph through the batched fetch.
    scratch.class_members.clear();
    scratch.class_members.reserve(count);
    for (std::size_t i = lo; i < hi; ++i) {
      scratch.class_members.push_back(
          static_cast<std::uint32_t>(scratch.class_keys[i] & 0xffffffffULL));
    }
    scratch.class_edges.resize(count);
    fetch(scratch.class_members.data(), count, scratch.class_edges.data());

    // The class's memo entry (classes ascend in both calls): its level-0
    // placements still hold iff the class has the same member indices,
    // as an index names the same edge on every call (see the header).
    while (prev < scratch.memo.size() && scratch.memo[prev].cls < cls_bits) {
      ++prev;
    }
    Level0Memo entry;
    if (prev < scratch.memo.size() && scratch.memo[prev].cls == cls_bits) {
      entry = std::move(scratch.memo[prev++]);
    }
    entry.cls = cls_bits;
    const bool packed = entry.members == scratch.class_members;
    // Per-class seed is a pure function of (seed, class), so dropping or
    // adding a class never shifts the draws of the others.
    estimate_strengths_into(n, scratch.class_edges, rng.bits(cls_bits),
                            scratch.class_strength,
                            Level0Placements{entry.placement, packed},
                            scratch.strength, pool);
    if (!packed) entry.members = scratch.class_members;
    scratch.memo_next.push_back(std::move(entry));
    for (std::size_t i = lo; i < hi; ++i) {
      prob[scratch.class_keys[i] & 0xffffffffULL] =
          std::min(1.0, rho / scratch.class_strength[i - lo]);
    }
    lo = hi;
  }
  // Keep this call's classes; the entries of classes that are gone (and
  // the moved-from shells) are freed.
  scratch.memo.swap(scratch.memo_next);
  scratch.memo_next.clear();
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
