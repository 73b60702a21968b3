#pragma once
// Resource metering.
//
// The paper's theorems bound *resources of the computation model* — adaptive
// sampling rounds, streaming passes, centrally stored edges, sketch words,
// per-vertex messages — rather than wall-clock time. The substrates in this
// library meter those quantities through a shared ResourceMeter so that
// benchmarks report exactly what Theorem 1 / Theorem 15 bound.
//
// Every counter is defined once, as a row of DP_RESOURCE_COUNTERS below.
// The meter's fields, accessors, adders, merge() and summary(), the
// checkpoint's core::MeterSnapshot and its name-keyed counter block are all
// generated from that table: to add a counter, add one table row.

#include <cstddef>
#include <cstdint>
#include <string>

// The counter table. Each row is one of two kinds:
//   SUM(name)          a count that only grows; merge() adds the two
//                      meters' values. Adder: add_<name>(k = 1).
//   LEVEL(name, peak)  a running level raised by add_<name>(k) and
//                      lowered by release_<name>(k) (clamped at 0), plus
//                      `peak`, the level's high-water mark. merge() adds
//                      the levels and takes the peak as max(own peak,
//                      other's peak, combined level).
// Each name is also the read accessor, the MeterSnapshot member and the
// checkpoint key; row order is summary() and wire order only.
#define DP_RESOURCE_COUNTERS(SUM, LEVEL)                                      \
  /* One adaptive sampling round (MapReduce round / sketch epoch). */         \
  SUM(rounds)                                                                 \
  /* One sequential pass over the input stream. */                            \
  SUM(passes)                                                                 \
  /* Edges held in central memory; the peak is the "space" of Theorem 15. */  \
  LEVEL(stored_edges, peak_edges)                                             \
  /* Sketch words communicated (congested clique accounting). */              \
  SUM(sketch_words)                                                           \
  /* Generic message count (MapReduce shuffle volume in records). */          \
  SUM(messages)                                                               \
  /* Inner (non-adaptive) iterations executed on stored data. The paper's     \
     key distinction: these do NOT touch the input. */                        \
  SUM(inner_iterations)                                                       \
  /* Oracle invocations (MicroOracle calls in Theorem 1). */                  \
  SUM(oracle_calls)                                                           \
  /* Injected (or real) substrate faults survived via retry. Each retry's     \
     cost lands on the other counters (an extra pass, re-shuffled             \
     messages), so this is the denominator of per-fault recovery cost. */     \
  SUM(faults)                                                                 \
  /* Max-flow computations run by odd-set separation (Gusfield, Lemma 25),    \
     and flows the incremental per-subtree Gomory-Hu reuse skipped after      \
     contraction. */                                                          \
  SUM(max_flows)                                                              \
  SUM(max_flows_saved)                                                        \
  /* Gomory-Hu tree (re)build outcomes: full Gusfield rebuilds, incremental   \
     post-contraction updates, whole-tree cache hits. */                      \
  SUM(gh_full_builds)                                                         \
  SUM(gh_incremental)                                                         \
  SUM(gh_tree_reuses)                                                         \
  /* Dynamic re-solve: MW rounds and substrate passes the warm-started path   \
     did NOT pay relative to the previous solve, and covering rows raised by  \
     the feasibility-repair pass. */                                          \
  SUM(saved_rounds)                                                           \
  SUM(saved_passes)                                                           \
  SUM(repaired_rows)                                                          \
  /* Out-of-core IO (stream/edge_file): bytes read from the edge file, pass   \
     iterations that had to WAIT for a block, and block requests the async    \
     prefetcher had already completed. hits / (hits + waits) is the          \
     double-buffering pipeline's health signal. */                            \
  SUM(io_bytes)                                                               \
  SUM(io_stalls)                                                              \
  SUM(prefetch_hits)                                                          \
  /* MapReduce shuffle volume in BYTES (each shuffled record is a             \
     fixed-width key/value pair). */                                          \
  SUM(shuffle_bytes)                                                          \
  /* Resident edge-attribute records of the access layer (attribute table,    \
     IO block buffers, stored-sample caches), in edge units. Distinct from    \
     the model's stored-sample space: this is what                            \
     SolverOptions::memory_budget_edges caps. */                              \
  LEVEL(resident_edges, peak_resident_edges)

namespace dp {

namespace core {
struct MeterSnapshot;
}

/// Counters for the resource-constrained models of Section 1 of the paper.
/// All counters are plain (non-atomic). Concurrent phases never share one
/// meter: each stage/thread writes its own ResourceMeter and the owner
/// aggregates them with merge() at a stage boundary, in a fixed stage
/// order (the round pipeline's Merge stage is the canonical example) — so
/// the totals are identical whatever thread interleaving produced them.
/// merge() treats the two meters' transient peaks as NON-concurrent:
/// stages that genuinely hold storage at the same time must charge the
/// held storage to one meter (as the pipeline does — the round's stored
/// edges live on the Draw stage's meter until the post-merge release).
class ResourceMeter {
 public:
#define DP_SUM(name)                                            \
  void add_##name(std::size_t k = 1) noexcept { name##_ += k; } \
  std::size_t name() const noexcept { return name##_; }
#define DP_LEVEL(level, peak)                                  \
  void add_##level(std::size_t k) noexcept {                   \
    level##_ += k;                                             \
    if (level##_ > peak##_) peak##_ = level##_;                \
  }                                                            \
  void release_##level(std::size_t k) noexcept {               \
    level##_ = k > level##_ ? 0 : level##_ - k;                \
  }                                                            \
  std::size_t level() const noexcept { return level##_; }      \
  std::size_t peak() const noexcept { return peak##_; }
  DP_RESOURCE_COUNTERS(DP_SUM, DP_LEVEL)
#undef DP_SUM
#undef DP_LEVEL

  void reset() noexcept { *this = ResourceMeter{}; }

  /// Merge counters from another meter (see the table's kinds).
  void merge(const ResourceMeter& other) noexcept;

  /// Human-readable one-line summary: `name=value` for every counter.
  std::string summary() const;

 private:
  // Snapshot/restore copies the fields directly (checkpoint resume).
  friend struct core::MeterSnapshot;

#define DP_SUM(name) std::size_t name##_ = 0;
#define DP_LEVEL(level, peak) DP_SUM(level) DP_SUM(peak)
  DP_RESOURCE_COUNTERS(DP_SUM, DP_LEVEL)
#undef DP_SUM
#undef DP_LEVEL
};

}  // namespace dp
