#include "access/mapreduce.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sparsify/deferred.hpp"
#include "util/thread_pool.hpp"

namespace dp::access {

void MapReduceSubstrate::on_bind() {
  reducer_memory_ = config_.reducer_memory;
  if (reducer_memory_ == 0) {
    const double n = static_cast<double>(n_);
    const double p = std::max(config_.space_exponent, 1.01);
    reducer_memory_ =
        static_cast<std::size_t>(std::ceil(8.0 * std::pow(n, 1.0 + 1.0 / p)))
        + 64;
  }
  mapreduce::Config sim_config;
  sim_config.machines = config_.machines == 0 ? 1 : config_.machines;
  sim_config.reducer_memory = reducer_memory_;
  sim_config.threads = config_.threads;
  // plan_ is the substrate's own stable copy (set before bind), so the
  // simulator's pointer stays valid for the whole solve.
  sim_config.faults = &plan_;
  sim_ = std::make_unique<mapreduce::Simulator>(sim_config, &meter_);
  engine_ = core::SamplingEngine(nullptr, grain_);

  // Vertex-range sharding: machine s owns the retained edges whose u
  // endpoint falls in [s n/S, (s+1) n/S), walked as maximal consecutive
  // runs so the sweep stays span-based through the kernel.
  const std::size_t shards = sim_config.machines;
  shard_runs_.assign(shards, {});
  shard_members_.assign(shards, 0);
  shard_meters_.assign(shards, ResourceMeter{});
  const std::size_t m = table_.size();
  for (std::size_t idx = 0; idx < m; ++idx) {
    const std::size_t s =
        n_ == 0 ? 0
                : std::min(shards - 1,
                           static_cast<std::size_t>(table_[idx].u) * shards /
                               n_);
    ++shard_members_[s];
    std::vector<ShardRun>& runs = shard_runs_[s];
    if (!runs.empty() && runs.back().hi == idx) {
      runs.back().hi = static_cast<std::uint32_t>(idx + 1);
    } else {
      runs.push_back(ShardRun{static_cast<std::uint32_t>(idx),
                              static_cast<std::uint32_t>(idx + 1)});
    }
  }

  compress_k_ = config_.round_compression == 0 ? 1 : config_.round_compression;
  batch_valid_ = false;
  envelope_.clear();
  batch_candidates_.clear();
}

void MapReduceSubstrate::multiplier_sweep(const SweepKernel& kernel) {
  // Map-side computation of the upcoming round: each machine sweeps its
  // vertex-range shard, dispatched concurrently like the machines the
  // model describes (the kernel is pure per index, so the output is
  // bitwise identical to any serial walk). The simulator round itself
  // (and its charge) is the draw's shuffle/reduce. The stop is polled at
  // access entry only — shard workers must never throw.
  poll_stop("mapreduce.map");
  const RetainedEdge* edges = table_.data();
  const std::size_t shards = shard_runs_.size();
  run_jobs(pool_, shards, [&](std::size_t s) {
    for (const ShardRun& run : shard_runs_[s]) {
      kernel(run.lo, run.hi, edges + run.lo);
    }
  });
  // Per-machine accounting folded on the calling thread after the join
  // (deterministic shard order): one pass over its range per machine that
  // owns any edges.
  for (std::size_t s = 0; s < shards; ++s) {
    if (shard_members_[s] > 0) shard_meters_[s].add_passes();
  }
}

void MapReduceSubstrate::charge_shard_draw() {
  const std::vector<std::size_t>& emissions = sim_->last_map_emissions();
  const std::size_t shards =
      std::min(emissions.size(), shard_meters_.size());
  for (std::size_t s = 0; s < shards; ++s) {
    shard_meters_[s].add_rounds();
    shard_meters_[s].add_messages(emissions[s]);
    shard_meters_[s].add_shuffle_bytes(emissions[s] *
                                       sizeof(mapreduce::KeyValue));
  }
}

bool MapReduceSubstrate::cached_draw_valid(const std::vector<double>& prob,
                                           std::size_t t, std::uint64_t round,
                                           std::uint64_t seed) const {
  if (!batch_valid_ || t != batch_t_ || seed != batch_seed_) return false;
  if (round <= batch_base_) return false;
  const std::uint64_t j = round - batch_base_;
  if (j >= batch_candidates_.size()) return false;
  if (prob.size() != envelope_.size()) return false;
  // Envelope invariant: the pre-draw is a superset of this round's exact
  // draw only while every probability is still under its envelope.
  for (std::size_t e = 0; e < prob.size(); ++e) {
    if (prob[e] > envelope_[e]) return false;
  }
  return true;
}

bool MapReduceSubstrate::predraw_batch(const std::vector<double>& prob,
                                       std::size_t t, std::uint64_t round,
                                       std::uint64_t seed, std::size_t k) {
  // A batch of k > 1 draws at the boosted envelope so later rounds can
  // filter locally; a plain draw (k = 1) draws at the exact probabilities.
  envelope_.resize(prob.size());
  for (std::size_t e = 0; e < prob.size(); ++e) {
    envelope_[e] = k == 1 ? prob[e]
                          : std::min(1.0, prob[e] * config_.compression_boost);
  }
  // One simulator round draws all k rounds' envelope masks: the mapper
  // evaluates each round's counter-based mask at the envelope probability
  // and routes (round-in-batch j, sparsifier q) -> key j*64+q, so the
  // reducer cap binds every per-round per-sparsifier support of the batch.
  std::vector<mapreduce::KeyValue> input;
  input.reserve(envelope_.size());
  for (std::size_t idx = 0; idx < envelope_.size(); ++idx) {
    input.push_back({idx, std::bit_cast<std::uint64_t>(envelope_[idx])});
  }
  std::vector<CounterRng> rngs;
  rngs.reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    rngs.push_back(sampling_round_rng(seed, round + j));
  }
  std::vector<mapreduce::KeyValue> output;
  try {
    output = sim_->round(
        input,
        [&](const std::vector<mapreduce::KeyValue>& shard,
            std::vector<mapreduce::KeyValue>& emit) {
          for (const mapreduce::KeyValue& kv : shard) {
            const double env = std::bit_cast<double>(kv.value);
            for (std::size_t j = 0; j < k; ++j) {
              std::uint64_t mask = sampling_mask(rngs[j], t, kv.key, env);
              while (mask != 0) {
                emit.push_back(
                    {j * 64 +
                         static_cast<std::uint64_t>(__builtin_ctzll(mask)),
                     kv.key});
                mask &= mask - 1;
              }
            }
          }
        },
        [](std::uint64_t key, const std::vector<std::uint64_t>& values,
           std::vector<mapreduce::KeyValue>& emit) {
          for (const std::uint64_t idx : values) emit.push_back({key, idx});
        });
  } catch (const mapreduce::ReducerMemoryExceeded&) {
    // A plain draw over the cap is a model violation: the solve fails.
    if (k == 1) throw;
    // The envelope over-shipped to some (j, q) reducer: the model refuses
    // the batch. Degrade to plain draws for the rest of the solve —
    // correctness is untouched, only the compression saving is lost.
    compress_k_ = 1;
    batch_valid_ = false;
    return false;
  }
  // Candidate union per round-in-batch (dedupe across sparsifier bits);
  // adopt_cached re-evaluates each candidate's exact mask locally.
  batch_candidates_.assign(k, {});
  for (const mapreduce::KeyValue& kv : output) {
    batch_candidates_[kv.key / 64].push_back(
        static_cast<std::uint32_t>(kv.value));
  }
  for (std::vector<std::uint32_t>& cand : batch_candidates_) {
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
  }
  meter_.add_passes();  // the batch's mappers read the input once
  charge_shard_draw();
  batch_base_ = round;
  batch_t_ = t;
  batch_seed_ = seed;
  batch_valid_ = true;
  return true;
}

const core::SamplingRound& MapReduceSubstrate::adopt_cached(
    const std::vector<double>& prob, std::size_t t, std::uint64_t round) {
  const std::uint64_t j = round - batch_base_;
  const CounterRng round_rng = sampling_round_rng(batch_seed_, round);
  // Exact local filter: the candidates are a bitwise superset of this
  // round's draw (mask monotone in p), so re-evaluating each candidate's
  // mask at its ACTUAL probability reproduces the in-memory sweep's masks
  // exactly; every other index stays 0.
  std::uint32_t* masks = engine_.begin_round(prob.size(), t);
  for (const std::uint32_t idx : batch_candidates_[j]) {
    masks[idx] = sampling_mask(round_rng, t, idx, prob[idx]);
  }
  const core::SamplingRound& draws = engine_.end_round();
  if (j > 0) {
    // This sampling round cost ZERO simulator rounds/passes: the batch
    // round already shipped its candidates. Record the saving; the round
    // counter stays untouched, so meter rounds = simulator rounds < outer
    // rounds.
    meter_.add_saved_rounds(1);
    meter_.add_saved_passes(1);
  }
  meter_.add_stored_edges(draws.stored_total());
  if (j + 1 >= batch_candidates_.size()) batch_valid_ = false;  // exhausted
  return draws;
}

const core::SamplingRound& MapReduceSubstrate::draw(
    const std::vector<double>& prob, std::size_t t, std::uint64_t round,
    std::uint64_t seed) {
  poll_stop("mapreduce.round");
  if (compress_k_ > 1) {
    if (cached_draw_valid(prob, t, round, seed)) {
      return adopt_cached(prob, t, round);
    }
    batch_valid_ = false;  // stale/violated batch: start a fresh one here
  }
  // One genuine simulator round: mappers evaluate sampling_mask over their
  // shards, reducer (j, q) collects sparsifier q's support of round-in-batch
  // j under the memory cap. A plain draw is a batch of one; a refused
  // compressed batch (cap fallback) retries as one.
  if (!predraw_batch(prob, t, round, seed, compress_k_)) {
    predraw_batch(prob, t, round, seed, 1);
  }
  return adopt_cached(prob, t, round);
}

}  // namespace dp::access
