#include "mapreduce/mapreduce.hpp"

#include <algorithm>
#include <exception>
#include <sstream>
#include <unordered_map>

namespace dp::mapreduce {

ReducerMemoryExceeded::ReducerMemoryExceeded(std::size_t key, std::size_t got,
                                             std::size_t cap)
    : ConfigError(
          [&] {
            std::ostringstream os;
            os << "reducer for key " << key << " received " << got
               << " values, exceeding the memory cap " << cap;
            return os.str();
          }(),
          ErrorContext{fault_site_name(FaultSite::kReducerTask)}) {}

Simulator::Simulator(Config config, ResourceMeter* meter)
    : config_(config), meter_(meter), pool_(config.threads) {
  if (config_.machines == 0) config_.machines = 1;
  if (config_.faults != nullptr) {
    injector_ = FaultInjector(config_.faults->config);
    retry_ = config_.faults->retry;
  }
}

std::vector<KeyValue> Simulator::round(
    const std::vector<KeyValue>& input,
    const std::function<void(const std::vector<KeyValue>&,
                             std::vector<KeyValue>&)>& mapper,
    const std::function<void(std::uint64_t, const std::vector<std::uint64_t>&,
                             std::vector<KeyValue>&)>& reducer) {
  ++rounds_;
  if (meter_ != nullptr) {
    meter_->add_rounds();
  }

  // ---- Map phase: shard input contiguously, run mappers in parallel. ----
  // Each shard is ONE retriable task (FaultSite::kMapperShard). Pool tasks
  // must never throw (the worker loop would terminate the process), so
  // each slot records its outcome — exception, injected-fault count,
  // wasted emissions — and the calling thread folds the slots in shard
  // order after the join: deterministic accounting, first error wins.
  const std::size_t shards = config_.machines;
  const std::size_t shard_size = (input.size() + shards - 1) / shards;
  const std::uint64_t round_ord = rounds_;
  std::vector<std::vector<KeyValue>> mapped(shards);
  std::vector<std::size_t> map_wasted(shards, 0);
  std::vector<std::size_t> map_faults(shards, 0);
  std::vector<std::exception_ptr> map_errors(shards);
  pool_.parallel_for(0, shards, [&](std::size_t s) {
    const std::size_t lo = s * shard_size;
    const std::size_t hi = std::min(input.size(), lo + shard_size);
    if (lo >= hi && !(s == 0 && input.empty())) return;
    std::vector<KeyValue> shard(input.begin() + static_cast<long>(lo),
                                input.begin() + static_cast<long>(hi));
    for (std::uint64_t attempt = 0;; ++attempt) {
      mapped[s].clear();
      try {
        mapper(shard, mapped[s]);
      } catch (...) {
        // The mapper's own exception is deterministic user code, not a
        // transient fault: surface it without retrying.
        map_errors[s] = std::current_exception();
        return;
      }
      if (!injector_.should_fail(FaultSite::kMapperShard, round_ord, s,
                                 attempt)) {
        return;
      }
      // Injected task death after its emissions entered the shuffle
      // fabric: the spilled messages are wasted work, the output is
      // discarded and the task re-executes.
      ++map_faults[s];
      map_wasted[s] += mapped[s].size();
      if (attempt + 1 >= retry_.max_attempts) {
        mapped[s].clear();
        map_errors[s] = std::make_exception_ptr(SubstrateFault(
            "mapper shard task failed; retry budget exhausted",
            {fault_site_name(FaultSite::kMapperShard), round_ord, attempt}));
        return;
      }
      retry_.backoff(injector_, FaultSite::kMapperShard, round_ord, s,
                     attempt);
    }
  });
  last_map_emissions_.assign(shards, 0);
  for (std::size_t s = 0; s < shards; ++s) {
    last_map_emissions_[s] = mapped[s].size();
  }
  if (meter_ != nullptr) {
    std::size_t wasted = 0;
    std::size_t faults = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      wasted += map_wasted[s];
      faults += map_faults[s];
    }
    meter_->add_messages(wasted);
    meter_->add_shuffle_bytes(wasted * sizeof(KeyValue));
    meter_->add_faults(faults);
  }
  for (std::size_t s = 0; s < shards; ++s) {
    if (map_errors[s] != nullptr) std::rethrow_exception(map_errors[s]);
  }

  // ---- Shuffle: group by key (single-threaded; metered as messages). ----
  std::size_t shuffle_volume = 0;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> grouped;
  for (const auto& out : mapped) {
    shuffle_volume += out.size();
    for (const KeyValue& kv : out) grouped[kv.key].push_back(kv.value);
  }
  if (meter_ != nullptr) {
    meter_->add_messages(shuffle_volume);
    meter_->add_shuffle_bytes(shuffle_volume * sizeof(KeyValue));
  }

  if (config_.reducer_memory > 0) {
    for (const auto& [key, values] : grouped) {
      if (values.size() > config_.reducer_memory) {
        throw ReducerMemoryExceeded(key, values.size(),
                                    config_.reducer_memory);
      }
    }
  }

  // ---- Reduce phase: parallel over keys. ----
  std::vector<std::uint64_t> keys;
  keys.reserve(grouped.size());
  for (const auto& [key, values] : grouped) keys.push_back(key);
  std::sort(keys.begin(), keys.end());  // deterministic order

  // Each key is ONE retriable task (FaultSite::kReducerTask). A retried
  // reducer re-fetches its grouped input from the shuffle fabric, so every
  // failed attempt re-charges the task's input volume as messages. Same
  // per-slot collection / post-join folding discipline as the map phase.
  std::vector<std::vector<KeyValue>> reduced(keys.size());
  std::vector<std::size_t> red_refetched(keys.size(), 0);
  std::vector<std::size_t> red_faults(keys.size(), 0);
  std::vector<std::exception_ptr> red_errors(keys.size());
  pool_.parallel_for(0, keys.size(), [&](std::size_t i) {
    const std::uint64_t key = keys[i];
    const std::vector<std::uint64_t>& values = grouped.at(key);
    for (std::uint64_t attempt = 0;; ++attempt) {
      reduced[i].clear();
      try {
        reducer(key, values, reduced[i]);
      } catch (...) {
        red_errors[i] = std::current_exception();
        return;
      }
      if (!injector_.should_fail(FaultSite::kReducerTask, round_ord, key,
                                 attempt)) {
        return;
      }
      ++red_faults[i];
      red_refetched[i] += values.size();
      if (attempt + 1 >= retry_.max_attempts) {
        reduced[i].clear();
        red_errors[i] = std::make_exception_ptr(SubstrateFault(
            "reducer task failed; retry budget exhausted",
            {fault_site_name(FaultSite::kReducerTask), round_ord, attempt}));
        return;
      }
      retry_.backoff(injector_, FaultSite::kReducerTask, round_ord, key,
                     attempt);
    }
  });
  if (meter_ != nullptr) {
    std::size_t refetched = 0;
    std::size_t faults = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      refetched += red_refetched[i];
      faults += red_faults[i];
    }
    meter_->add_messages(refetched);
    meter_->add_shuffle_bytes(refetched * sizeof(KeyValue));
    meter_->add_faults(faults);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (red_errors[i] != nullptr) std::rethrow_exception(red_errors[i]);
  }

  std::vector<KeyValue> output;
  for (const auto& r : reduced) {
    output.insert(output.end(), r.begin(), r.end());
  }
  return output;
}

}  // namespace dp::mapreduce
