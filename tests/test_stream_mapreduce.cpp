// Tests for the streaming and MapReduce substrates: pass counting, shuffle
// grouping, reducer memory caps and round accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "access/in_memory.hpp"
#include "access/mapreduce.hpp"
#include "access/streaming.hpp"
#include "core/sampling.hpp"
#include "core/weight_levels.hpp"
#include "graph/generators.hpp"
#include "mapreduce/mapreduce.hpp"
#include "sparsify/deferred.hpp"
#include "stream/edge_file.hpp"
#include "stream/edge_stream.hpp"
#include "util/thread_pool.hpp"

namespace dp {
namespace {

TEST(EdgeStream, PassCountingAndOrder) {
  const Graph g = gen::gnm(20, 50, 1);
  ResourceMeter meter;
  EdgeStream stream(g, &meter);
  std::size_t count = 0;
  stream.for_each_pass([&](const Edge&) { ++count; });
  stream.for_each_pass([&](const Edge&) {});
  EXPECT_EQ(count, 50u);
  EXPECT_EQ(meter.passes(), 2u);
}

TEST(EdgeStream, ShuffledPassSameMultiset) {
  const Graph g = gen::gnm(15, 40, 2);
  EdgeStream stream(g);
  std::map<std::pair<Vertex, Vertex>, int> seen;
  stream.for_each_pass_shuffled(7, [&](const Edge& e) {
    seen[{std::min(e.u, e.v), std::max(e.u, e.v)}]++;
  });
  std::size_t total = 0;
  for (const auto& [key, c] : seen) total += static_cast<std::size_t>(c);
  EXPECT_EQ(total, 40u);
}

TEST(EdgeStream, ShuffleDeterministicInSeed) {
  const Graph g = gen::gnm(10, 30, 3);
  EdgeStream stream(g);
  std::vector<Vertex> order_a, order_b;
  stream.for_each_pass_shuffled(5, [&](const Edge& e) {
    order_a.push_back(e.u);
  });
  stream.for_each_pass_shuffled(5, [&](const Edge& e) {
    order_b.push_back(e.u);
  });
  EXPECT_EQ(order_a, order_b);
}

TEST(EdgeStream, TypeErasedOverloadMatchesTemplate) {
  const Graph g = gen::gnm(12, 30, 4);
  EdgeStream stream(g);
  std::vector<Vertex> a, b;
  const std::function<void(const Edge&)> erased = [&](const Edge& e) {
    a.push_back(e.u);
  };
  stream.for_each_pass(erased);                          // std::function
  stream.for_each_pass([&](const Edge& e) { b.push_back(e.u); });  // inline
  EXPECT_EQ(a, b);
}

TEST(EdgeStream, ShuffledPassCachesOrderPerSeed) {
  const Graph g = gen::gnm(14, 60, 6);
  ResourceMeter meter;
  EdgeStream stream(g, &meter);
  std::vector<Vertex> first, second, other_seed;
  stream.for_each_pass_shuffled(9, [&](const Edge& e) {
    first.push_back(e.u);
  });
  stream.for_each_pass_shuffled(9, [&](const Edge& e) {
    second.push_back(e.u);
  });
  stream.for_each_pass_shuffled(10, [&](const Edge& e) {
    other_seed.push_back(e.u);
  });
  EXPECT_EQ(first, second);        // cached permutation reused
  EXPECT_NE(first, other_seed);    // new seed regenerates
  EXPECT_EQ(meter.passes(), 3u);
}

TEST(EdgeStream, ConcurrentFirstShuffledPassesAreSafe) {
  // The shuffled-order cache builds each seed's permutation once as an
  // immutable entry (mutex + acquire/release, like Graph::neighbors' lazy
  // CSR), so concurrent FIRST passes — including different seeds — must
  // be safe and agree with serial passes.
  const Graph g = gen::gnm(40, 400, 11);
  std::vector<std::vector<Vertex>> serial(4);
  {
    EdgeStream reference(g);
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      reference.for_each_pass_shuffled(seed, [&](const Edge& e) {
        serial[seed].push_back(e.u);
      });
    }
  }
  for (int trial = 0; trial < 5; ++trial) {
    EdgeStream stream(g);
    std::vector<std::vector<Vertex>> seen(8);
    std::vector<std::thread> threads;
    threads.reserve(8);
    for (std::size_t i = 0; i < 8; ++i) {
      threads.emplace_back([&stream, &seen, i] {
        stream.for_each_pass_shuffled(i % 4, [&](const Edge& e) {
          seen[i].push_back(e.u);
        });
      });
    }
    for (std::thread& th : threads) th.join();
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(seen[i], serial[i % 4]) << "thread " << i;
    }
  }
}

TEST(EdgeStream, IndexedPassesYieldMatchingIds) {
  const Graph g = gen::gnm(18, 70, 12);
  EdgeStream stream(g);
  std::size_t count = 0;
  stream.for_each_pass_indexed([&](EdgeId e, const Edge& edge) {
    EXPECT_EQ(edge, g.edge(e));
    ++count;
  });
  EXPECT_EQ(count, g.num_edges());
  count = 0;
  stream.for_each_pass_shuffled_indexed(3, [&](EdgeId e, const Edge& edge) {
    EXPECT_EQ(edge, g.edge(e));
    ++count;
  });
  EXPECT_EQ(count, g.num_edges());
}

// ---- Batched sampling rounds across substrates (core/sampling). ----

std::vector<double> sampling_probabilities(std::size_t n,
                                           const std::vector<Edge>& edges) {
  std::vector<double> promise(edges.size(), 1.0);
  DeferredOptions dopt;
  dopt.xi = 0.5;
  dopt.gamma = 1.5;
  dopt.sampling_constant = 0.05;
  return deferred_probabilities(n, edges, promise, dopt, 123);
}

TEST(SamplingEngine, ThreadCountInvariantDraws) {
  const Graph g = gen::gnm(60, 800, 7);
  const std::vector<double> prob =
      sampling_probabilities(g.num_vertices(), g.edges());
  const std::size_t t = 5;
  core::SamplingEngine serial;
  serial.draw(prob, t, 3, 99);
  for (std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    core::SamplingEngine engine(&pool, /*grain=*/64);
    engine.draw(prob, t, 3, 99);
    EXPECT_EQ(engine.last_round().masks(), serial.last_round().masks());
    EXPECT_EQ(engine.last_round().union_support(),
              serial.last_round().union_support());
    EXPECT_EQ(engine.last_round().stored_total(),
              serial.last_round().stored_total());
    for (std::size_t q = 0; q < t; ++q) {
      EXPECT_EQ(engine.last_round().sparsifier(q),
                serial.last_round().sparsifier(q));
    }
  }
}

// One round drawn through every access substrate bound to one graph: the
// in-memory sweep, the streaming pass (graph and DPEF file sources) and
// the MapReduce round (plain and round-compressed) must store the same
// masks, while each substrate meters its own model.
TEST(SubstrateDraw, SameRoundsOnEverySubstrateEachMeteringItsModel) {
  const Graph g = gen::gnm(50, 600, 8);
  const core::LevelGraph lg(g, Capacities::unit(g.num_vertices()), 0.2);
  std::vector<Edge> retained;
  for (const EdgeId e : lg.retained()) retained.push_back(g.edge(e));
  const std::vector<double> prob =
      sampling_probabilities(g.num_vertices(), retained);
  const std::size_t t = 4;
  const std::uint64_t seed = 55;

  const std::string path = ::testing::TempDir() + "substrate_draw.dpef";
  stream::write_edge_file(path, g, /*block_edges=*/64);
  access::InMemorySubstrate in_memory;
  access::StreamingSubstrate streaming;
  access::StreamingSubstrate file_streaming;
  file_streaming.attach_source(
      stream::EdgeSource(std::make_shared<stream::EdgeFileStream>(path)));
  access::MapReduceSubstrate::Config plain_config;
  plain_config.threads = 2;
  access::MapReduceSubstrate map_reduce(plain_config);
  access::MapReduceSubstrate::Config batch_config = plain_config;
  batch_config.round_compression = 3;
  access::MapReduceSubstrate compressed(batch_config);
  access::Substrate* const substrates[] = {&in_memory, &streaming,
                                           &file_streaming, &map_reduce,
                                           &compressed};

  struct Drawn {
    std::vector<std::uint32_t> masks;
    std::vector<std::uint32_t> union_support;
    std::size_t stored_total;
  };
  ThreadPool pool(2);
  std::vector<Drawn> reference;
  for (access::Substrate* sub : substrates) {
    SCOPED_TRACE(std::string(sub->name()) +
                 (sub->source().file_backed() ? " (file)" : ""));
    sub->bind(g, lg, &pool, /*grain=*/64);
    // Two round iterations: opening sweep, draw, then release the store.
    std::vector<Drawn> drawn;
    std::size_t peak = 0;
    for (const std::uint64_t round : {2, 3}) {
      sub->multiplier_sweep(
          [](std::size_t, std::size_t, const access::RetainedEdge*) {});
      const core::SamplingRound& r = sub->draw(prob, t, round, seed);
      ASSERT_EQ(r.num_sparsifiers(), t);
      drawn.push_back({r.masks(), r.union_support(), r.stored_total()});
      EXPECT_EQ(sub->meter().stored_edges(), r.stored_total());
      peak = std::max(peak, r.stored_total());
      sub->release_stored(r.stored_total());
    }
    if (reference.empty()) reference = drawn;
    for (std::size_t i = 0; i < drawn.size(); ++i) {
      EXPECT_EQ(drawn[i].masks, reference[i].masks) << "draw " << i;
      EXPECT_EQ(drawn[i].union_support, reference[i].union_support)
          << "draw " << i;
      EXPECT_EQ(drawn[i].stored_total, reference[i].stored_total)
          << "draw " << i;
    }
    EXPECT_GT(drawn[0].stored_total, 0u);
    EXPECT_NE(drawn[0].masks, drawn[1].masks);  // rounds draw independently
    EXPECT_EQ(sub->meter().peak_edges(), peak);
    EXPECT_EQ(sub->meter().stored_edges(), 0u);

    // In memory: one round and one pass per draw. Streaming: one pass per
    // round iteration (the sweep's; the draw re-walks it) and one round
    // per draw. MapReduce: one simulator round (its mappers' pass) per
    // draw, or one per batch of three under round compression, with the
    // second draw served from the batch.
    const bool batched = sub == &compressed;
    EXPECT_EQ(sub->meter().rounds(), batched ? 1u : 2u);
    EXPECT_EQ(sub->meter().passes(), batched ? 1u : 2u);
    EXPECT_EQ(sub->meter().saved_rounds(), batched ? 1u : 0u);
    EXPECT_EQ(sub->meter().saved_passes(), batched ? 1u : 0u);
  }
  EXPECT_EQ(map_reduce.simulator_rounds(), 2u);
  EXPECT_EQ(compressed.simulator_rounds(), 1u);
  EXPECT_GT(map_reduce.meter().messages(), 0u);
}

TEST(SamplingEngine, SaturatedAndZeroProbabilities) {
  std::vector<double> prob{1.0, 0.0, 0.5, 2.0, -1.0};
  core::SamplingEngine engine;
  const core::SamplingRound& round = engine.draw(prob, 3, 0, 1);
  EXPECT_EQ(round.masks()[0], 0b111u);  // p >= 1: all sparsifiers
  EXPECT_EQ(round.masks()[1], 0u);      // p == 0: none
  EXPECT_EQ(round.masks()[3], 0b111u);
  EXPECT_EQ(round.masks()[4], 0u);
  for (std::uint32_t idx : round.union_support()) {
    EXPECT_NE(round.masks()[idx], 0u);
  }
}

TEST(MapReduce, WordCountStyleRound) {
  using mapreduce::KeyValue;
  mapreduce::Config config;
  config.machines = 4;
  ResourceMeter meter;
  mapreduce::Simulator sim(config, &meter);

  // Input: key = word id, value = 1. Reducer sums.
  std::vector<KeyValue> input;
  for (std::uint64_t w = 0; w < 10; ++w) {
    for (std::uint64_t i = 0; i <= w; ++i) input.push_back({w, 1});
  }
  const auto output = sim.round(
      input,
      [](const std::vector<KeyValue>& shard, std::vector<KeyValue>& emit) {
        for (const KeyValue& kv : shard) emit.push_back(kv);
      },
      [](std::uint64_t key, const std::vector<std::uint64_t>& values,
         std::vector<KeyValue>& emit) {
        std::uint64_t sum = 0;
        for (std::uint64_t v : values) sum += v;
        emit.push_back({key, sum});
      });
  ASSERT_EQ(output.size(), 10u);
  std::map<std::uint64_t, std::uint64_t> result;
  for (const KeyValue& kv : output) result[kv.key] = kv.value;
  for (std::uint64_t w = 0; w < 10; ++w) {
    EXPECT_EQ(result[w], w + 1);
  }
  EXPECT_EQ(meter.rounds(), 1u);
  EXPECT_EQ(meter.messages(), input.size());
}

TEST(MapReduce, ReducerMemoryCapEnforced) {
  using mapreduce::KeyValue;
  mapreduce::Config config;
  config.machines = 2;
  config.reducer_memory = 5;
  mapreduce::Simulator sim(config);
  std::vector<KeyValue> input(10, KeyValue{1, 1});  // all to one reducer
  try {
    sim.round(
        input,
        [](const std::vector<KeyValue>& shard, std::vector<KeyValue>& emit) {
          for (const KeyValue& kv : shard) emit.push_back(kv);
        },
        [](std::uint64_t, const std::vector<std::uint64_t>&,
           std::vector<KeyValue>&) {});
    FAIL() << "expected ReducerMemoryExceeded";
  } catch (const mapreduce::ReducerMemoryExceeded& err) {
    // Typed hierarchy: a model violation is a ConfigError (is-a
    // SolverError), distinct from the retriable SubstrateFault.
    EXPECT_NE(dynamic_cast<const ConfigError*>(&err), nullptr);
    EXPECT_NE(dynamic_cast<const SolverError*>(&err), nullptr);
    EXPECT_EQ(err.context().site, fault_site_name(FaultSite::kReducerTask));
  }
}

TEST(MapReduce, MultipleRoundsCounted) {
  using mapreduce::KeyValue;
  mapreduce::Simulator sim(mapreduce::Config{});
  std::vector<KeyValue> data{{1, 1}, {2, 2}};
  auto identity_map = [](const std::vector<KeyValue>& shard,
                         std::vector<KeyValue>& emit) {
    for (const KeyValue& kv : shard) emit.push_back(kv);
  };
  auto identity_reduce = [](std::uint64_t key,
                            const std::vector<std::uint64_t>& values,
                            std::vector<KeyValue>& emit) {
    for (std::uint64_t v : values) emit.push_back({key, v});
  };
  data = sim.round(data, identity_map, identity_reduce);
  data = sim.round(data, identity_map, identity_reduce);
  data = sim.round(data, identity_map, identity_reduce);
  EXPECT_EQ(sim.rounds_executed(), 3u);
  EXPECT_EQ(data.size(), 2u);
}

TEST(MapReduce, EmptyInputProducesEmptyOutput) {
  using mapreduce::KeyValue;
  mapreduce::Simulator sim(mapreduce::Config{});
  const auto output = sim.round(
      {},
      [](const std::vector<KeyValue>&, std::vector<KeyValue>&) {},
      [](std::uint64_t, const std::vector<std::uint64_t>&,
         std::vector<KeyValue>&) {});
  EXPECT_TRUE(output.empty());
}

TEST(MapReduce, DeterministicReduceOrderAcrossRuns) {
  using mapreduce::KeyValue;
  std::vector<KeyValue> input;
  for (std::uint64_t i = 0; i < 100; ++i) input.push_back({i % 7, i});
  auto run = [&] {
    mapreduce::Simulator sim(mapreduce::Config{});
    return sim.round(
        input,
        [](const std::vector<KeyValue>& shard, std::vector<KeyValue>& emit) {
          for (const KeyValue& kv : shard) emit.push_back(kv);
        },
        [](std::uint64_t key, const std::vector<std::uint64_t>& values,
           std::vector<KeyValue>& emit) {
          std::uint64_t sum = 0;
          for (std::uint64_t v : values) sum += v;
          emit.push_back({key, sum});
        });
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

}  // namespace
}  // namespace dp
