// Cluster determinism: an N-shard ClusterRuntime must chart byte-for-byte
// the landscape a single StreamEngine charts over the union trace — for
// shard counts {1, 2, 4, 8}, for the per-tuple and binary-block ingest
// paths, across estimation thread counts, and under aggressive
// batching/backpressure settings — and drop exactly the tuples the single
// engine drops as late. The recorded landscape_series.v1 history must be
// byte-equal too. Two tests drive the producer against live queries (the
// TSan targets): one front sharing its prepared meter with every shard, and
// a health sampler on its own thread at one and two shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "botnet/simulator.hpp"
#include "cluster/cluster_runtime.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/botmeter.hpp"
#include "dga/families.hpp"
#include "obs/landscape_history.hpp"
#include "stream/stream_engine.hpp"
#include "trace/block.hpp"

namespace botmeter::cluster {
namespace {

constexpr std::size_t kServers = 8;
constexpr std::int64_t kEpochs = 3;

std::vector<dns::ForwardedLookup> simulate_stream(std::uint64_t seed) {
  botnet::SimulationConfig sim;
  sim.dga = dga::newgoz_config();
  sim.bot_count = 24;
  sim.server_count = kServers;
  sim.epoch_count = kEpochs;
  sim.seed = seed;
  sim.timestamp_granularity = milliseconds(100);
  sim.record_raw = false;
  return botnet::simulate(sim).observable;
}

core::BotMeterConfig meter_config() {
  core::BotMeterConfig config;
  config.dga = dga::newgoz_config();
  return config;
}

ClusterConfig cluster_config(std::size_t shards, std::size_t threads) {
  ClusterConfig config;
  config.meter = meter_config();
  config.first_epoch = 0;
  config.epoch_count = kEpochs;
  config.router = ShardRouter::by_range(kServers, shards);
  config.meter.analyze_threads = threads;
  return config;
}

std::string landscape_bytes(const core::LandscapeReport& report) {
  return json::write(core::landscape_to_json(report));
}

/// Reference: one StreamEngine over the union trace, history attached.
struct Reference {
  std::string landscape;
  std::string history;
  std::uint64_t ingested = 0;
  std::uint64_t matched = 0;
  std::uint64_t unmatched = 0;
  std::uint64_t late_dropped = 0;
};

Reference single_engine_reference(
    std::span<const dns::ForwardedLookup> stream) {
  obs::LandscapeHistory history;
  stream::StreamEngineConfig config;
  config.meter = meter_config();
  config.first_epoch = 0;
  config.epoch_count = kEpochs;
  config.server_count = kServers;
  config.meter.telemetry.history = &history;
  stream::StreamEngine engine(std::move(config));
  engine.ingest(stream);
  Reference ref;
  ref.landscape = landscape_bytes(engine.finish());
  ref.history = json::write(history.to_json());
  ref.ingested = engine.ingested();
  ref.matched = engine.matched();
  ref.unmatched = engine.unmatched();
  ref.late_dropped = engine.late_dropped();
  return ref;
}

void expect_cluster_matches(const Reference& ref, ClusterRuntime& runtime,
                            obs::LandscapeHistory& history) {
  EXPECT_EQ(landscape_bytes(runtime.finish()), ref.landscape);
  EXPECT_EQ(json::write(history.to_json()), ref.history);

  std::uint64_t ingested = 0, matched = 0, unmatched = 0, late = 0;
  for (std::size_t i = 0; i < runtime.shard_count(); ++i) {
    const ShardStats stats = runtime.shard_stats(i);
    ingested += stats.ingested;
    matched += stats.matched;
    unmatched += stats.unmatched;
    late += stats.late_dropped;
  }
  EXPECT_EQ(ingested, ref.ingested);
  EXPECT_EQ(matched, ref.matched);
  EXPECT_EQ(unmatched, ref.unmatched);
  EXPECT_EQ(late, ref.late_dropped);
  EXPECT_EQ(runtime.merge_frontier(), kEpochs);
}

TEST(ClusterRuntimeTest, PerTupleShardCountsAreByteIdenticalToSingleEngine) {
  const auto stream = simulate_stream(71);
  ASSERT_FALSE(stream.empty());
  const Reference ref = single_engine_reference(stream);

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    obs::LandscapeHistory history;
    ClusterConfig config = cluster_config(shards, 1);
    config.meter.telemetry.history = &history;
    ClusterRuntime runtime(std::move(config));
    for (const dns::ForwardedLookup& lookup : stream) runtime.ingest(lookup);
    expect_cluster_matches(ref, runtime, history);
  }
}

TEST(ClusterRuntimeTest, BinaryBlockPathIsByteIdenticalToSingleEngine) {
  const auto stream = simulate_stream(72);
  const Reference ref = single_engine_reference(stream);

  std::ostringstream binary_os;
  trace::write_blocks(binary_os, stream, 1 << 10);  // force several blocks

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    obs::LandscapeHistory history;
    ClusterConfig config = cluster_config(shards, 1);
    config.meter.telemetry.history = &history;
    ClusterRuntime runtime(std::move(config));
    std::istringstream binary_is(binary_os.str());
    trace::for_each_block(
        binary_is, [&runtime](const dns::LookupColumns& columns,
                              std::span<const std::string_view> table) {
          runtime.ingest_block(columns, table);
        });
    expect_cluster_matches(ref, runtime, history);
  }
}

TEST(ClusterRuntimeTest, ThreadCountsAndBatchingNeverChangeBits) {
  const auto stream = simulate_stream(73);
  const Reference ref = single_engine_reference(stream);

  struct Variant {
    std::size_t threads;
    std::size_t flush_tuples;
    std::size_t queue_capacity;
  };
  // Oversubscribed estimation workers; tiny batches through a tiny queue
  // (constant producer backpressure); one jumbo batch.
  const Variant variants[] = {{2, 8192, 64}, {3, 64, 2}, {1, 1 << 20, 64}};

  for (const Variant& v : variants) {
    SCOPED_TRACE("threads=" + std::to_string(v.threads) +
                 " flush=" + std::to_string(v.flush_tuples) +
                 " queue=" + std::to_string(v.queue_capacity));
    obs::LandscapeHistory history;
    ClusterConfig config = cluster_config(4, v.threads);
    config.flush_tuples = v.flush_tuples;
    config.queue_capacity = v.queue_capacity;
    config.meter.telemetry.history = &history;
    ClusterRuntime runtime(std::move(config));
    for (const dns::ForwardedLookup& lookup : stream) runtime.ingest(lookup);
    expect_cluster_matches(ref, runtime, history);
  }
}

/// A union trace with one straggler: an epoch-0 DGA lookup of the last
/// server (owned by the last shard at 2, 4 and 8 shards), inserted right
/// after a first-shard server's tuple crossed epoch 0's close boundary —
/// late to the union, yet on time to its own shard's traffic, which has not
/// crossed yet. `crossing` is the index of that boundary-crossing tuple.
std::vector<dns::ForwardedLookup> stream_with_union_straggler(
    std::uint64_t seed, std::size_t* crossing = nullptr) {
  std::vector<dns::ForwardedLookup> stream = simulate_stream(seed);
  // Epoch 0 closes once the watermark reaches its end plus the default
  // lateness (one epoch).
  const TimePoint boundary{2 * meter_config().dga.epoch.millis()};

  core::BotMeter meter(meter_config());
  meter.prepare_epochs(0, kEpochs);
  const auto dga_lookup = std::find_if(
      stream.begin(), stream.end(), [&meter](const dns::ForwardedLookup& l) {
        const auto outcome = meter.matcher().match_one(l);
        return outcome && outcome->key.epoch == 0 &&
               l.forwarder.value() == kServers - 1;
      });
  if (dga_lookup == stream.end()) {
    ADD_FAILURE() << "no epoch-0 DGA lookup of the last server";
    return stream;
  }
  const dns::ForwardedLookup straggler = *dga_lookup;

  // Before the first tuple at or past the boundary, no server's traffic
  // has crossed it.
  const auto first_past = std::find_if(
      stream.begin(), stream.end(),
      [boundary](const dns::ForwardedLookup& l) { return l.timestamp >= boundary; });
  EXPECT_NE(first_past, stream.end());
  const auto at = static_cast<std::size_t>(first_past - stream.begin());
  const std::array<dns::ForwardedLookup, 2> inserted = {
      dns::ForwardedLookup{boundary, dns::ServerId{0}, "benign.example.com"},
      straggler};
  stream.insert(first_past, inserted.begin(), inserted.end());
  if (crossing != nullptr) *crossing = at;
  return stream;
}

// Matching once at the producer closes the cluster's lateness caveat: one
// front decides lateness against the global watermark, so a tuple that is
// late to the union but on time to its own shard's traffic is dropped
// exactly as the single engine drops it — same landscape, same history,
// same late count — at every shard count and on both ingest paths.
TEST(ClusterRuntimeTest, TupleLateToTheUnionIsDroppedAsTheSingleEngineDropsIt) {
  const std::vector<dns::ForwardedLookup> stream =
      stream_with_union_straggler(78);
  const Reference ref = single_engine_reference(stream);
  ASSERT_EQ(ref.late_dropped, 1u) << "the straggler is late to the union";

  std::ostringstream binary_os;
  trace::write_blocks(binary_os, stream, 1 << 10);

  for (const std::size_t shards : {2u, 4u, 8u}) {
    for (const bool blocks : {false, true}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " blocks=" + std::to_string(blocks));
      obs::LandscapeHistory history;
      ClusterConfig config = cluster_config(shards, 1);
      config.meter.telemetry.history = &history;
      ClusterRuntime runtime(std::move(config));
      ASSERT_EQ(runtime.router().shard_of(kServers - 1), shards - 1);
      ASSERT_NE(runtime.router().shard_of(0), shards - 1);
      if (blocks) {
        std::istringstream binary_is(binary_os.str());
        trace::for_each_block(
            binary_is, [&runtime](const dns::LookupColumns& columns,
                                  std::span<const std::string_view> table) {
              runtime.ingest_block(columns, table);
            });
      } else {
        for (const dns::ForwardedLookup& lookup : stream) runtime.ingest(lookup);
      }
      expect_cluster_matches(ref, runtime, history);
    }
  }
}

/// A two-shard cluster checkpoint of `prefix`, cut through cluster-level
/// ingest.
json::Value checkpoint_of(std::span<const dns::ForwardedLookup> prefix) {
  ClusterRuntime runtime(cluster_config(2, 1));
  runtime.ingest(prefix);
  return runtime.checkpoint();
}

/// A document whose shards closed different epochs, as one written by a
/// runtime whose shards closed on their own watermarks: shard 0's entry
/// from `ahead`, shard 1's from `behind`, nothing merged.
json::Value splice(const json::Value& ahead, const json::Value& behind) {
  json::Array shards = ahead.at("shards").as_array();
  shards[1] = behind.at("shards").as_array()[1];
  json::Object root = ahead.as_object();
  root["shards"] = json::Value(std::move(shards));
  root["merge_frontier"] = json::Value(0.0);
  return json::Value(std::move(root));
}

// A checkpoint whose shards closed different epochs resumes at the union
// watermark: the lagging shard first closes what the furthest one closed,
// so the straggler after the cut is dropped exactly as the single engine
// over the whole trace drops it. Shard 0 closed epoch 0 on the
// boundary-crossing tuple; shard 1, cut just before it, closed nothing.
TEST(ClusterRuntimeTest, RestoreOfDivergedShardsResumesAtTheUnionWatermark) {
  std::size_t crossing = 0;
  const std::vector<dns::ForwardedLookup> stream =
      stream_with_union_straggler(78, &crossing);
  const Reference ref = single_engine_reference(stream);
  ASSERT_EQ(ref.late_dropped, 1u);
  const auto trace = std::span<const dns::ForwardedLookup>(stream);
  ASSERT_EQ(trace[crossing].forwarder.value(), 0u);

  const json::Value checkpoint =
      splice(checkpoint_of(trace.first(crossing + 1)),
             checkpoint_of(trace.first(crossing)));
  obs::LandscapeHistory history;
  ClusterConfig config = cluster_config(2, 1);
  config.meter.telemetry.history = &history;
  ClusterRuntime resumed(std::move(config));
  resumed.restore(checkpoint);
  ASSERT_EQ(resumed.shard_stats(0).next_epoch_to_close, 1);
  ASSERT_EQ(resumed.shard_stats(1).next_epoch_to_close, 0);
  EXPECT_EQ(resumed.merge_frontier(), 0);
  resumed.ingest(trace.subspan(crossing + 1));
  expect_cluster_matches(ref, resumed, history);
}

// What the runtime refuses to restore over: any ingest or advance, at one
// shard (the engine holds the tuple or the watermark) and at two (the front
// does, with the tuple still in a pending batch and no shard thread started).
TEST(ClusterRuntimeTest, RestoreRejectsARuntimeThatAlreadyIngested) {
  const dns::ForwardedLookup lookup{TimePoint{0}, dns::ServerId{0}, "x"};
  for (const std::size_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const json::Value checkpoint =
        ClusterRuntime(cluster_config(shards, 1)).checkpoint();
    {
      ClusterRuntime runtime(cluster_config(shards, 1));
      runtime.ingest(lookup);
      EXPECT_THROW(runtime.restore(checkpoint), ConfigError);
    }
    {
      ClusterRuntime runtime(cluster_config(shards, 1));
      runtime.advance(TimePoint{1});
      EXPECT_THROW(runtime.restore(checkpoint), ConfigError);
    }
    ClusterRuntime fresh(cluster_config(shards, 1));
    EXPECT_NO_THROW(fresh.restore(checkpoint));
  }
}

// The TSan target for matching at the producer: one cluster-level front
// feeds four back-only shards through small evidence batches and a tiny
// queue, every shard estimating through the front's shared, read-only
// meter on two workers, while a query thread polls the merged view, health
// and stats. Concurrency may change timing, never bits.
TEST(ClusterRuntimeTest, ClusterLevelBlocksAndQueriesStayByteIdentical) {
  const auto stream = simulate_stream(79);
  const Reference ref = single_engine_reference(stream);
  std::ostringstream binary_os;
  trace::write_blocks(binary_os, stream, 1 << 10);

  constexpr std::size_t kShards = 4;
  obs::LandscapeHistory history;
  ClusterConfig config = cluster_config(kShards, 2);
  config.flush_tuples = 16;
  config.queue_capacity = 4;
  config.meter.telemetry.history = &history;
  ClusterRuntime runtime(std::move(config));

  std::atomic<bool> done{false};
  std::thread query([&runtime, &history, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)runtime.merge_frontier();
      (void)json::write(runtime.health_json());
      for (std::size_t i = 0; i < kShards; ++i) (void)runtime.shard_stats(i);
      (void)history.latest_json();
      std::this_thread::yield();
    }
  });
  std::istringstream binary_is(binary_os.str());
  trace::for_each_block(
      binary_is, [&runtime](const dns::LookupColumns& columns,
                            std::span<const std::string_view> table) {
        runtime.ingest_block(columns, table);
      });
  done.store(true, std::memory_order_relaxed);
  query.join();

  expect_cluster_matches(ref, runtime, history);
}

// A one-shard runtime is a plain engine on the caller's thread: every close
// is merged and published before the ingest call that crossed its boundary
// returns — no flush(), no pending batch, no shard thread to wait for. The
// merge frontier therefore tracks a bare engine fed the same calls exactly,
// call by call.
TEST(ClusterRuntimeTest, SingleShardPublishesSynchronously) {
  const auto stream = simulate_stream(77);
  std::ostringstream binary_os;
  trace::write_blocks(binary_os, stream, 256);

  stream::StreamEngineConfig ec;
  ec.meter = meter_config();
  ec.first_epoch = 0;
  ec.epoch_count = kEpochs;
  ec.server_count = kServers;
  stream::StreamEngine engine(std::move(ec));

  ClusterRuntime runtime(cluster_config(1, 1));
  std::int64_t crossed = 0;
  std::istringstream binary_is(binary_os.str());
  trace::for_each_block(
      binary_is, [&](const dns::LookupColumns& columns,
                     std::span<const std::string_view> table) {
        const std::int64_t before = engine.next_epoch_to_close();
        engine.ingest_block(columns, table);
        runtime.ingest_block(columns, table);
        if (engine.next_epoch_to_close() > before) ++crossed;
        ASSERT_EQ(runtime.merge_frontier(), engine.next_epoch_to_close());
        ASSERT_EQ(runtime.shard_stats(0).ingested, engine.ingested());
      });
  ASSERT_GT(crossed, 0) << "the trace must cross a close boundary mid-feed";

  // A watermark past the horizon closes everything on the spot.
  runtime.advance(TimePoint{days(365).millis()});
  EXPECT_EQ(runtime.merge_frontier(), kEpochs);
}

// drain() waits, through each shard's queue, until every batch sent before
// it is applied: the merged epochs are then exactly those the front closed
// (what botmeter_cluster --no-final prints), and the shard counters cover
// the whole input. Right after flush() alone the shard threads are usually
// still applying the last close.
TEST(ClusterRuntimeTest, DrainAppliesEveryBatchSentBeforeIt) {
  const auto stream = simulate_stream(78);
  stream::StreamEngineConfig ec;
  ec.meter = meter_config();
  ec.first_epoch = 0;
  ec.epoch_count = kEpochs;
  ec.server_count = kServers;
  stream::StreamEngine engine(std::move(ec));
  for (const dns::ForwardedLookup& lookup : stream) engine.ingest(lookup);
  const std::int64_t closed = engine.next_epoch_to_close();
  ASSERT_GT(closed, 0) << "the trace must close an epoch mid-feed";
  ASSERT_LT(closed, kEpochs);

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    for (int run = 0; run < 4; ++run) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " run=" + std::to_string(run));
      ClusterRuntime runtime(cluster_config(shards, 1));
      for (const dns::ForwardedLookup& lookup : stream) runtime.ingest(lookup);
      runtime.drain();
      EXPECT_EQ(runtime.merge_frontier(), closed);
      std::uint64_t ingested = 0;
      for (std::size_t i = 0; i < runtime.shard_count(); ++i) {
        ingested += runtime.shard_stats(i).ingested;
      }
      EXPECT_EQ(ingested, stream.size());
      runtime.drain();  // nothing new sent: returns with the same cut
      EXPECT_EQ(runtime.merge_frontier(), closed);
      (void)runtime.finish();
      runtime.drain();  // sealed: nothing to wait for
      EXPECT_EQ(runtime.merge_frontier(), kEpochs);
    }
  }
}

// A shard that closed every epoch while the other closed none holds the
// merged landscape back by the whole horizon: the cluster must say so even
// though each shard is individually healthy.
TEST(ClusterRuntimeTest, FrontierLagDegradesClusterHealth) {
  const auto stream = simulate_stream(76);
  ClusterRuntime closed_all(cluster_config(2, 1));
  closed_all.ingest(stream);
  closed_all.advance(TimePoint{days(365).millis()});
  const json::Value checkpoint =
      splice(closed_all.checkpoint(),
             ClusterRuntime(cluster_config(2, 1)).checkpoint());

  ClusterConfig config = cluster_config(2, 1);
  config.health = stream::StreamHealthConfig{};
  ClusterRuntime runtime(std::move(config));
  runtime.restore(checkpoint);
  ASSERT_EQ(runtime.max_shard_progress(), kEpochs);
  EXPECT_EQ(runtime.merge_frontier(), 0);

  // A lag of 3 epochs: at least 2 (degraded), short of 8 (unhealthy).
  const stream::HealthState state = runtime.sample_health(1000.0);
  EXPECT_EQ(state, stream::HealthState::kDegraded);
  const json::Value health = runtime.health_json();
  EXPECT_EQ(health.at("schema").as_string(), "botmeter.cluster_health.v1");
  EXPECT_EQ(health.at("frontier_lag").as_int(), kEpochs);
  EXPECT_EQ(health.at("shards").as_array().size(), 2u);
}

// A sample reads what the shards have applied, not an older round: once
// every batch is applied, one sample_health() shows each shard's published
// counters in health_json().
TEST(ClusterHealthTest, OneSampleReadsEveryAppliedBatch) {
  const auto stream = simulate_stream(74);
  std::ostringstream binary_os;
  trace::write_blocks(binary_os, stream, 256);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ClusterConfig config = cluster_config(shards, 1);
    config.health = stream::StreamHealthConfig{};
    ClusterRuntime runtime(std::move(config));
    std::istringstream binary_is(binary_os.str());
    trace::for_each_block(
        binary_is, [&runtime](const dns::LookupColumns& columns,
                              std::span<const std::string_view> table) {
          runtime.ingest_block(columns, table);
        });
    // Every batch applied: the shards' published counts cover the input.
    runtime.drain();
    std::uint64_t applied = 0;
    for (std::size_t i = 0; i < runtime.shard_count(); ++i) {
      applied += runtime.shard_stats(i).ingested;
    }
    ASSERT_EQ(applied, stream.size());

    (void)runtime.sample_health(1000.0);
    const json::Value health = runtime.health_json();
    const json::Array& entries = health.at("shards").as_array();
    ASSERT_EQ(entries.size(), shards);
    for (std::size_t i = 0; i < shards; ++i) {
      SCOPED_TRACE("shard " + std::to_string(i));
      const ShardStats stats = runtime.shard_stats(i);
      EXPECT_GT(stats.ingested, 0u);
      EXPECT_EQ(entries[i].at("ingested").as_int(),
                static_cast<std::int64_t>(stats.ingested));
      EXPECT_EQ(entries[i].at("matched").as_int(),
                static_cast<std::int64_t>(stats.matched));
      EXPECT_EQ(entries[i].at("late_dropped").as_int(),
                static_cast<std::int64_t>(stats.late_dropped));
      EXPECT_EQ(entries[i].at("epochs_closed").as_int(),
                static_cast<std::int64_t>(stats.epochs_closed));
    }
    (void)runtime.finish();
  }
}

// Any one thread may sample, at any shard count, and a sample never waits
// on a shard: a sampler thread loops over what /healthz and /metrics read
// while the producer ingests blocks against backpressure. At one shard the
// engine runs on the producer thread itself. Sampling may change timing,
// never bits (the TSan target).
TEST(ClusterHealthTest, AnyThreadSamplesWhileTheProducerIngests) {
  const auto stream = simulate_stream(73);
  const Reference ref = single_engine_reference(stream);
  std::ostringstream binary_os;
  trace::write_blocks(binary_os, stream, 256);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ClusterConfig config = cluster_config(shards, 1);
    config.health = stream::StreamHealthConfig{};
    config.flush_tuples = 64;
    config.queue_capacity = 2;
    ClusterRuntime runtime(std::move(config));

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> samples{0};
    std::thread sampler([&runtime, &done, &samples] {
      double now_ms = 0.0;
      while (!done.load(std::memory_order_relaxed)) {
        (void)runtime.sample_health(now_ms += 1.0);
        (void)json::write(runtime.health_json());
        for (std::size_t i = 0; i < runtime.shard_count(); ++i) {
          (void)runtime.shard_stats(i);
        }
        samples.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      }
    });
    // Ingest only once the sampler runs, so the two overlap.
    while (samples.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }
    std::istringstream binary_is(binary_os.str());
    trace::for_each_block(
        binary_is, [&runtime](const dns::LookupColumns& columns,
                              std::span<const std::string_view> table) {
          runtime.ingest_block(columns, table);
        });
    const std::string landscape = landscape_bytes(runtime.finish());
    done.store(true, std::memory_order_relaxed);
    sampler.join();

    EXPECT_EQ(landscape, ref.landscape);
    std::uint64_t ingested = 0;
    for (std::size_t i = 0; i < runtime.shard_count(); ++i) {
      ingested += runtime.shard_stats(i).ingested;
    }
    EXPECT_EQ(ingested, ref.ingested);
  }
}

// A server past the routed width is a ConfigError at every shard count and
// on both ingest paths, as it is for analyze and a single StreamEngine.
TEST(ClusterRuntimeTest, ServerOutsideTheRoutedWidthIsRejected) {
  const std::vector<dns::ForwardedLookup> outside{
      {TimePoint{0}, dns::ServerId{kServers}, "benign.example"}};
  std::ostringstream binary_os;
  trace::write_blocks(binary_os, outside, 1 << 10);
  for (const std::size_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    {
      ClusterRuntime runtime(cluster_config(shards, 1));
      EXPECT_THROW(runtime.ingest(outside.front()), ConfigError);
    }
    ClusterRuntime runtime(cluster_config(shards, 1));
    std::istringstream binary_is(binary_os.str());
    EXPECT_THROW(
        trace::for_each_block(
            binary_is, [&runtime](const dns::LookupColumns& columns,
                                  std::span<const std::string_view> table) {
              runtime.ingest_block(columns, table);
            }),
        ConfigError);
  }
}

// A block whose third tuple names a domain id outside the table is
// rejected before that tuple reaches any shard: the runtime is left exactly
// as per-tuple ingest of the first two leaves it, so every shard's counters
// add up and no shard's watermark passes the front's. A shrinking table is
// a ConfigError at every shard count.
TEST(ClusterRuntimeTest, BlockIngestRejectsAnOutOfTableIdBeforeCountingIt) {
  const std::vector<std::string_view> table{"only.example"};
  // Servers 0 and 4 fall to different shards of a 2-shard router.
  const std::int64_t t[] = {1000, 2000, 3000};
  const std::uint32_t server[] = {0, 4, 4};
  const std::uint32_t domain[] = {0, 0, 5};
  const dns::LookupColumns block{t, server, domain};
  for (const std::size_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ClusterRuntime runtime(cluster_config(shards, 1));
    EXPECT_THROW(runtime.ingest_block(block, table), DataError);
    const json::Value rejected = runtime.checkpoint();

    ClusterRuntime prefix(cluster_config(shards, 1));
    prefix.ingest(dns::ForwardedLookup{TimePoint{1000}, dns::ServerId{0},
                                       "only.example"});
    prefix.ingest(dns::ForwardedLookup{TimePoint{2000}, dns::ServerId{4},
                                       "only.example"});
    EXPECT_EQ(json::write(rejected), json::write(prefix.checkpoint()));

    std::uint64_t ingested = 0;
    for (std::size_t i = 0; i < runtime.shard_count(); ++i) {
      const ShardStats stats = runtime.shard_stats(i);
      EXPECT_EQ(stats.ingested,
                stats.matched + stats.unmatched + stats.late_dropped);
      ASSERT_TRUE(stats.watermark.has_value());
      EXPECT_LE(*stats.watermark, TimePoint{2000});
      ingested += stats.ingested;
    }
    EXPECT_EQ(ingested, 2u);

    const std::vector<std::string_view> smaller;
    EXPECT_THROW(runtime.ingest_block(block, smaller), ConfigError);
  }
}

TEST(ClusterRuntimeTest, ValidatesConfiguration) {
  // Empty router (default-constructed placeholder).
  ClusterConfig config;
  config.meter = meter_config();
  EXPECT_THROW(ClusterRuntime{config}, ConfigError);

  ClusterConfig zero_queue = cluster_config(2, 1);
  zero_queue.queue_capacity = 0;
  EXPECT_THROW(ClusterRuntime{zero_queue}, ConfigError);
}

}  // namespace
}  // namespace botmeter::cluster
