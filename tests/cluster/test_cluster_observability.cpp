// The pipeline-observability layer must be provably free and provably
// informative: with lag attribution, the flight recorder, and flow tracing
// all attached, the merged landscape stays byte-identical to the bare run
// at every shard count and codec; the straggler table names the shard whose
// closes complete the merged rows; the journal records the epoch lifecycle
// and auto-dumps when the cluster turns unhealthy; and a producer racing
// queries and journal readers stays consistent (the TSan target).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "botnet/simulator.hpp"
#include "cluster/cluster_runtime.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/botmeter.hpp"
#include "dga/families.hpp"
#include "obs/event_journal.hpp"
#include "obs/lag_tracker.hpp"
#include "obs/landscape_history.hpp"
#include "obs/trace.hpp"
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

struct Reference {
  std::string landscape;
  std::string history;
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
  return ref;
}

/// The journal document's event rows of one kind, oldest first.
json::Array events_of(const obs::EventJournal& journal, obs::EventKind kind) {
  const json::Value doc = journal.to_json();
  json::Array events;
  for (const json::Value& event : doc.at("events").as_array()) {
    if (event.at("kind").as_string() == obs::event_kind_name(kind)) {
      events.push_back(event);
    }
  }
  return events;
}

std::size_t count_kind(const obs::EventJournal& journal, obs::EventKind kind) {
  return events_of(journal, kind).size();
}

// The byte-identity guarantee with the full observability layer attached:
// lag tracker + journal + trace session at shard counts {1, 2, 4, 8} over
// the per-tuple path, the binary-block path, and an oversubscribed
// thread/batching variant. Instrumentation may observe, never perturb.
TEST(ClusterObservability, FullInstrumentationNeverChangesBits) {
  const auto stream = simulate_stream(81);
  ASSERT_FALSE(stream.empty());
  const Reference ref = single_engine_reference(stream);

  std::ostringstream binary_os;
  trace::write_blocks(binary_os, stream, 1 << 10);

  struct Variant {
    std::size_t shards;
    std::size_t threads;
    std::size_t flush_tuples;
    std::size_t queue_capacity;
    bool block_codec;
  };
  const Variant variants[] = {
      {1, 1, 8192, 64, false}, {2, 1, 8192, 64, false},
      {4, 1, 8192, 64, false}, {8, 1, 8192, 64, false},
      {4, 1, 8192, 64, true},  {8, 1, 8192, 64, true},
      {4, 3, 64, 2, false},  // oversubscribed workers, constant backpressure
  };

  for (const Variant& v : variants) {
    SCOPED_TRACE("shards=" + std::to_string(v.shards) +
                 " threads=" + std::to_string(v.threads) +
                 " block=" + std::to_string(v.block_codec));
    obs::LandscapeHistory history;
    obs::LagTracker lag(v.shards);
    obs::EventJournal journal;
    obs::TraceSession trace_session;
    ClusterConfig config = cluster_config(v.shards, v.threads);
    config.flush_tuples = v.flush_tuples;
    config.queue_capacity = v.queue_capacity;
    config.meter.telemetry.history = &history;
    config.meter.telemetry.lag = &lag;
    config.meter.telemetry.journal = &journal;
    config.meter.telemetry.trace = &trace_session;
    ClusterRuntime runtime(std::move(config));

    if (v.block_codec) {
      std::istringstream binary_is(binary_os.str());
      trace::for_each_block(
          binary_is, [&runtime](const dns::LookupColumns& columns,
                                std::span<const std::string_view> table) {
            runtime.ingest_block(columns, table);
          });
    } else {
      for (const dns::ForwardedLookup& lookup : stream) runtime.ingest(lookup);
    }
    EXPECT_EQ(landscape_bytes(runtime.finish()), ref.landscape);
    EXPECT_EQ(json::write(history.to_json()), ref.history);
    // The instrumentation actually observed the run it did not perturb.
    EXPECT_GT(journal.to_json().at("next_seq").as_int(), 0);
    EXPECT_NE(lag.attribution_json().find("slowest_stage"), nullptr);
  }
}

// Every lifecycle moment lands in the journal and the lag tracker exactly
// once — on the threaded runtime fed per tuple, and on the inline one-shard
// runtime fed blocks, which has no producer batches and no queue.
TEST(ClusterObservability, JournalAndLagObserveTheEpochLifecycle) {
  const auto stream = simulate_stream(82);
  std::ostringstream binary_os;
  trace::write_blocks(binary_os, stream, 1 << 10);

  for (const std::size_t shards : {std::size_t{4}, std::size_t{1}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const bool inline_shard = shards == 1;
    obs::LagTracker lag(shards);
    obs::EventJournal journal;
    ClusterConfig config = cluster_config(shards, 1);
    config.health = stream::StreamHealthConfig{};
    config.meter.telemetry.lag = &lag;
    config.meter.telemetry.journal = &journal;
    ClusterRuntime runtime(std::move(config));

    if (inline_shard) {
      std::istringstream binary_is(binary_os.str());
      trace::for_each_block(
          binary_is, [&runtime](const dns::LookupColumns& columns,
                                std::span<const std::string_view> table) {
            runtime.ingest_block(columns, table);
          });
    } else {
      for (const dns::ForwardedLookup& lookup : stream) runtime.ingest(lookup);
    }
    // The watermark is there already: no close, one journal event.
    runtime.advance(stream.back().timestamp);
    (void)landscape_bytes(runtime.finish());

    // One explicit advance is one cluster-level event.
    const auto advances = events_of(journal, obs::EventKind::kWatermarkAdvance);
    ASSERT_EQ(advances.size(), 1u);
    EXPECT_EQ(advances[0].at("shard").as_int(), -1);

    // Every shard closed every epoch, each close journaled once; every
    // merged epoch published once.
    EXPECT_EQ(count_kind(journal, obs::EventKind::kEpochClose),
              shards * static_cast<std::size_t>(kEpochs));
    EXPECT_EQ(count_kind(journal, obs::EventKind::kMergePublish),
              static_cast<std::size_t>(kEpochs));

    // The straggler table has one row per merged epoch, in merge order.
    const json::Value lag_doc = lag.to_json();
    const json::Array& stragglers = lag_doc.at("stragglers").as_array();
    ASSERT_EQ(stragglers.size(), static_cast<std::size_t>(kEpochs));
    for (std::int64_t e = 0; e < kEpochs; ++e) {
      const json::Value& row = stragglers[static_cast<std::size_t>(e)];
      EXPECT_EQ(row.at("epoch").as_int(), e);
      EXPECT_LT(row.at("straggler_shard").as_int(),
                static_cast<std::int64_t>(shards));
    }

    // Per-shard stage histograms saw the batches, each close once, and the
    // merges. An inline shard forms no producer batch and has no queue.
    for (std::size_t shard = 0; shard < shards; ++shard) {
      const json::Value& stages =
          lag_doc.at("shards").as_array()[shard].at("stages");
      const auto count = [&stages](obs::LagStage stage) {
        return stages.at(std::string(obs::lag_stage_name(stage)))
            .at("count")
            .as_int();
      };
      EXPECT_GT(count(obs::LagStage::kShardIngest), 0) << "shard " << shard;
      EXPECT_EQ(count(obs::LagStage::kEpochClose), kEpochs)
          << "shard " << shard;
      EXPECT_EQ(count(obs::LagStage::kMergePublish), kEpochs)
          << "shard " << shard;
      if (inline_shard) {
        EXPECT_EQ(count(obs::LagStage::kProducerBatch), 0);
        EXPECT_EQ(count(obs::LagStage::kQueueWait), 0);
      } else {
        EXPECT_GT(count(obs::LagStage::kProducerBatch), 0) << "shard " << shard;
        EXPECT_GT(count(obs::LagStage::kQueueWait), 0) << "shard " << shard;
      }
    }

    // The health document names the lag attribution.
    (void)runtime.sample_health(1000.0);
    const json::Value health = runtime.health_json();
    EXPECT_EQ(health.at("schema").as_string(), "botmeter.cluster_health.v1");
    EXPECT_NE(health.at("lag").find("slowest_stage"), nullptr);

    // Checkpointing is a journaled lifecycle moment too.
    (void)runtime.checkpoint();
    EXPECT_EQ(count_kind(journal, obs::EventKind::kCheckpoint), 1u);
  }
}

// One clock: a close's or merge's journal event is stamped with the very
// reading that ends its span, so /events and the Perfetto trace agree.
TEST(ClusterObservability, JournalStampsEndTheirSpans) {
  const auto stream = simulate_stream(86);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    obs::EventJournal journal;
    obs::TraceSession trace_session;
    ClusterConfig config = cluster_config(shards, 1);
    config.meter.telemetry.journal = &journal;
    config.meter.telemetry.trace = &trace_session;
    ClusterRuntime runtime(std::move(config));
    for (const dns::ForwardedLookup& lookup : stream) runtime.ingest(lookup);
    (void)runtime.finish();

    const std::vector<obs::TraceSession::Span> spans = trace_session.spans();
    const auto span_ends = [&spans](std::string_view phase) {
      std::vector<double> ends;
      for (const obs::TraceSession::Span& span : spans) {
        if (span.phase == phase) ends.push_back(span.start_ms + span.millis);
      }
      std::sort(ends.begin(), ends.end());
      return ends;
    };
    const auto stamps = [&journal](obs::EventKind kind) {
      std::vector<double> t;
      for (const json::Value& event : events_of(journal, kind)) {
        t.push_back(event.at("t_ms").as_double());
      }
      std::sort(t.begin(), t.end());
      return t;
    };
    const struct {
      obs::EventKind kind;
      std::string_view phase;
      std::size_t expected;
    } stages[] = {
        {obs::EventKind::kEpochClose, "cluster.epoch_close",
         shards * static_cast<std::size_t>(kEpochs)},
        {obs::EventKind::kMergePublish, "cluster.merge_publish",
         static_cast<std::size_t>(kEpochs)},
    };
    for (const auto& stage : stages) {
      SCOPED_TRACE(std::string(stage.phase));
      const std::vector<double> ends = span_ends(stage.phase);
      const std::vector<double> t = stamps(stage.kind);
      ASSERT_EQ(ends.size(), stage.expected);
      ASSERT_EQ(t.size(), stage.expected);
      for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_DOUBLE_EQ(t[i], ends[i]) << "event " << i;
      }
    }
  }
}

// With lateness past the horizon every epoch closes in finish(), which
// finishes the shard engines one after another in shard order on the
// calling thread: the last shard completes every merged row, and the
// straggler table must name it, every epoch.
TEST(ClusterObservability, StragglerTableNamesTheLastCloser) {
  const auto stream = simulate_stream(83);
  constexpr std::size_t kShards = 4;
  obs::LagTracker lag(kShards);
  obs::EventJournal journal;
  ClusterConfig config = cluster_config(kShards, 1);
  config.allowed_lateness = days(365);
  config.meter.telemetry.lag = &lag;
  config.meter.telemetry.journal = &journal;
  ClusterRuntime runtime(std::move(config));

  runtime.ingest(stream);
  runtime.advance(stream.back().timestamp);  // inside the lateness: no close
  EXPECT_EQ(runtime.max_shard_progress(), 0);
  (void)runtime.finish();
  ASSERT_EQ(runtime.merge_frontier(), kEpochs);

  const json::Value lag_doc = lag.to_json();
  const json::Array& stragglers = lag_doc.at("stragglers").as_array();
  ASSERT_EQ(stragglers.size(), static_cast<std::size_t>(kEpochs));
  for (const json::Value& row : stragglers) {
    const std::int64_t epoch = row.at("epoch").as_int();
    EXPECT_EQ(row.at("straggler_shard").as_int(),
              static_cast<std::int64_t>(kShards - 1))
        << "epoch " << epoch;
    EXPECT_GT(row.at("straggle_ms").as_double(), 0.0) << "epoch " << epoch;
    EXPECT_GE(row.at("merge_ms").as_double(),
              row.at("last_close_ms").as_double());
  }

  // The explicit advance is one fact: journaled once, at cluster level.
  const auto advances = events_of(journal, obs::EventKind::kWatermarkAdvance);
  ASSERT_EQ(advances.size(), 1u);
  EXPECT_EQ(advances[0].at("shard").as_int(), -1);
  EXPECT_DOUBLE_EQ(advances[0].at("value").as_double(),
                   static_cast<double>(stream.back().timestamp.millis()));
}

// The TSan target: one producer drives cluster-level ingest while a query
// thread polls exactly what the /debug/lag, /events, and /healthz handlers
// read. Concurrency may change timing, never bits.
TEST(ClusterObservability, ConcurrentProducerAndObservabilityQueries) {
  const auto stream = simulate_stream(84);
  const Reference ref = single_engine_reference(stream);

  constexpr std::size_t kShards = 4;
  obs::LandscapeHistory history;
  obs::LagTracker lag(kShards);
  obs::EventJournal journal;
  ClusterConfig config = cluster_config(kShards, 1);
  config.flush_tuples = 256;  // plenty of queue traffic
  config.meter.telemetry.history = &history;
  // No health config: a health monitor stamps its state onto history rows,
  // which would (legitimately) differ from the bare single-engine reference.
  config.meter.telemetry.lag = &lag;
  config.meter.telemetry.journal = &journal;
  ClusterRuntime runtime(std::move(config));

  std::atomic<bool> done{false};
  std::thread query([&runtime, &lag, &journal, &done] {
    std::uint64_t cursor = 0;
    while (!done.load(std::memory_order_relaxed)) {
      (void)json::write(lag.to_json());
      const json::Value events = journal.to_json(cursor);
      (void)json::write(events);
      cursor = static_cast<std::uint64_t>(events.at("next_seq").as_int());
      (void)json::write(runtime.health_json());
      std::this_thread::yield();
    }
  });
  runtime.ingest(stream);
  runtime.drain();
  done.store(true, std::memory_order_relaxed);
  query.join();

  EXPECT_EQ(landscape_bytes(runtime.finish()), ref.landscape);
  EXPECT_EQ(json::write(history.to_json()), ref.history);
}

/// A two-shard checkpoint in which shard 0 closed every epoch of `stream`
/// and shard 1 none, as a runtime whose shards closed on their own
/// watermarks could write it.
json::Value diverged_checkpoint(std::span<const dns::ForwardedLookup> stream) {
  ClusterRuntime closed_all(cluster_config(2, 1));
  closed_all.ingest(stream);
  closed_all.advance(TimePoint{days(365).millis()});
  const json::Value ahead = closed_all.checkpoint();
  const json::Value behind = ClusterRuntime(cluster_config(2, 1)).checkpoint();
  json::Array shards = ahead.at("shards").as_array();
  shards[1] = behind.at("shards").as_array()[1];
  json::Object root = ahead.as_object();
  root["shards"] = json::Value(std::move(shards));
  root["merge_frontier"] = json::Value(0.0);
  return json::Value(std::move(root));
}

TEST(ClusterObservability, JournalAutoDumpsWhenClusterTurnsUnhealthy) {
  // Shard 0 closed every epoch, shard 1 none: the frontier lags by the
  // whole horizon (3 epochs), which degrades the cluster. Five minutes with
  // no watermark movement then turn it unhealthy — the moment the flight
  // recorder must hit the disk on its own.
  const auto stream = simulate_stream(85);
  obs::LagTracker lag(2);
  obs::EventJournal journal;
  const std::string dump_path =
      testing::TempDir() + "/botmeter_cluster_autodump.json";
  std::remove(dump_path.c_str());
  journal.set_dump_path(dump_path);

  ClusterConfig config = cluster_config(2, 1);
  config.health = stream::StreamHealthConfig{};
  config.meter.telemetry.lag = &lag;
  config.meter.telemetry.journal = &journal;
  ClusterRuntime runtime(std::move(config));
  runtime.restore(diverged_checkpoint(stream));
  ASSERT_EQ(runtime.max_shard_progress() - runtime.merge_frontier(), kEpochs);

  ASSERT_EQ(runtime.sample_health(1000.0), stream::HealthState::kDegraded);
  EXPECT_FALSE(std::ifstream(dump_path).good()) << "dumped while degraded";
  const double stalled_ms =
      1000.0 + stream::StreamHealthConfig{}.unhealthy_watermark_lag_ms;
  ASSERT_EQ(runtime.sample_health(stalled_ms),
            stream::HealthState::kUnhealthy);

  // The transition was journaled and the black box written.
  EXPECT_GE(count_kind(journal, obs::EventKind::kHealthTransition), 1u);
  std::ifstream dumped(dump_path);
  ASSERT_TRUE(dumped.good()) << "auto-dump did not write " << dump_path;
  const std::string text((std::istreambuf_iterator<char>(dumped)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(json::parse(text).at("schema").as_string(), "botmeter.events.v1");
}

TEST(ClusterObservability, LagTrackerShardCountMustMatchRouter) {
  obs::LagTracker lag(3);  // router below has 4 shards
  ClusterConfig config = cluster_config(4, 1);
  config.meter.telemetry.lag = &lag;
  EXPECT_THROW(ClusterRuntime{std::move(config)}, ConfigError);
}

}  // namespace
}  // namespace botmeter::cluster
