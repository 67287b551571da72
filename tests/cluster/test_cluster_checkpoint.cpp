// Cluster checkpoint/restore: pausing a live sharded runtime mid-stream,
// serializing it, and resuming — in place or in a freshly constructed
// runtime — must not change a single bit of the merged landscape. The
// envelope must be byte-stable, and every mismatch (schema, routing, shard
// count, tampered router counts, tampered frontier) must be loud.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "botnet/simulator.hpp"
#include "cluster/cluster_runtime.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/botmeter.hpp"
#include "dga/families.hpp"
#include "obs/landscape_history.hpp"

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
  sim.record_raw = false;
  return botnet::simulate(sim).observable;
}

ClusterConfig cluster_config(std::size_t shards) {
  ClusterConfig config;
  config.meter.dga = dga::newgoz_config();
  config.first_epoch = 0;
  config.epoch_count = kEpochs;
  config.router = ShardRouter::by_range(kServers, shards);
  return config;
}

std::string landscape_bytes(core::LandscapeReport report) {
  return json::write(core::landscape_to_json(report));
}

TEST(ClusterCheckpointTest, MidRunPauseResumeAndColdRestoreAreBitIdentical) {
  const auto stream = simulate_stream(81);
  ASSERT_GT(stream.size(), 10u);
  const std::size_t split = (stream.size() * 2) / 5;

  // Reference: one uninterrupted cluster run.
  std::string want;
  {
    ClusterRuntime reference(cluster_config(2));
    reference.ingest(std::span<const dns::ForwardedLookup>(stream));
    want = landscape_bytes(reference.finish());
  }

  // Live run: ingest 40% (shard threads running), checkpoint, keep going.
  ClusterRuntime live(cluster_config(2));
  live.ingest(std::span<const dns::ForwardedLookup>(stream).first(split));
  const json::Value checkpoint = live.checkpoint();
  EXPECT_EQ(checkpoint.at("schema").as_string(),
            "botmeter.cluster_checkpoint.v1");
  EXPECT_EQ(checkpoint.at("shards").as_array().size(), 2u);

  // The pause barrier is transparent: the same runtime resumes and matches.
  live.ingest(std::span<const dns::ForwardedLookup>(stream).subspan(split));
  EXPECT_EQ(landscape_bytes(live.finish()), want);

  // Cold restore: a fresh runtime loads the envelope and ingests the rest.
  obs::LandscapeHistory history;
  ClusterConfig resumed_config = cluster_config(2);
  resumed_config.meter.telemetry.history = &history;
  ClusterRuntime resumed(std::move(resumed_config));
  resumed.restore(checkpoint);
  const std::int64_t frontier_at_restore = resumed.merge_frontier();
  resumed.ingest(std::span<const dns::ForwardedLookup>(stream).subspan(split));
  EXPECT_EQ(landscape_bytes(resumed.finish()), want);
  EXPECT_EQ(resumed.merge_frontier(), kEpochs);

  // History only records merges that happened *after* the restore (replayed
  // rows are silent, mirroring StreamEngine::restore).
  EXPECT_EQ(history.epochs_recorded(),
            static_cast<std::uint64_t>(kEpochs - frontier_at_restore));
}

TEST(ClusterCheckpointTest, CheckpointIsByteStable) {
  const auto stream = simulate_stream(82);
  ClusterRuntime runtime(cluster_config(2));
  runtime.ingest(std::span<const dns::ForwardedLookup>(stream)
                     .first(stream.size() / 2));
  const std::string once = json::write(runtime.checkpoint());
  EXPECT_EQ(json::write(json::parse(once)), once);
  // Taking it again (another pause barrier) yields the same bytes.
  EXPECT_EQ(json::write(runtime.checkpoint()), once);
  // A never-started runtime checkpoints too (the empty envelope).
  ClusterRuntime idle(cluster_config(2));
  const json::Value empty = idle.checkpoint();
  EXPECT_EQ(empty.at("merge_frontier").as_int(), 0);
}

TEST(ClusterCheckpointTest, RestoreRejectsMismatchedEnvelopes) {
  const auto stream = simulate_stream(83);
  ClusterRuntime source(cluster_config(2));
  source.ingest(std::span<const dns::ForwardedLookup>(stream)
                    .first(stream.size() / 2));
  const json::Value checkpoint = source.checkpoint();

  {
    // Same servers, different sharding: resumed traffic would scatter onto
    // the wrong engines.
    ClusterRuntime other(cluster_config(4));
    EXPECT_THROW(other.restore(checkpoint), DataError);
  }
  {
    json::Object broken = checkpoint.as_object();
    broken["schema"] = json::Value(std::string("botmeter.other.v9"));
    ClusterRuntime other(cluster_config(2));
    EXPECT_THROW(other.restore(json::Value(std::move(broken))), DataError);
  }
  {
    // A frontier inconsistent with the replayed shard states is corruption.
    json::Object broken = checkpoint.as_object();
    broken["merge_frontier"] =
        json::Value(static_cast<double>(kEpochs + 1));
    ClusterRuntime other(cluster_config(2));
    EXPECT_THROW(other.restore(json::Value(std::move(broken))), DataError);
  }
  {
    // A tampered router count fails as data before it sizes anything: a
    // negative count would wrap to a huge size, a huge one would allocate.
    for (const double count : {-1.0, 0.0, 1e12}) {
      for (const char* key : {"server_count", "shard_count"}) {
        SCOPED_TRACE(std::string(key) + "=" + std::to_string(count));
        json::Object router = checkpoint.at("router").as_object();
        router[key] = json::Value(count);
        json::Object broken = checkpoint.as_object();
        broken["router"] = json::Value(std::move(router));
        ClusterRuntime other(cluster_config(2));
        EXPECT_THROW(other.restore(json::Value(std::move(broken))), DataError);
      }
    }
  }
  {
    // Same counts, explicit mode: a different routing too.
    json::Object router = checkpoint.at("router").as_object();
    router["mode"] = json::Value(std::string("explicit"));
    json::Object broken = checkpoint.as_object();
    broken["router"] = json::Value(std::move(router));
    ClusterRuntime other(cluster_config(2));
    EXPECT_THROW(other.restore(json::Value(std::move(broken))), DataError);
  }
  {
    // Used runtimes refuse restore outright.
    ClusterRuntime used(cluster_config(2));
    used.ingest(stream.front());
    used.flush();
    EXPECT_THROW(used.restore(checkpoint), ConfigError);
  }
}

}  // namespace
}  // namespace botmeter::cluster
