// Cluster checkpoint/restore: cutting a live sharded runtime mid-stream,
// serializing it, and resuming — in place or in a freshly constructed
// runtime — must not change a single bit of the merged landscape. The
// envelope must be byte-stable (two documents are pinned byte for byte),
// and every mismatch (schema, routing, shard count, tampered router counts,
// tampered frontier) must be loud.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
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

  // The cut is transparent: the same runtime resumes and matches.
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
  // Taking it again (another cut) yields the same bytes.
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

/// Eighteen tuples over four servers and three epochs, two servers per
/// shard. The first twelve (three 4-tuple blocks) cross epoch 0's close
/// boundary, so the cut holds closed cells and open buckets on both shards;
/// the rest stay in epochs 1 and 2.
std::vector<dns::ForwardedLookup> golden_stream() {
  const auto model = dga::make_pool_model(dga::newgoz_config());
  const std::int64_t day = days(1).millis();
  const auto lookup = [&model](std::int64_t t_ms, std::uint32_t server,
                               std::int64_t epoch, std::uint32_t pos) {
    return dns::ForwardedLookup{TimePoint{t_ms}, dns::ServerId{server},
                                model->epoch_pool(epoch).domains[pos]};
  };
  const std::uint32_t valid = model->epoch_pool(0).valid_positions.front();
  return {
      lookup(1000, 0, 0, 3),
      lookup(1500, 1, 0, 8),
      lookup(2000, 0, 0, 5),
      lookup(3000, 0, 0, valid),
      lookup(4000, 2, 0, 7),
      lookup(4500, 2, 0, 12),
      {TimePoint{5000}, dns::ServerId{3}, "benign.example"},
      lookup(day + 900, 2, 1, 4),
      lookup(day + 2000, 0, 1, 11),
      lookup(day + 3000, 3, 1, 6),
      lookup(day + 3500, 3, 1, 2),
      lookup(2 * day + 5000, 1, 2, 9),
      // --- cut ---
      lookup(day + 4000, 2, 1, 11),
      lookup(2 * day + 6000, 1, 2, 10),
      lookup(2 * day + 7000, 2, 2, 13),
      lookup(day + 9000, 3, 1, 15),
      {TimePoint{2 * day + 9000}, dns::ServerId{1}, "benign.example"},
      lookup(2 * day + 9500, 0, 2, 14),
  };
}
constexpr std::size_t kGoldenCut = 12;

/// The cluster_checkpoint.v1 documents of golden_stream() cut after
/// kGoldenCut tuples, pinned byte for byte: exact, and compact with spilled
/// cells.
constexpr const char* kGoldenExact =
    R"({"merge_frontier":1,"router":{"mode":"range","server_count":4,)"
    R"("shard_count":2},"schema":"botmeter.cluster_checkpoint.v1",)"
    R"("shards":[{"closed":[{"epoch":0,"hi":[0.004397454205900431,)"
    R"(0.002198608126491308],"lo":[0.004397454205900431,)"
    R"(0.002198608126491308],"matched":[3,1],"value":[0.004397454205900431,)"
    R"(0.002198608126491308]}],"config":{"detection_miss_rate":0,)"
    R"("dga_seed":1196382770,"epoch_count":3,"estimator":"",)"
    R"("family":"newGoZ","first_epoch":0,"neg_ttl_ms":7200000,)"
    R"("server_count":2,"window_seed":7},"finished":false,"ingested":6,)"
    R"("late_dropped":0,"matched":6,"open":[{"epoch":1,"pos":[11],"server":0,)"
    R"("t":[86402000],"valid":[0]},{"epoch":2,"pos":[9],"server":1,)"
    R"("t":[172805000],"valid":[0]}],"peak_resident":6,)"
    R"("schema":"botmeter.stream_checkpoint.v1","unmatched":0,)"
    R"("watermark_ms":172805000},{"closed":[{"epoch":0,)"
    R"("hi":[0.004397454205900431,null],"lo":[0.004397454205900431,null],)"
    R"("matched":[2,0],"value":[0.004397454205900431,0]}],)"
    R"("config":{"detection_miss_rate":0,"dga_seed":1196382770,)"
    R"("epoch_count":3,"estimator":"","family":"newGoZ","first_epoch":0,)"
    R"("neg_ttl_ms":7200000,"server_count":2,"window_seed":7},)"
    R"("finished":false,"ingested":6,"late_dropped":0,"matched":5,)"
    R"("open":[{"epoch":1,"pos":[4],"server":0,"t":[86400900],"valid":[0]},)"
    R"({"epoch":1,"pos":[6,2],"server":1,"t":[86403000,86403500],"valid":[0,)"
    R"(0]}],"peak_resident":5,"schema":"botmeter.stream_checkpoint.v1",)"
    R"("unmatched":1,"watermark_ms":86403500}]})";
constexpr const char* kGoldenCompact =
    R"({"merge_frontier":1,"router":{"mode":"range","server_count":4,)"
    R"("shard_count":2},"schema":"botmeter.cluster_checkpoint.v1",)"
    R"("shards":[{"closed":[{"epoch":0,"hi":[0.004397454205900431,)"
    R"(0.002198608126491308],"lo":[0.004397454205900431,)"
    R"(0.002198608126491308],"matched":[3,1],"value":[0.004397454205900431,)"
    R"(0.002198608126491308]}],"compact_spills":1,)"
    R"("config":{"compact_kmv_k":8,"compact_spill_threshold":2,)"
    R"("compact_state":true,"detection_miss_rate":0,"dga_seed":1196382770,)"
    R"("epoch_count":3,"estimator":"","family":"newGoZ","first_epoch":0,)"
    R"("neg_ttl_ms":7200000,"server_count":2,"window_seed":7},)"
    R"("finished":false,"ingested":6,"late_dropped":0,"matched":6,)"
    R"("open":[{"epoch":1,"pos":[11],"server":0,"t":[86402000],"valid":[0]},)"
    R"({"epoch":2,"pos":[9],"server":1,"t":[172805000],"valid":[0]}],)"
    R"("peak_resident":6,"schema":"botmeter.stream_checkpoint.v1",)"
    R"("unmatched":0,"watermark_ms":172805000},{"closed":[{"epoch":0,)"
    R"("hi":[0.004397454205900431,null],"lo":[0.004397454205900431,null],)"
    R"("matched":[2,0],"value":[0.004397454205900431,0]}],"compact_spills":2,)"
    R"("config":{"compact_kmv_k":8,"compact_spill_threshold":2,)"
    R"("compact_state":true,"detection_miss_rate":0,"dga_seed":1196382770,)"
    R"("epoch_count":3,"estimator":"","family":"newGoZ","first_epoch":0,)"
    R"("neg_ttl_ms":7200000,"server_count":2,"window_seed":7},)"
    R"("finished":false,"ingested":6,"late_dropped":0,"matched":5,)"
    R"("open":[{"epoch":1,"pos":[4],"server":0,"t":[86400900],"valid":[0]},)"
    R"({"compact":{"first_ms":86403000,"kmv":{"k":8,"saturated":false,)"
    R"("values":[2,6]},"last_ms":86403500,"matched":2,"nxd":2,)"
    R"("spec":{"kmv_k":8,"slot_count":0,"window_ms":86400000,)"
    R"("window_start_ms":86400000},"valid":0},"epoch":1,"pos":[],"server":1,)"
    R"("t":[],"valid":[]}],"peak_resident":5,)"
    R"("schema":"botmeter.stream_checkpoint.v1","unmatched":1,)"
    R"("watermark_ms":86403500}]})";

ClusterConfig golden_config(bool compact) {
  ClusterConfig config;
  config.meter.dga = dga::newgoz_config();
  config.first_epoch = 0;
  config.epoch_count = kEpochs;
  config.router = ShardRouter::by_range(4, 2);
  config.flush_tuples = 2;  // the shard threads start with the first block
  config.compact_state = compact;
  config.compact_spill_threshold = 2;
  config.compact.kmv_k = 8;
  return config;
}

TEST(ClusterCheckpointTest, GoldenCheckpointBytesAreKept) {
  const std::vector<dns::ForwardedLookup> stream = golden_stream();
  std::ostringstream blocks;
  trace::write_blocks(blocks, stream, 4);
  for (const bool compact : {false, true}) {
    SCOPED_TRACE(compact ? "compact" : "exact");
    const std::string golden = compact ? kGoldenCompact : kGoldenExact;

    stream::StreamEngineConfig single;
    single.meter.dga = dga::newgoz_config();
    single.first_epoch = 0;
    single.epoch_count = kEpochs;
    single.server_count = 4;
    single.compact_state = compact;
    single.compact_spill_threshold = 2;
    single.compact.kmv_k = 8;
    stream::StreamEngine engine(std::move(single));
    engine.ingest(stream);
    const std::string want = landscape_bytes(engine.finish());

    // Cut mid-feed, with the shard threads running on block ingest.
    ClusterRuntime live(golden_config(compact));
    std::string cut;
    std::size_t fed = 0;
    std::istringstream blocks_is(blocks.str());
    trace::for_each_block(
        blocks_is, [&](const dns::LookupColumns& columns,
                       std::span<const std::string_view> table) {
          live.ingest_block(columns, table);
          fed += columns.size();
          if (fed == kGoldenCut) cut = json::write(live.checkpoint());
        });
    EXPECT_EQ(cut, golden);
    EXPECT_EQ(landscape_bytes(live.finish()), want);

    ClusterRuntime restored(golden_config(compact));
    restored.restore(json::parse(golden));
    EXPECT_EQ(json::write(restored.checkpoint()), golden);
    restored.ingest(std::span<const dns::ForwardedLookup>(stream).subspan(
        kGoldenCut));
    EXPECT_EQ(landscape_bytes(restored.finish()), want);
  }
}

}  // namespace
}  // namespace botmeter::cluster
