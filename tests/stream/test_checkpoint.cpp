// Checkpoint/restore of stream::StreamEngine: a restarted monitor must
// continue bit-identically from the serialized state, and the checkpoint
// document itself must be byte-stable through the common/json writer.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "botnet/simulator.hpp"
#include "common/json.hpp"
#include "core/botmeter.hpp"
#include "dga/families.hpp"
#include "stream/stream_engine.hpp"

namespace botmeter::stream {
namespace {

StreamEngineConfig newgoz_config(std::int64_t epochs, std::size_t servers) {
  StreamEngineConfig config;
  config.meter.dga = dga::newgoz_config();
  config.first_epoch = 0;
  config.epoch_count = epochs;
  config.server_count = servers;
  return config;
}

std::vector<dns::ForwardedLookup> simulate_stream(std::int64_t epochs,
                                                  std::size_t servers,
                                                  std::uint64_t seed) {
  botnet::SimulationConfig sim;
  sim.dga = dga::newgoz_config();
  sim.bot_count = 16;
  sim.server_count = servers;
  sim.epoch_count = epochs;
  sim.seed = seed;
  sim.record_raw = false;
  return botnet::simulate(sim).observable;
}

void expect_reports_equal(const core::LandscapeReport& a,
                          const core::LandscapeReport& b) {
  EXPECT_EQ(a.estimator_name, b.estimator_name);
  ASSERT_EQ(a.servers.size(), b.servers.size());
  for (std::size_t i = 0; i < a.servers.size(); ++i) {
    EXPECT_EQ(a.servers[i].population, b.servers[i].population);
    EXPECT_EQ(a.servers[i].per_epoch, b.servers[i].per_epoch);
    EXPECT_EQ(a.servers[i].matched_lookups, b.servers[i].matched_lookups);
    EXPECT_EQ(a.servers[i].interval90, b.servers[i].interval90);
  }
}

TEST(StreamCheckpointTest, MidStreamRoundTripContinuesBitIdentically) {
  const auto stream = simulate_stream(3, 2, 51);
  ASSERT_GT(stream.size(), 10u);

  // Reference: one engine over the whole stream, collecting epoch reports.
  StreamEngine reference(newgoz_config(3, 2));
  std::vector<EpochReport> reference_reports;
  reference.on_epoch_close([&reference_reports](const EpochReport& r) {
    reference_reports.push_back(r);
  });
  reference.ingest(stream);
  const core::LandscapeReport want = reference.finish();

  // Checkpointed run: ingest 40%, serialize, throw the engine away, restore
  // into a fresh one, ingest the rest.
  const std::size_t split = (stream.size() * 2) / 5;
  std::string checkpoint_text;
  {
    StreamEngine first(newgoz_config(3, 2));
    first.ingest(std::span<const dns::ForwardedLookup>(stream).first(split));
    checkpoint_text = json::write(first.checkpoint());
  }
  StreamEngine resumed(newgoz_config(3, 2));
  resumed.restore(json::parse(checkpoint_text));
  std::vector<EpochReport> resumed_reports;
  resumed.on_epoch_close([&resumed_reports](const EpochReport& r) {
    resumed_reports.push_back(r);
  });
  resumed.ingest(std::span<const dns::ForwardedLookup>(stream).subspan(split));
  const core::LandscapeReport got = resumed.finish();

  expect_reports_equal(got, want);
  EXPECT_EQ(resumed.ingested(), reference.ingested());
  EXPECT_EQ(resumed.matched(), reference.matched());
  EXPECT_EQ(resumed.unmatched(), reference.unmatched());
  EXPECT_EQ(resumed.late_dropped(), 0u);

  // Every epoch the resumed engine closed reports the same values the
  // reference published for that epoch.
  ASSERT_FALSE(resumed_reports.empty());
  for (const EpochReport& report : resumed_reports) {
    const EpochReport& ref = reference_reports[static_cast<std::size_t>(
        report.epoch)];
    ASSERT_EQ(report.servers.size(), ref.servers.size());
    for (std::size_t s = 0; s < ref.servers.size(); ++s) {
      EXPECT_EQ(report.servers[s].population, ref.servers[s].population);
      EXPECT_EQ(report.servers[s].matched_lookups,
                ref.servers[s].matched_lookups);
    }
  }
}

TEST(StreamCheckpointTest, CheckpointIsByteStable) {
  const auto stream = simulate_stream(2, 2, 53);
  StreamEngine engine(newgoz_config(2, 2));
  engine.ingest(
      std::span<const dns::ForwardedLookup>(stream).first(stream.size() / 2));
  const std::string once = json::write(engine.checkpoint());
  EXPECT_EQ(json::write(json::parse(once)), once);
  // Checkpointing is read-only: taking it twice yields the same bytes.
  EXPECT_EQ(json::write(engine.checkpoint()), once);
}

TEST(StreamCheckpointTest, RestoreRejectsMismatchedConfiguration) {
  StreamEngine source(newgoz_config(2, 2));
  const json::Value checkpoint = source.checkpoint();

  {
    StreamEngine other(newgoz_config(3, 2));  // different horizon
    EXPECT_THROW(other.restore(checkpoint), DataError);
  }
  {
    StreamEngine other(newgoz_config(2, 4));  // different width
    EXPECT_THROW(other.restore(checkpoint), DataError);
  }
  {
    StreamEngineConfig config = newgoz_config(2, 2);
    config.meter.dga = dga::murofet_config();  // different family
    StreamEngine other(config);
    EXPECT_THROW(other.restore(checkpoint), DataError);
  }
  {
    StreamEngineConfig config = newgoz_config(2, 2);
    config.meter.estimator = "timing";  // different estimator
    StreamEngine other(config);
    EXPECT_THROW(other.restore(checkpoint), DataError);
  }
}

TEST(StreamCheckpointTest, RestoreRejectsUnknownSchemaAndUsedEngine) {
  StreamEngine source(newgoz_config(1, 1));
  {
    json::Value doc = source.checkpoint();
    json::Object broken = doc.as_object();
    broken["schema"] = json::Value(std::string("botmeter.other.v9"));
    StreamEngine other(newgoz_config(1, 1));
    EXPECT_THROW(other.restore(json::Value(std::move(broken))), DataError);
  }
  {
    auto pool_model = dga::make_pool_model(dga::newgoz_config());
    StreamEngine used(newgoz_config(1, 1));
    used.ingest(dns::ForwardedLookup{
        TimePoint{5}, dns::ServerId{0},
        pool_model->epoch_pool(0).domains[0]});
    EXPECT_THROW(used.restore(source.checkpoint()), ConfigError);
  }
}

// A checkpoint rejected mid-parse (here: a structurally valid document whose
// open section names a server outside the configured width — detected after
// the counters and closed rows already parsed) must leave the engine exactly
// as constructed: empty, with deterministic counters, and fully usable for
// both a fresh ingest run and a retried restore from an intact document.
TEST(StreamCheckpointTest, RejectedCheckpointLeavesEngineEmptyAndUsable) {
  const auto stream = simulate_stream(3, 2, 61);
  ASSERT_GT(stream.size(), 10u);

  StreamEngine reference(newgoz_config(3, 2));
  reference.ingest(stream);
  const std::string want =
      json::write(core::landscape_to_json(reference.finish()));

  // An otherwise-valid mid-stream checkpoint with one poisoned open bucket.
  const std::size_t split = (stream.size() * 2) / 5;
  StreamEngine source(newgoz_config(3, 2));
  source.ingest(std::span<const dns::ForwardedLookup>(stream).first(split));
  const json::Value intact = source.checkpoint();
  json::Object broken = intact.as_object();
  {
    json::Object bucket;
    bucket["server"] = json::Value(999.0);  // width is 2
    bucket["epoch"] = json::Value(2.0);
    bucket["t"] = json::Value(json::Array{});
    bucket["pos"] = json::Value(json::Array{});
    bucket["valid"] = json::Value(json::Array{});
    json::Array open = broken.at("open").as_array();
    open.emplace_back(std::move(bucket));
    broken["open"] = json::Value(std::move(open));
  }
  const json::Value corrupt{std::move(broken)};

  StreamEngine engine(newgoz_config(3, 2));
  EXPECT_THROW(engine.restore(corrupt), DataError);

  // Pinned: the failed restore left nothing behind.
  EXPECT_EQ(engine.ingested(), 0u);
  EXPECT_EQ(engine.matched(), 0u);
  EXPECT_EQ(engine.unmatched(), 0u);
  EXPECT_EQ(engine.late_dropped(), 0u);
  EXPECT_EQ(engine.resident_lookups(), 0u);
  EXPECT_EQ(engine.peak_resident_lookups(), 0u);
  EXPECT_FALSE(engine.watermark().has_value());
  EXPECT_EQ(engine.next_epoch_to_close(), 0);
  EXPECT_FALSE(engine.finished());

  // ...and the engine runs a full fresh ingest bit-identically.
  engine.ingest(stream);
  EXPECT_EQ(json::write(core::landscape_to_json(engine.finish())), want);

  // A failed restore may also be retried with the intact document.
  StreamEngine retry(newgoz_config(3, 2));
  EXPECT_THROW(retry.restore(corrupt), DataError);
  retry.restore(intact);
  retry.ingest(std::span<const dns::ForwardedLookup>(stream).subspan(split));
  EXPECT_EQ(json::write(core::landscape_to_json(retry.finish())), want);
}

/// Nine tuples over four servers and three open epochs (nothing closes: the
/// watermark stays inside epoch 1). Server 1 sees only benign traffic and
/// server 3 nothing; epoch 1 arrives out of order, and an epoch-2 domain is
/// looked up a day early.
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
      {TimePoint{1500}, dns::ServerId{1}, "benign.example"},
      lookup(3000, 0, 0, valid),
      lookup(4000, 2, 0, 7),
      lookup(day + 2000, 0, 1, 11),
      lookup(day + 2000, 2, 1, 11),
      lookup(day + 900, 2, 1, 4),
      lookup(day + 5000, 0, 2, 9),
      {TimePoint{day + 6000}, dns::ServerId{1}, "benign.example"},
  };
}

/// The checkpoint of golden_stream() under newgoz_config(3, 4), pinned byte
/// for byte: open buckets in (server, epoch) order, empty servers absent.
constexpr const char* kGoldenCheckpoint =
    R"({"closed":[],"config":{"detection_miss_rate":0,"dga_seed":1196382770,)"
    R"("epoch_count":3,"estimator":"","family":"newGoZ","first_epoch":0,)"
    R"("neg_ttl_ms":7200000,"server_count":4,"window_seed":7},)"
    R"("finished":false,"ingested":9,"late_dropped":0,"matched":7,)"
    R"("open":[{"epoch":0,"pos":[3,1394],"server":0,"t":[1000,)"
    R"(3000],"valid":[0,1]},{"epoch":1,"pos":[11],"server":0,)"
    R"("t":[86402000],"valid":[0]},{"epoch":2,"pos":[9],"server":0,)"
    R"("t":[86405000],"valid":[0]},{"epoch":0,"pos":[7],"server":2,)"
    R"("t":[4000],"valid":[0]},{"epoch":1,"pos":[11,4],"server":2,)"
    R"("t":[86402000,86400900],"valid":[0,0]}],"peak_resident":7,)"
    R"("schema":"botmeter.stream_checkpoint.v1","unmatched":2,)"
    R"("watermark_ms":86406000})";

TEST(StreamCheckpointTest, GoldenCheckpointBytesAreKept) {
  StreamEngine live(newgoz_config(3, 4));
  live.ingest(golden_stream());
  EXPECT_EQ(json::write(live.checkpoint()), kGoldenCheckpoint);

  StreamEngine restored(newgoz_config(3, 4));
  restored.restore(json::parse(kGoldenCheckpoint));
  EXPECT_EQ(json::write(restored.checkpoint()), kGoldenCheckpoint);
  EXPECT_EQ(restored.resident_lookups(), live.resident_lookups());
  EXPECT_EQ(restored.watermark(), live.watermark());

  // Both continue to the same landscape.
  EXPECT_EQ(json::write(core::landscape_to_json(restored.finish())),
            json::write(core::landscape_to_json(live.finish())));
}

// An open bucket listed twice would be loaded twice: its evidence would
// reach the estimator twice and count twice as resident.
TEST(StreamCheckpointTest, OpenBucketListedTwiceIsRejected) {
  json::Object doubled = json::parse(kGoldenCheckpoint).as_object();
  json::Array open = doubled.at("open").as_array();
  open.push_back(open.front());  // (server 0, epoch 0) again
  doubled["open"] = json::Value(std::move(open));

  StreamEngine engine(newgoz_config(3, 4));
  try {
    engine.restore(json::Value(std::move(doubled)));
    ADD_FAILURE() << "a duplicated open bucket was accepted";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("(server 0, epoch 0)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(engine.resident_lookups(), 0u);
  EXPECT_EQ(engine.ingested(), 0u);
  engine.restore(json::parse(kGoldenCheckpoint));  // still usable
  EXPECT_EQ(engine.resident_lookups(), 7u);
}

TEST(StreamCheckpointTest, FinishedEngineRoundTripsSealed) {
  const auto stream = simulate_stream(2, 1, 59);
  StreamEngine engine(newgoz_config(2, 1));
  engine.ingest(stream);
  const core::LandscapeReport report = engine.finish();

  StreamEngine restored(newgoz_config(2, 1));
  restored.restore(engine.checkpoint());
  EXPECT_TRUE(restored.finished());
  EXPECT_EQ(restored.ingested(), engine.ingested());
  EXPECT_THROW(restored.ingest(dns::ForwardedLookup{TimePoint{0},
                                                    dns::ServerId{0}, "x.com"}),
               ConfigError);
  // The closed cells round-tripped: counters and state agree with the
  // original's final landscape.
  EXPECT_EQ(restored.resident_lookups(), 0u);
  (void)report;
}

}  // namespace
}  // namespace botmeter::stream
