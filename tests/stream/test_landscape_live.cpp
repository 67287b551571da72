// Landscape history under the two pipelines and under concurrency:
//  - streaming and batch record the same rows, so their
//    botmeter.landscape_series.v1 documents are byte-equal for one trace;
//  - attaching a history never perturbs the landscape, for any thread count;
//  - the HTTP exporter thread may query the history while the ingest thread
//    records — every document parses and the final state equals a quiescent
//    read (the test stream_tests runs under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "botnet/simulator.hpp"
#include "common/json.hpp"
#include "core/botmeter.hpp"
#include "dga/families.hpp"
#include "obs/landscape_history.hpp"
#include "stream/stream_engine.hpp"

namespace botmeter::stream {
namespace {

std::vector<dns::ForwardedLookup> simulate_stream(std::uint32_t bots,
                                                  std::size_t servers,
                                                  std::int64_t epochs,
                                                  std::uint64_t seed) {
  botnet::SimulationConfig sim;
  sim.dga = dga::newgoz_config();
  sim.bot_count = bots;
  sim.server_count = servers;
  sim.first_epoch = 0;
  sim.epoch_count = epochs;
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

StreamEngineConfig engine_config(std::size_t servers, std::int64_t epochs,
                                 std::size_t threads) {
  StreamEngineConfig config;
  config.meter = meter_config();
  config.first_epoch = 0;
  config.epoch_count = epochs;
  config.server_count = servers;
  config.meter.analyze_threads = threads;
  return config;
}

TEST(LandscapeLive, StreamAndBatchEmitByteEqualSeriesDocuments) {
  constexpr std::size_t kServers = 3;
  constexpr std::int64_t kEpochs = 4;
  const auto stream = simulate_stream(24, kServers, kEpochs, 11);
  ASSERT_FALSE(stream.empty());

  obs::LandscapeHistory batch_history;
  core::BotMeterConfig batch_config = meter_config();
  batch_config.telemetry.history = &batch_history;
  core::BotMeter meter(batch_config);
  meter.prepare_epochs(0, kEpochs);
  (void)meter.analyze(stream, kServers);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::LandscapeHistory stream_history;
    StreamEngineConfig config = engine_config(kServers, kEpochs, threads);
    config.meter.telemetry.history = &stream_history;
    StreamEngine engine(config);
    engine.ingest(stream);
    (void)engine.finish();

    EXPECT_EQ(stream_history.epochs_recorded(), batch_history.epochs_recorded());
    EXPECT_EQ(json::write(stream_history.to_json()),
              json::write(batch_history.to_json()));
  }
}

TEST(LandscapeLive, AttachingHistoryNeverPerturbsTheLandscape) {
  constexpr std::size_t kServers = 2;
  constexpr std::int64_t kEpochs = 2;
  const auto stream = simulate_stream(16, kServers, kEpochs, 12);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StreamEngine bare(engine_config(kServers, kEpochs, threads));
    bare.ingest(stream);
    const core::LandscapeReport without = bare.finish();

    obs::LandscapeHistory history;
    StreamEngineConfig config = engine_config(kServers, kEpochs, threads);
    config.meter.telemetry.history = &history;
    StreamEngine observed(config);
    observed.ingest(stream);
    const core::LandscapeReport with = observed.finish();

    EXPECT_EQ(json::write(core::landscape_to_json(with)),
              json::write(core::landscape_to_json(without)));
    // The recorded rows are exactly the report's per-epoch cells.
    const obs::LandscapeSeries latest =
        obs::parse_landscape_series(history.latest_json());
    ASSERT_EQ(latest.snapshots.size(), 1u);
    ASSERT_EQ(latest.snapshots[0].servers.size(), kServers);
  }
}

TEST(LandscapeLive, ConcurrentQueriesDuringRecordingStayConsistent) {
  // The copy-under-mutex contract: an exporter thread hammers every query
  // while the "ingest" thread records rows. Run under TSan in CI.
  obs::LandscapeHistoryConfig config;
  config.retain_recent = 64;
  obs::LandscapeHistory history(config);

  constexpr std::int64_t kRows = 400;
  constexpr std::size_t kServers = 8;
  std::atomic<bool> done{false};

  std::thread recorder([&] {
    for (std::int64_t e = 0; e < kRows; ++e) {
      obs::LandscapeEpochRecord row;
      row.epoch = e;
      row.family = "newGoZ";
      row.estimator = "bernoulli";
      row.servers.resize(kServers);
      const double fe = static_cast<double>(e);
      for (std::size_t s = 0; s < kServers; ++s) {
        row.servers[s].population = fe + static_cast<double>(s);
        row.servers[s].matched = static_cast<std::uint64_t>(e);
        row.servers[s].interval90 = {fe, fe + 2.0};
      }
      row.health = e % 2 == 0 ? std::optional<std::string>("ok") : std::nullopt;
      history.record(row);
    }
    done.store(true, std::memory_order_release);
  });

  std::uint64_t observed = 0;
  while (!done.load(std::memory_order_acquire)) {
    // Every concurrently-served document must parse and be self-consistent.
    const obs::LandscapeSeries full =
        obs::parse_landscape_series(history.to_json());
    const obs::LandscapeSeries latest =
        obs::parse_landscape_series(history.latest_json());
    const obs::LandscapeSeries window =
        obs::parse_landscape_series(history.window_json(std::nullopt, 0, kRows));
    EXPECT_LE(latest.snapshots.size(), 1u);
    // The two documents are taken at different instants while the recorder
    // runs, so only per-document invariants hold: each parses (which already
    // enforces strictly increasing epochs), the retained set respects the
    // configured bounds, and — because the retained count never shrinks in
    // this configuration — the later window read sees at least as much.
    EXPECT_LE(full.snapshots.size(),
              config.retain_recent + obs::kRetainCoarse);
    EXPECT_GE(window.snapshots.size(), full.snapshots.size());
    (void)json::write(history.summary_json());
    observed = full.epochs_recorded;
  }
  recorder.join();
  EXPECT_LE(observed, static_cast<std::uint64_t>(kRows));

  // Quiescent read equals a replay of what the document claims.
  const obs::LandscapeSeries final_series =
      obs::parse_landscape_series(history.to_json());
  EXPECT_EQ(final_series.epochs_recorded, static_cast<std::uint64_t>(kRows));
  const std::vector<obs::LandscapeSnapshot> quiescent =
      obs::parse_landscape_series(history.window_json(std::nullopt, 0, kRows))
          .snapshots;
  ASSERT_EQ(final_series.snapshots.size(), quiescent.size());
  for (std::size_t i = 0; i < quiescent.size(); ++i) {
    EXPECT_EQ(final_series.snapshots[i], quiescent[i]) << "snapshot " << i;
  }
}

}  // namespace
}  // namespace botmeter::stream
