// StreamHealthMonitor threshold transitions under simulated time: every
// now_ms is injected, so ok -> degraded -> unhealthy -> ok (with recovery
// hysteresis) is exercised without a single sleep.
#include "stream/health_monitor.hpp"

#include <gtest/gtest.h>

#include "botnet/simulator.hpp"
#include "common/error.hpp"
#include "dga/families.hpp"
#include "obs/metrics.hpp"
#include "stream/stream_engine.hpp"

namespace botmeter::stream {
namespace {

StreamHealthConfig tight_config() {
  StreamHealthConfig config;
  config.degraded_watermark_lag_ms = 100.0;
  config.unhealthy_watermark_lag_ms = 1000.0;
  config.degraded_late_rate = 0.01;
  config.unhealthy_late_rate = 0.5;
  config.degraded_buffer_bytes = 1 << 20;
  config.unhealthy_buffer_bytes = 8 << 20;
  config.recovery_hold_ms = 500.0;
  return config;
}

StreamHealthSignals ok_signals() { return {}; }

StreamHealthSignals lagging(double lag_ms) {
  StreamHealthSignals s;
  s.watermark_lag_ms = lag_ms;
  return s;
}

TEST(StreamHealthConfig, ValidatesThresholdOrdering) {
  StreamHealthConfig config = tight_config();
  config.unhealthy_watermark_lag_ms = 50.0;  // below degraded
  EXPECT_THROW(config.validate(), ConfigError);
  config = tight_config();
  config.degraded_late_rate = 0.9;  // above unhealthy
  EXPECT_THROW(config.validate(), ConfigError);
  config = tight_config();
  config.recovery_hold_ms = -1.0;
  EXPECT_THROW(config.validate(), ConfigError);
  EXPECT_NO_THROW(tight_config().validate());
}

TEST(StreamHealthMonitor, StartsOkAndDegradesImmediately) {
  StreamHealthMonitor monitor(tight_config());
  EXPECT_EQ(monitor.state(), HealthState::kOk);
  EXPECT_EQ(monitor.evaluate(ok_signals(), 0.0), HealthState::kOk);
  EXPECT_EQ(monitor.evaluate(lagging(150.0), 10.0), HealthState::kDegraded);
  EXPECT_EQ(monitor.evaluate(lagging(1500.0), 20.0), HealthState::kUnhealthy);
}

TEST(StreamHealthMonitor, EachSignalTripsItsOwnThreshold) {
  StreamHealthMonitor lag_monitor(tight_config());
  EXPECT_EQ(lag_monitor.evaluate(lagging(100.0), 0.0),
            HealthState::kDegraded);  // thresholds are inclusive

  StreamHealthMonitor late_monitor(tight_config());
  StreamHealthSignals late;
  late.late_rate = 0.6;
  EXPECT_EQ(late_monitor.evaluate(late, 0.0), HealthState::kUnhealthy);

  StreamHealthMonitor buffer_monitor(tight_config());
  StreamHealthSignals fat;
  fat.open_buffer_bytes = 2 << 20;
  EXPECT_EQ(buffer_monitor.evaluate(fat, 0.0), HealthState::kDegraded);
}

TEST(StreamHealthMonitor, RecoveryRequiresTheHoldToElapse) {
  StreamHealthMonitor monitor(tight_config());
  EXPECT_EQ(monitor.evaluate(lagging(2000.0), 0.0), HealthState::kUnhealthy);

  // Signals are healthy again, but the reported state holds until the raw
  // state has stayed better for recovery_hold_ms (500).
  EXPECT_EQ(monitor.evaluate(ok_signals(), 100.0), HealthState::kUnhealthy);
  EXPECT_EQ(monitor.evaluate(ok_signals(), 450.0), HealthState::kUnhealthy);
  EXPECT_EQ(monitor.evaluate(ok_signals(), 601.0), HealthState::kOk);
  EXPECT_EQ(monitor.state(), HealthState::kOk);
}

TEST(StreamHealthMonitor, FlappingLandsOnTheSustainedLevelNotTheDip) {
  StreamHealthMonitor monitor(tight_config());
  EXPECT_EQ(monitor.evaluate(lagging(2000.0), 0.0), HealthState::kUnhealthy);

  // During the recovery streak the signals dip to ok but also revisit
  // degraded; recovery must land on degraded — the level actually
  // sustained — not strobe down to ok.
  EXPECT_EQ(monitor.evaluate(ok_signals(), 100.0), HealthState::kUnhealthy);
  EXPECT_EQ(monitor.evaluate(lagging(200.0), 300.0), HealthState::kUnhealthy);
  EXPECT_EQ(monitor.evaluate(lagging(200.0), 700.0), HealthState::kDegraded);

  // And a relapse to unhealthy mid-streak applies immediately.
  EXPECT_EQ(monitor.evaluate(lagging(5000.0), 800.0), HealthState::kUnhealthy);
}

TEST(StreamHealthMonitor, PublishesGaugesIntoTheRegistry) {
  obs::MetricsRegistry metrics;
  StreamHealthMonitor monitor(tight_config(), &metrics);
  monitor.evaluate(lagging(250.0), 0.0);

  EXPECT_EQ(metrics.gauge("stream.health.state").value(), 1.0);  // degraded
  EXPECT_EQ(metrics.gauge("stream.health.watermark_lag_ms").value(), 250.0);
}

// --- sampling a real engine ------------------------------------------------

StreamEngineConfig small_engine_config() {
  StreamEngineConfig config;
  config.meter.dga = dga::family_config("newGoZ");
  config.first_epoch = 0;
  config.epoch_count = 2;
  config.server_count = 2;
  return config;
}

TEST(StreamHealthMonitor, SampleDerivesWatermarkLagFromWallTime) {
  StreamEngine engine(small_engine_config());
  StreamHealthMonitor monitor(tight_config());

  // First sample seeds the reference point: lag 0, state ok.
  EXPECT_EQ(monitor.sample(engine.stats(), 1000.0), HealthState::kOk);
  EXPECT_EQ(monitor.last_signals().watermark_lag_ms, 0.0);

  // No watermark movement while the wall clock runs: lag grows and crosses
  // both thresholds.
  EXPECT_EQ(monitor.sample(engine.stats(), 1150.0), HealthState::kDegraded);
  EXPECT_EQ(monitor.last_signals().watermark_lag_ms, 150.0);
  EXPECT_EQ(monitor.sample(engine.stats(), 2500.0), HealthState::kUnhealthy);

  // The watermark advancing resets the lag; after the recovery hold the
  // state walks back to ok.
  engine.advance(TimePoint{1});
  EXPECT_EQ(monitor.sample(engine.stats(), 2600.0), HealthState::kUnhealthy);
  EXPECT_EQ(monitor.last_signals().watermark_lag_ms, 0.0);
  engine.advance(TimePoint{2});
  EXPECT_EQ(monitor.sample(engine.stats(), 3200.0), HealthState::kOk);
}

TEST(StreamHealthMonitor, SampleReadsCloseProgressFromTheEngine) {
  const StreamEngineConfig config = small_engine_config();

  botnet::SimulationConfig sim;
  sim.dga = config.meter.dga;
  sim.bot_count = 8;
  sim.server_count = config.server_count;
  sim.first_epoch = config.first_epoch;
  sim.epoch_count = config.epoch_count;
  sim.seed = 3;
  sim.record_raw = false;
  const auto observable = botnet::simulate(sim).observable;

  StreamEngine engine(config);
  obs::MetricsRegistry metrics;
  StreamHealthMonitor monitor(tight_config(), &metrics);
  engine.ingest(observable);
  (void)engine.finish();  // closes both epochs

  monitor.sample(engine.stats(), 0.0);
  monitor.sample(engine.stats(), 1.0);

  // Close progress and the late-rate signal come straight from the engine.
  EXPECT_EQ(monitor.last_signals().matched, engine.matched());
  EXPECT_EQ(monitor.last_signals().late_rate, 0.0);
  EXPECT_EQ(monitor.last_signals().epochs_closed, 2u);

  // The close-latency histogram is the engine's (recorded at each close);
  // the monitor publishes gauges only.
  EXPECT_TRUE(metrics.snapshot().histograms.empty());

  // The record the monitor evaluates is the engine's accessors, field for
  // field.
  const StreamStats stats = engine.stats();
  EXPECT_EQ(stats.ingested, engine.ingested());
  EXPECT_EQ(stats.matched, engine.matched());
  EXPECT_EQ(stats.unmatched, engine.unmatched());
  EXPECT_EQ(stats.late_dropped, engine.late_dropped());
  EXPECT_EQ(stats.next_epoch_to_close, engine.next_epoch_to_close());
  EXPECT_EQ(stats.epochs_closed, engine.close_latencies_ms().size());
  EXPECT_EQ(stats.watermark, engine.watermark());
  EXPECT_EQ(stats.open_buffer_bytes, engine.open_buffer_bytes());
  EXPECT_EQ(stats.peak_open_buffer_bytes, engine.peak_open_buffer_bytes());
  EXPECT_GT(stats.peak_open_buffer_bytes, stats.open_buffer_bytes);
  EXPECT_EQ(stats.compact_spills, engine.compact_spills());
}

TEST(HealthStateName, NamesAllStates) {
  EXPECT_EQ(health_state_name(HealthState::kOk), "ok");
  EXPECT_EQ(health_state_name(HealthState::kDegraded), "degraded");
  EXPECT_EQ(health_state_name(HealthState::kUnhealthy), "unhealthy");
}

}  // namespace
}  // namespace botmeter::stream
