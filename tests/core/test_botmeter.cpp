#include "core/botmeter.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "botnet/simulator.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "dga/families.hpp"

namespace botmeter::core {
namespace {

BotMeterConfig newgoz_botmeter() {
  BotMeterConfig config;
  config.dga = dga::newgoz_config();
  return config;
}

botnet::SimulationConfig newgoz_sim(std::uint32_t bots, std::size_t servers,
                                    std::uint64_t seed) {
  botnet::SimulationConfig config;
  config.dga = dga::newgoz_config();
  config.bot_count = bots;
  config.server_count = servers;
  config.seed = seed;
  config.record_raw = false;
  return config;
}

TEST(BotMeterTest, EndToEndSingleServer) {
  const auto result = botnet::simulate(newgoz_sim(64, 1, 3));
  BotMeter meter(newgoz_botmeter());
  meter.prepare_epochs(0, 1);
  const LandscapeReport report = meter.analyze(result.observable, 1);
  EXPECT_EQ(report.estimator_name, "bernoulli");
  ASSERT_EQ(report.servers.size(), 1u);
  EXPECT_GT(report.servers[0].matched_lookups, 0u);
  EXPECT_LT(absolute_relative_error(report.servers[0].population, 64.0), 0.3);
}

TEST(BotMeterTest, LandscapeAcrossServers) {
  // 96 bots round-robin over 3 servers: 32 each.
  const auto result = botnet::simulate(newgoz_sim(96, 3, 4));
  BotMeter meter(newgoz_botmeter());
  meter.prepare_epochs(0, 1);
  const LandscapeReport report = meter.analyze(result.observable, 3);
  ASSERT_EQ(report.servers.size(), 3u);
  for (const ServerEstimate& s : report.servers) {
    EXPECT_LT(absolute_relative_error(s.population, 32.0), 0.4)
        << "server " << s.server;
  }
  EXPECT_LT(absolute_relative_error(report.total_population(), 96.0), 0.3);
}

TEST(BotMeterTest, ServersWithoutTrafficReportZero) {
  const auto result = botnet::simulate(newgoz_sim(16, 1, 5));
  BotMeter meter(newgoz_botmeter());
  meter.prepare_epochs(0, 1);
  // Claim there are 2 servers; server 1 saw nothing.
  const LandscapeReport report = meter.analyze(result.observable, 2);
  ASSERT_EQ(report.servers.size(), 2u);
  EXPECT_DOUBLE_EQ(report.servers[1].population, 0.0);
  EXPECT_EQ(report.servers[1].matched_lookups, 0u);
}

TEST(BotMeterTest, MultiEpochAveraging) {
  botnet::SimulationConfig sim = newgoz_sim(48, 1, 6);
  sim.epoch_count = 3;
  const auto result = botnet::simulate(sim);
  BotMeter meter(newgoz_botmeter());
  meter.prepare_epochs(0, 3);
  const LandscapeReport report = meter.analyze(result.observable, 1);
  ASSERT_EQ(report.servers[0].per_epoch.size(), 3u);
  EXPECT_LT(absolute_relative_error(report.servers[0].population, 48.0), 0.3);
}

TEST(BotMeterTest, ConfidenceIntervalsReported) {
  const auto result = botnet::simulate(newgoz_sim(64, 1, 8));
  BotMeter meter(newgoz_botmeter());  // bernoulli: supports intervals
  meter.prepare_epochs(0, 1);
  const LandscapeReport report = meter.analyze(result.observable, 1);
  ASSERT_TRUE(report.servers[0].interval90.has_value());
  const auto [lo, hi] = *report.servers[0].interval90;
  EXPECT_LE(lo, report.servers[0].population);
  EXPECT_GE(hi, report.servers[0].population);
}

TEST(BotMeterTest, NoIntervalForTimingEstimator) {
  const auto result = botnet::simulate(newgoz_sim(16, 1, 9));
  BotMeterConfig no_ci_config = newgoz_botmeter();
  no_ci_config.estimator = "timing";
  BotMeter meter(no_ci_config);
  meter.prepare_epochs(0, 1);
  const LandscapeReport report = meter.analyze(result.observable, 1);
  EXPECT_FALSE(report.servers[0].interval90.has_value());
}

TEST(BotMeterTest, ExplicitEstimatorSelection) {
  BotMeterConfig config = newgoz_botmeter();
  config.estimator = "timing";
  BotMeter meter(config);
  EXPECT_EQ(meter.active_estimator().name(), "timing");
}

TEST(BotMeterTest, UnknownEstimatorRejectedAtConstruction) {
  BotMeterConfig config = newgoz_botmeter();
  config.estimator = "oracle";
  EXPECT_THROW(BotMeter{config}, ConfigError);
}

TEST(BotMeterTest, RecommendedEstimatorFollowsBarrel) {
  BotMeterConfig uniform;
  uniform.dga = dga::murofet_config();
  EXPECT_EQ(BotMeter(uniform).active_estimator().name(), "poisson");
  BotMeterConfig sampling;
  sampling.dga = dga::conficker_c_config();
  EXPECT_EQ(BotMeter(sampling).active_estimator().name(), "timing");
}

TEST(BotMeterTest, AnalyzeRequiresPreparedEpochs) {
  BotMeter meter(newgoz_botmeter());
  EXPECT_THROW((void)meter.analyze({}, 1), ConfigError);
}

TEST(BotMeterTest, PrepareEpochsIdempotent) {
  BotMeter meter(newgoz_botmeter());
  meter.prepare_epochs(0, 2);
  meter.prepare_epochs(0, 2);  // no duplicate windows
  meter.prepare_epochs(1, 2);  // extends by epoch 2
  EXPECT_NO_THROW((void)meter.window_for_epoch(0));
  EXPECT_NO_THROW((void)meter.window_for_epoch(2));
  EXPECT_THROW((void)meter.window_for_epoch(5), ConfigError);
}

TEST(BotMeterTest, DetectionMissRateShrinksMatchableSet) {
  BotMeterConfig full = newgoz_botmeter();
  BotMeterConfig half = newgoz_botmeter();
  half.detection_miss_rate = 0.5;
  BotMeter meter_full(full);
  BotMeter meter_half(half);
  meter_full.prepare_epochs(0, 1);
  meter_half.prepare_epochs(0, 1);
  EXPECT_LT(meter_half.window_for_epoch(0).detected_count(),
            meter_full.window_for_epoch(0).detected_count());
}

// A tuple from a server at or past the report width would silently fall
// out of the landscape; analyze rejects it like the stream engine and the
// cluster router do, benign lookups included.
TEST(BotMeterTest, ServerOutsideTheWidthIsRejected) {
  const auto result = botnet::simulate(newgoz_sim(64, 4, 3));
  BotMeter meter(newgoz_botmeter());
  meter.prepare_epochs(0, 1);
  try {
    (void)meter.analyze(result.observable, 2);
    ADD_FAILURE() << "a 4-server trace was charted as 2 servers";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("outside the configured width 2"),
              std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW((void)meter.analyze(result.observable, 4));

  const std::vector<dns::ForwardedLookup> benign{
      {TimePoint{0}, dns::ServerId{5}, "benign.example"}};
  EXPECT_THROW((void)meter.analyze(benign, 5), ConfigError);
  EXPECT_NO_THROW((void)meter.analyze(benign, 6));
}

TEST(BotMeterTest, ConfigValidation) {
  BotMeterConfig config = newgoz_botmeter();
  config.detection_miss_rate = 1.2;
  EXPECT_THROW(BotMeter{config}, ConfigError);
  config = newgoz_botmeter();
  config.assumed_miss_rate = 1.0;
  EXPECT_THROW(BotMeter{config}, ConfigError);
  config = newgoz_botmeter();
  EXPECT_THROW((void)BotMeter(config).analyze({}, 0), ConfigError);
}

}  // namespace
}  // namespace botmeter::core
