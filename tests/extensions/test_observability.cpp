// Observability regression tests: attaching the metrics registry and phase
// tracer must never perturb the simulation, and metric totals must be
// bit-identical across worker-thread counts (they are integer sums flushed
// from the serial section of each epoch).
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "botnet/simulator.hpp"
#include "core/botmeter.hpp"
#include "dga/families.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace botmeter {
namespace {

botnet::SimulationConfig small_config() {
  botnet::SimulationConfig config;
  config.dga = dga::newgoz_config();
  config.bot_count = 24;
  config.server_count = 3;
  config.epoch_count = 2;
  config.seed = 99;
  return config;
}

TEST(Observability, MetricsOnOffDoesNotChangeTheSimulation) {
  const botnet::SimulationResult baseline = botnet::simulate(small_config());

  botnet::SimulationConfig instrumented = small_config();
  obs::MetricsRegistry metrics;
  obs::TraceSession trace;
  instrumented.telemetry.metrics = &metrics;
  instrumented.telemetry.trace = &trace;
  const botnet::SimulationResult observed = botnet::simulate(instrumented);

  EXPECT_EQ(baseline.raw, observed.raw);
  EXPECT_EQ(baseline.observable, observed.observable);
  EXPECT_EQ(baseline.truth, observed.truth);
  EXPECT_GT(metrics.snapshot().counters.size(), 0u);
  EXPECT_GT(trace.span_count(), 0u);
}

TEST(Observability, ResultsAndCountersIdenticalAcrossThreadCounts) {
  botnet::SimulationConfig reference_config = small_config();
  obs::MetricsRegistry reference_metrics;
  reference_config.telemetry.metrics = &reference_metrics;
  reference_config.worker_threads = 1;
  const botnet::SimulationResult reference =
      botnet::simulate(reference_config);
  const auto reference_snap = reference_metrics.snapshot();

  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    botnet::SimulationConfig config = small_config();
    obs::MetricsRegistry metrics;
    config.telemetry.metrics = &metrics;
    config.worker_threads = threads;
    const botnet::SimulationResult result = botnet::simulate(config);

    EXPECT_EQ(reference.raw, result.raw) << threads << " threads";
    EXPECT_EQ(reference.observable, result.observable) << threads << " threads";
    EXPECT_EQ(reference.truth, result.truth) << threads << " threads";

    const auto snap = metrics.snapshot();
    EXPECT_EQ(reference_snap.counters, snap.counters) << threads << " threads";
    EXPECT_EQ(reference_snap.histograms, snap.histograms)
        << threads << " threads";
  }
}

TEST(Observability, TieredSimulationRecordsBothCacheTiers) {
  botnet::TieredSimulationConfig config;
  config.base = small_config();
  config.regional_count = 2;
  obs::MetricsRegistry metrics;
  config.base.telemetry.metrics = &metrics;

  auto pool_model = dga::make_pool_model(config.base.dga);
  const botnet::SimulationResult with =
      botnet::simulate_tiered(config, *pool_model);

  config.base.telemetry.metrics = nullptr;
  auto pool_model2 = dga::make_pool_model(config.base.dga);
  const botnet::SimulationResult without =
      botnet::simulate_tiered(config, *pool_model2);

  EXPECT_EQ(with.observable, without.observable);
  EXPECT_EQ(with.truth, without.truth);

  EXPECT_GT(metrics.counter("sim.cache.local.misses").value(), 0u);
  EXPECT_GT(metrics.counter("sim.cache.regional.misses").value(), 0u);
}

TEST(Observability, SimulatorAccountingMatchesTheResult) {
  botnet::SimulationConfig config = small_config();
  obs::MetricsRegistry metrics;
  config.telemetry.metrics = &metrics;
  const botnet::SimulationResult result = botnet::simulate(config);

  EXPECT_EQ(metrics.counter("sim.epochs").value(),
            static_cast<std::uint64_t>(config.epoch_count));
  EXPECT_EQ(metrics.counter("sim.vantage.forwarded").value(),
            result.observable.size());
  std::uint64_t active = 0;
  for (const botnet::EpochTruth& t : result.truth) active += t.total_active;
  EXPECT_EQ(metrics.counter("sim.active_bots").value(), active);

  // Per-server forwarded counts must partition the vantage stream.
  std::uint64_t per_server_sum = 0;
  for (std::size_t s = 0; s < config.server_count; ++s) {
    per_server_sum += metrics
                          .counter("sim.vantage.forwarded.per_server",
                                   "server_" + std::to_string(s))
                          .value();
  }
  EXPECT_EQ(per_server_sum, result.observable.size());
}

TEST(Observability, AnalyzeRecordsConsistentMatcherTallies) {
  botnet::SimulationConfig sim_config = small_config();
  auto pool_model = dga::make_pool_model(sim_config.dga);
  const botnet::SimulationResult sim =
      botnet::simulate(sim_config, *pool_model);

  core::BotMeterConfig config;
  config.dga = sim_config.dga;
  obs::MetricsRegistry metrics;
  obs::TraceSession trace;
  config.telemetry.metrics = &metrics;
  config.telemetry.trace = &trace;

  core::BotMeter meter(config);
  meter.prepare_epochs(0, sim_config.epoch_count);
  const core::LandscapeReport report =
      meter.analyze(sim.observable, sim_config.server_count);

  EXPECT_EQ(metrics.counter("analyze.matcher.stream").value(),
            sim.observable.size());
  EXPECT_EQ(metrics.counter("analyze.matcher.stream").value(),
            metrics.counter("analyze.matcher.matched").value() +
                metrics.counter("analyze.matcher.unmatched").value());
  EXPECT_EQ(metrics.counter("analyze.matcher.matched").value(),
            metrics.counter("analyze.matcher.valid_domain").value() +
                metrics.counter("analyze.matcher.nxd").value());

  // Attaching observers must not change the report itself.
  core::BotMeterConfig plain_config;
  plain_config.dga = sim_config.dga;
  core::BotMeter plain_meter(plain_config);
  plain_meter.prepare_epochs(0, sim_config.epoch_count);
  const core::LandscapeReport plain =
      plain_meter.analyze(sim.observable, sim_config.server_count);
  ASSERT_EQ(plain.servers.size(), report.servers.size());
  for (std::size_t i = 0; i < plain.servers.size(); ++i) {
    EXPECT_EQ(plain.servers[i].population, report.servers[i].population);
    EXPECT_EQ(plain.servers[i].matched_lookups,
              report.servers[i].matched_lookups);
  }

  // Per-phase wall times were recorded for both stages.
  bool saw_match = false, saw_estimate = false;
  for (const auto& row : trace.summary()) {
    saw_match |= row.phase == "analyze.match";
    saw_estimate |= row.phase == "analyze.estimate";
  }
  EXPECT_TRUE(saw_match);
  EXPECT_TRUE(saw_estimate);
}

TEST(Observability, EndToEndRunReportParsesBack) {
  botnet::SimulationConfig config = small_config();
  obs::MetricsRegistry metrics;
  obs::TraceSession trace;
  config.telemetry.metrics = &metrics;
  config.telemetry.trace = &trace;
  (void)botnet::simulate(config);

  obs::RunReport report;
  report.tool = "test";
  report.metrics = &metrics;
  report.trace = &trace;
  const std::string text = obs::export_json(report);
  const json::Value parsed = json::parse(text);

  EXPECT_EQ(parsed.at("schema").as_string(), "botmeter.run_report.v1");
  EXPECT_GT(parsed.at("counters").at("sim.queries").as_int(), 0);
  EXPECT_NE(parsed.at("counters").find("sim.cache.local.hits"), nullptr);
  EXPECT_NE(parsed.at("counters").at("sim.cache.local.hits.per_epoch")
                .find("epoch_0"),
            nullptr);
  EXPECT_GT(parsed.at("trace").at("phases").as_array().size(), 0u);
  EXPECT_EQ(json::write_pretty(parsed, 2), text);
}

}  // namespace
}  // namespace botmeter
