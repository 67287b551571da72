#include "support/experiment.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/rng.hpp"
#include "detect/matcher.hpp"

namespace botmeter::bench {

namespace {

/// Prints the accumulated phase table to stderr when the process exits —
/// registered lazily so benches that never run a scenario stay silent.
struct PhaseTablePrinter {
  ~PhaseTablePrinter() {
    const std::string table = obs::format_phase_table(bench_trace());
    if (!table.empty()) {
      std::fprintf(stderr, "# stage timing (wall ms)\n%s", table.c_str());
    }
  }
};

}  // namespace

obs::MetricsRegistry& bench_metrics() {
  static obs::MetricsRegistry registry;
  return registry;
}

obs::TraceSession& bench_trace() {
  static obs::TraceSession session;
  static PhaseTablePrinter printer;
  return session;
}

ScenarioRun::ScenarioRun(Scenario scenario) : scenario_(std::move(scenario)) {
  obs::Telemetry& telemetry = scenario_.sim.telemetry;
  if (telemetry.metrics == nullptr) telemetry.metrics = &bench_metrics();
  if (telemetry.trace == nullptr) telemetry.trace = &bench_trace();
  pool_model_ = dga::make_pool_model(scenario_.sim.dga);
  result_ = botnet::simulate(scenario_.sim, *pool_model_);

  detect::DomainMatcher matcher(scenario_.sim.dga.epoch);
  Rng window_rng{scenario_.window_seed};
  const std::int64_t first = scenario_.sim.first_epoch;
  const std::int64_t count = scenario_.sim.epoch_count;
  windows_.reserve(static_cast<std::size_t>(count));
  for (std::int64_t e = first; e < first + count; ++e) {
    const dga::EpochPool& pool = pool_model_->epoch_pool(e);
    windows_.push_back(detect::make_detection_window(
        pool, scenario_.detection_miss_rate, window_rng));
    matcher.add_epoch(pool, windows_.back());
  }

  obs::ScopedTimer match_timer(telemetry.trace, "bench.match");
  detect::MatchStats match_stats;
  const detect::MatchedStreams matched =
      matcher.match(result_.observable, &match_stats);
  match_timer.stop();
  if (telemetry.metrics != nullptr) {
    telemetry.metrics->counter("bench.matcher.stream")
        .add(match_stats.stream_size);
    telemetry.metrics->counter("bench.matcher.matched").add(match_stats.matched);
    telemetry.metrics->counter("bench.matcher.unmatched")
        .add(match_stats.unmatched);
  }
  static const std::vector<detect::MatchedLookup> kEmpty;
  for (std::int64_t e = first; e < first + count; ++e) {
    estimators::EpochObservation obs;
    auto it = matched.find(detect::StreamKey{dns::ServerId{0}, e});
    obs.lookups = (it != matched.end()) ? it->second : kEmpty;
    obs.config = &scenario_.sim.dga;
    obs.pool = &pool_model_->epoch_pool(e);
    obs.window = &windows_[static_cast<std::size_t>(e - first)];
    obs.ttl = scenario_.sim.ttl;
    obs.window_start = TimePoint{e * scenario_.sim.dga.epoch.millis()};
    obs.window_length = scenario_.sim.dga.epoch;
    obs.assumed_miss_rate = scenario_.assumed_miss_rate;
    observations_.push_back(std::move(obs));
  }
}

double ScenarioRun::mean_truth() const {
  double sum = 0.0;
  for (const botnet::EpochTruth& t : result_.truth) sum += t.total_active;
  return sum / static_cast<double>(result_.truth.size());
}

double scenario_are(const estimators::Estimator& estimator,
                    const ScenarioRun& run) {
  obs::ScopedTimer timer(&bench_trace(), "bench.estimate");
  const double estimate = estimators::estimate_window(
      estimator, run.observations(), &bench_metrics());
  return absolute_relative_error(estimate, run.mean_truth());
}

int trials_from_args(int argc, char** argv, int default_trials) {
  if (argc > 1) {
    const int parsed = std::atoi(argv[1]);
    if (parsed > 0) return parsed;
  }
  return default_trials;
}

void print_header(const std::string& title) {
  std::printf("# %s\n", title.c_str());
  std::printf("%-6s %-20s %-12s %8s %8s %8s %8s %8s\n", "model", "estimator",
              "x", "p25", "median", "p75", "mean", "max");
}

void print_row(const std::string& model, const std::string& estimator,
               const std::string& x, const QuartileSummary& summary) {
  std::printf("%-6s %-20s %-12s %8.3f %8.3f %8.3f %8.3f %8.3f\n", model.c_str(),
              estimator.c_str(), x.c_str(), summary.p25, summary.median,
              summary.p75, summary.mean, summary.max);
}

}  // namespace botmeter::bench
