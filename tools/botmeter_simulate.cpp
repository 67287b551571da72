// botmeter_simulate — generate synthetic DGA-botnet DNS traces.
//
// Simulates a bot population of the chosen family behind a hierarchical
// caching DNS network and writes the border-visible (observable) trace to
// stdout in the text format of trace/io.hpp; the ground-truth raw trace can
// be written to a file for evaluation.
//
// Usage:
//   botmeter_simulate --family newGoZ --bots 64 [--servers 1]
//                     [--epochs 1] [--first-epoch 0] [--seed 1]
//                     [--neg-ttl-min 120] [--granularity-ms 100]
//                     [--dynamic-sigma s] [--raw-out file]
// Example:
//   botmeter_simulate --family newGoZ --bots 64 > trace.tsv
//   botmeter_analyze --family newGoZ < trace.tsv
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>

#include "botnet/simulator.hpp"
#include "cli_util.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "detect/detection_window.hpp"
#include "detect/matcher.hpp"
#include "dga/families.hpp"
#include "trace/io.hpp"

namespace {

constexpr const char* kUsage =
    "usage: botmeter_simulate (--family <name> | --config <file.json>) "
    "--bots <N>\n"
    "         [--servers n] [--epochs n] [--first-epoch e] [--seed s]\n"
    "         [--neg-ttl-min m] [--granularity-ms g] [--dynamic-sigma s]\n"
    "         [--evasive] [--raw-out file] [--threads n]\n"
    "         [--metrics-out file] [--trace] [--trace-out file]\n"
    "writes the observable (border) trace to stdout.\n"
    "--metrics-out writes a botmeter.run_report.v1 JSON document (cache,\n"
    "vantage, and matcher counters plus per-stage wall times); --trace\n"
    "prints the phase timing table to stderr.\n";

/// Configuration echo embedded in the run report.
botmeter::json::Value config_echo(const botmeter::botnet::SimulationConfig& c) {
  using botmeter::json::Value;
  botmeter::json::Object o;
  o.emplace("family", Value(c.dga.name));
  o.emplace("bots", Value(static_cast<double>(c.bot_count)));
  o.emplace("servers", Value(static_cast<double>(c.server_count)));
  o.emplace("epochs", Value(static_cast<double>(c.epoch_count)));
  o.emplace("first_epoch", Value(static_cast<double>(c.first_epoch)));
  o.emplace("seed", Value(static_cast<double>(c.seed)));
  o.emplace("worker_threads", Value(static_cast<double>(c.worker_threads)));
  o.emplace("neg_ttl_ms", Value(static_cast<double>(c.ttl.negative.millis())));
  o.emplace("pos_ttl_ms", Value(static_cast<double>(c.ttl.positive.millis())));
  return Value(std::move(o));
}

/// Run a perfect-detection matcher over the observable stream so the report
/// carries matcher tallies (how much of the border traffic the target DGA's
/// detection window would recognise). Happens only under --metrics-out.
void tally_matches(const botmeter::botnet::SimulationConfig& config,
                   botmeter::dga::QueryPoolModel& pool_model,
                   std::span<const botmeter::dns::ForwardedLookup> observable,
                   botmeter::obs::MetricsRegistry& metrics,
                   botmeter::obs::TraceSession* trace) {
  namespace bm = botmeter;
  bm::obs::ScopedTimer timer(trace, "sim.match_tally");
  bm::detect::DomainMatcher matcher(config.dga.epoch);
  bm::Rng window_rng{bm::mix64(config.seed)};
  for (std::int64_t e = config.first_epoch;
       e < config.first_epoch + config.epoch_count; ++e) {
    const bm::dga::EpochPool& pool = pool_model.epoch_pool(e);
    matcher.add_epoch(pool,
                      bm::detect::make_detection_window(pool, 0.0, window_rng));
  }
  bm::detect::MatchStats stats;
  (void)matcher.match(observable, &stats);
  metrics.counter("sim.matcher.stream").add(stats.stream_size);
  metrics.counter("sim.matcher.matched").add(stats.matched);
  metrics.counter("sim.matcher.unmatched").add(stats.unmatched);
  metrics.counter("sim.matcher.valid_domain").add(stats.valid_domain);
  metrics.counter("sim.matcher.nxd").add(stats.nxd);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace botmeter;
  try {
    tools::CliArgs args(
        argc, argv,
        {"--family", "--config", "--bots", "--servers", "--epochs",
         "--first-epoch", "--seed", "--neg-ttl-min", "--granularity-ms",
         "--dynamic-sigma", "--raw-out", "--threads", "--metrics-out",
         "--trace-out"},
        {"--help", "--evasive", "--trace"});
    if (args.flag("--help")) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    botnet::SimulationConfig config;
    config.dga = tools::dga_config_from(args);
    const std::size_t bots =
        args.count_or("--bots", 0, std::numeric_limits<std::uint32_t>::max());
    if (bots == 0) throw tools::UsageError("--bots must be a positive integer");
    if (args.flag("--evasive")) config.dga = dga::evasive_variant(config.dga);
    config.bot_count = static_cast<std::uint32_t>(bots);
    config.server_count = args.count_or("--servers", 1);
    config.epoch_count = args.int_or("--epochs", 1);
    config.first_epoch = args.int_or(
        "--first-epoch",
        config.dga.taxonomy.pool == dga::PoolModel::kSlidingWindow ? 40 : 0);
    config.seed = static_cast<std::uint64_t>(args.int_or("--seed", 1));
    config.ttl.negative = minutes(args.int_or("--neg-ttl-min", 120));
    config.timestamp_granularity =
        milliseconds(args.int_or("--granularity-ms", 100));
    if (auto sigma = args.value("--dynamic-sigma")) {
      config.activation.model = botnet::RateModel::kDynamic;
      config.activation.sigma = args.double_or("--dynamic-sigma", 1.0);
    }
    config.record_raw = args.value("--raw-out").has_value();
    config.worker_threads = args.count_or("--threads", 1);

    set_this_thread_label("main");
    tools::TelemetrySinks sinks(args, args.flag("--trace"));
    config.telemetry = sinks.bundle();

    auto pool_model = dga::make_pool_model(config.dga);
    const botnet::SimulationResult result =
        botnet::simulate(config, *pool_model);

    if (args.value("--metrics-out")) {
      tally_matches(config, *pool_model, result.observable, sinks.metrics,
                    config.telemetry.trace);
    }
    sinks.write_outputs("botmeter_simulate", config_echo(config));

    if (auto raw_path = args.value("--raw-out")) {
      std::ofstream raw_file(*raw_path);
      if (!raw_file) throw DataError("cannot open " + *raw_path);
      trace::write_raw(raw_file, result.raw);
    }
    trace::write_observable(std::cout, result.observable);

    std::fprintf(stderr, "simulated %s: ", config.dga.name.c_str());
    for (const botnet::EpochTruth& truth : result.truth) {
      std::fprintf(stderr, "epoch %lld: %u active bots; ",
                   static_cast<long long>(truth.epoch), truth.total_active);
    }
    std::fprintf(stderr, "%zu observable lookups\n", result.observable.size());
    return 0;
  } catch (const Error& e) {
    return tools::report_error(e, kUsage);
  }
}
