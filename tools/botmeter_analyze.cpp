// botmeter_analyze — chart a DGA-botnet landscape from a border DNS trace.
//
// Reads an observable trace (the tab-separated format of trace/io.hpp, as
// produced by botmeter_simulate or an external collector) from stdin or a
// file and estimates the bot population behind every local DNS server.
//
// Usage:
//   botmeter_analyze --family <name> [--estimator <model>] [--servers n]
//                    [--epochs n] [--first-epoch e] [--neg-ttl-min m]
//                    [--miss-rate x] [--assume-miss x] [--trace file] [--viz]
// Example:
//   botmeter_simulate --family newGoZ --bots 64 --servers 4 |
//     botmeter_analyze --family newGoZ --servers 4 --viz
#include <cstdio>
#include <fstream>
#include <iostream>

#include "cli_util.hpp"
#include "common/parallel.hpp"
#include "core/botmeter.hpp"
#include "estimators/library.hpp"
#include "trace/block.hpp"
#include "trace/io.hpp"
#include "viz/landscape.hpp"

namespace {

constexpr const char* kUsage =
    "usage: botmeter_analyze (--family <name> | --config <file.json>)\n"
    "         [--estimator timing|poisson|bernoulli|...] [--servers n]\n"
    "         [--epochs n] [--first-epoch e] [--neg-ttl-min m]\n"
    "         [--miss-rate x] [--assume-miss x] [--trace file]\n"
    "         [--viz] [--metrics-out file] [--trace-timing] [--trace-out file]\n"
    "         [--threads n] [--history-out file] [--history-retain n]\n"
    "reads the observable (border) trace from --trace or stdin, in either\n"
    "codec: the binary columnar one (botmeter.trace_block.v1, see\n"
    "botmeter_trace_convert) is told from text by its first byte.\n"
    "--metrics-out writes a botmeter.run_report.v1 JSON document (matcher\n"
    "tallies, per-server matched lookups and populations, stage wall times);\n"
    "--trace-timing prints the phase timing table to stderr.\n"
    "--threads shards matching and per-server estimation over n threads\n"
    "(1 = serial, 0 = all cores); the landscape is bit-identical for every\n"
    "value.\n"
    "--history-out writes the per-epoch landscape series\n"
    "(botmeter.landscape_series.v1 — the same document botmeter_cluster\n"
    "records at its merged epoch closes, byte-identical for the same trace);\n"
    "--history-retain bounds the full-resolution ring (default 4096).\n";

/// Configuration echo embedded in the run report.
botmeter::json::Value config_echo(const botmeter::core::BotMeterConfig& c,
                                  std::int64_t first_epoch,
                                  std::int64_t epochs,
                                  std::size_t server_count,
                                  std::size_t stream_size) {
  using botmeter::json::Value;
  botmeter::json::Object o;
  o.emplace("family", Value(c.dga.name));
  o.emplace("estimator",
            Value(c.estimator.empty() ? std::string("(recommended)")
                                      : c.estimator));
  o.emplace("servers", Value(static_cast<double>(server_count)));
  o.emplace("epochs", Value(static_cast<double>(epochs)));
  o.emplace("first_epoch", Value(static_cast<double>(first_epoch)));
  o.emplace("detection_miss_rate", Value(c.detection_miss_rate));
  o.emplace("neg_ttl_ms", Value(static_cast<double>(c.ttl.negative.millis())));
  o.emplace("stream_size", Value(static_cast<double>(stream_size)));
  return Value(std::move(o));
}

}  // namespace

int main(int argc, char** argv) {
  // Unsynced, std::cin keeps a buffer of its own, which the text reader
  // takes in chunks (a synced one is read one getline per line). Stdout is
  // written through stdio only, so nothing interleaves with std::cout.
  std::ios::sync_with_stdio(false);
  using namespace botmeter;
  try {
    tools::CliArgs args(argc, argv,
                        {"--family", "--config", "--estimator", "--servers", "--trace-out",
                         "--epochs", "--first-epoch", "--neg-ttl-min",
                         "--miss-rate", "--assume-miss", "--trace",
                         "--metrics-out", "--threads", "--history-out",
                         "--history-retain"},
                        {"--help", "--viz", "--trace-timing"});
    if (args.flag("--help")) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    core::BotMeterConfig config;
    config.dga = tools::dga_config_from(args);
    config.estimator = args.value_or("--estimator", "");
    config.ttl.negative = minutes(args.int_or("--neg-ttl-min", 120));
    config.detection_miss_rate = args.double_or("--miss-rate", 0.0);
    if (auto assume = args.value("--assume-miss")) {
      config.assumed_miss_rate = args.double_or("--assume-miss", 0.0);
    }
    config.analyze_threads = args.threads_or("--threads", 1);

    std::ifstream file;
    if (auto path = args.value("--trace")) {
      file.open(*path, std::ios::binary);
      if (!file) throw DataError("cannot open " + *path);
    }
    std::istream& in = file.is_open() ? file : std::cin;
    const std::vector<dns::ForwardedLookup> stream =
        trace::is_block_stream(in) ? trace::read_blocks(in)
                                   : trace::read_observable(in);
    if (stream.empty()) throw DataError("empty observable trace");

    const std::int64_t first_epoch = args.int_or(
        "--first-epoch",
        config.dga.taxonomy.pool == dga::PoolModel::kSlidingWindow ? 40 : 0);
    const std::int64_t epochs = args.int_or("--epochs", 1);
    const std::size_t server_count = args.count_or("--servers", 1);

    set_this_thread_label("main");
    tools::TelemetrySinks sinks(args, args.flag("--trace-timing"));
    config.telemetry = sinks.bundle();

    core::BotMeter meter(config);
    {
      obs::ScopedTimer prepare_timer(config.telemetry.trace, "analyze.prepare");
      meter.prepare_epochs(first_epoch, epochs);
    }
    const core::LandscapeReport report = meter.analyze(stream, server_count);
    sinks.write_outputs(
        "botmeter_analyze",
        config_echo(config, first_epoch, epochs, server_count, stream.size()));

    if (args.flag("--viz")) {
      std::fputs(viz::render_landscape(report).c_str(), stdout);
    } else {
      std::printf("# estimator: %s, %zu lookups analyzed\n",
                  report.estimator_name.c_str(), stream.size());
      std::printf("%-10s %12s %18s %16s\n", "server", "population", "90%-CI",
                  "matched_lookups");
      for (const core::ServerEstimate& s : report.servers) {
        char ci[32] = "-";
        if (s.interval90) {
          std::snprintf(ci, sizeof(ci), "[%.1f, %.1f]", s.interval90->first,
                        s.interval90->second);
        }
        std::printf("server-%-3u %12.1f %18s %16llu\n", s.server.value(),
                    s.population, ci,
                    static_cast<unsigned long long>(s.matched_lookups));
      }
      std::printf("total: %.1f\n", report.total_population());
    }
    return 0;
  } catch (const Error& e) {
    return tools::report_error(e, kUsage);
  }
}
