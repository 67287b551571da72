// botmeter_cluster — chart one global DGA-botnet landscape, incrementally,
// from a live or replayed border feed.
//
// The feed's servers are partitioned across --shards stream engines
// (src/cluster/), and per-shard epoch closes are merged watermark-aligned
// into a single global landscape — byte-identical at every shard count to
// what one engine charts on the union feed, and to what botmeter_analyze
// prints on the same trace. Memory stays bounded by the active epoch
// window, and a line is printed the moment each merged epoch is final.
// One shard (the default) is the single-border deployment: the engine runs
// inline on the ingest thread, with no shard thread or queue; with more,
// each shard runs on its own thread behind a bounded ingest queue.
//
// Usage:
//   botmeter_simulate --family newGoZ --bots 64 --servers 4 |
//     botmeter_cluster --family newGoZ --servers 4
//   botmeter_cluster --family newGoZ --simulate --bots 64 --servers 8
//     --shards 4 --epochs 6 --listen 0 --history-out series.json
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "botnet/simulator.hpp"
#include "cli_util.hpp"
#include "cluster/cluster_runtime.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "obs/expose.hpp"
#include "obs/http_exporter.hpp"
#include "stream/health_monitor.hpp"
#include "trace/block.hpp"
#include "trace/io.hpp"
#include "viz/landscape.hpp"

namespace {

constexpr const char* kUsage =
    "usage: botmeter_cluster (--family <name> | --config <file.json>)\n"
    "         [--servers n] [--shards n] [--shard-threads n]\n"
    "         [--estimator timing|poisson|bernoulli|...] [--epochs n]\n"
    "         [--first-epoch e] [--neg-ttl-min m] [--miss-rate x]\n"
    "         [--assume-miss x] [--lateness-ms l]\n"
    "         [--compact-state] [--compact-spill n] [--compact-kmv-k k]\n"
    "         [--flush-tuples n] [--queue-capacity n]\n"
    "         [--trace file]\n"
    "         [--simulate --bots N [--seed s] [--granularity-ms g]]\n"
    "         [--checkpoint-in file] [--checkpoint-out file] [--no-final]\n"
    "         [--metrics-out file] [--trace-timing] [--trace-out file] [--viz]\n"
    "         [--listen port] [--listen-port-file file] [--linger-ms n]\n"
    "         [--history-out file] [--history-retain n] [--journal-out file]\n"
    "         [--health-degraded-lag-ms n] [--health-unhealthy-lag-ms n]\n"
    "         [--health-degraded-late-rate x] [--health-unhealthy-late-rate x]\n"
    "         [--health-recovery-hold-ms n]\n"
    "ingests the observable (border) feed tuple by tuple — from --trace or\n"
    "stdin, or generated on the fly with --simulate — matches it on the\n"
    "ingest thread, scatters the matched evidence across --shards stream\n"
    "engines (contiguous server ranges), and prints one line per *merged*\n"
    "epoch plus the final global landscape, byte-identical to\n"
    "botmeter_analyze on the same feed at every shard count. One shard (the\n"
    "default) runs its engine inline on the ingest thread; more shards run\n"
    "one thread each behind bounded queues (a batch carries the evidence of\n"
    "--flush-tuples routed tuples, --queue-capacity batches per queue).\n"
    "--shard-threads sets the estimation workers per shard (and the\n"
    "simulator's workers).\n"
    "A trace in the binary columnar codec (botmeter.trace_block.v1, see\n"
    "botmeter_trace_convert), from --trace or stdin alike, is told from text\n"
    "by its first byte and ingested block-at-a-time through the zero-copy\n"
    "path.\n"
    "--compact-state bounds per-shard memory: open (server, epoch) buckets\n"
    "past --compact-spill matched lookups (default 8192) fold into\n"
    "sketch-backed compact cells (KMV size --compact-kmv-k, default 1024)\n"
    "and stream on in O(1) space; spilled cells' estimates are flagged\n"
    "approximate (a \"~\" before the interval) with the sketch error widened\n"
    "into their intervals. Buckets below the threshold stay exact.\n"
    "--checkpoint-in resumes from a botmeter.cluster_checkpoint.v1 file\n"
    "(router + merge frontier + one stream checkpoint per shard);\n"
    "--checkpoint-out writes one after ingest, before the final close;\n"
    "--no-final skips the final close — use it when more of the feed is\n"
    "still to come.\n"
    "--metrics-out writes a botmeter.run_report.v1 JSON document; with\n"
    "--trace-timing the phase timing table goes to stderr, and --trace-out\n"
    "writes the span trace as Chrome trace_event JSON (open it in Perfetto,\n"
    "ui.perfetto.dev, or chrome://tracing).\n"
    "--listen serves live telemetry: GET /metrics is the Prometheus text\n"
    "exposition (cluster.* gauges carry per-shard label series; a single\n"
    "shard adds the engine's stream.* series; derived *.per_sec rate gauges\n"
    "appear from the second scrape on), GET /healthz the cluster health\n"
    "state folded from every shard plus the merge-frontier lag (ok/degraded\n"
    "-> 200, unhealthy -> 503; ?format=json for the full\n"
    "botmeter.cluster_health.v1 document; the --health-* flags set each\n"
    "shard's thresholds), GET /landscape the latest *merged* snapshot, GET\n"
    "/landscape/history?server=&from=&to= the retained epoch series, and GET\n"
    "/landscape/summary per-family totals — all landscape documents in the\n"
    "botmeter.landscape_series.v1 schema. GET /debug/lag serves the\n"
    "per-shard lag attribution and straggler table (botmeter.lag.v1), GET\n"
    "/events?from=&shard= the flight-recorder journal (botmeter.events.v1).\n"
    "Port 0 binds an ephemeral port; --listen-port-file writes the bound\n"
    "port (for scripts), --linger-ms keeps serving that long after the run.\n"
    "--history-out writes the retained merged landscape series after the\n"
    "run; --history-retain bounds the full-resolution ring (default 4096\n"
    "epochs). botmeter_top renders either the live endpoint or the file.\n"
    "--journal-out writes the journal after the run and is the auto-dump\n"
    "target should any shard or the cluster turn unhealthy mid-flight.\n";

/// Configuration echo embedded in the run report.
botmeter::json::Value config_echo(const botmeter::cluster::ClusterConfig& c,
                                  bool simulated, std::uint64_t ingested) {
  using botmeter::json::Value;
  botmeter::json::Object o;
  o.emplace("family", Value(c.meter.dga.name));
  o.emplace("estimator",
            Value(c.meter.estimator.empty() ? std::string("(recommended)")
                                            : c.meter.estimator));
  o.emplace("servers", Value(static_cast<double>(c.router.server_count())));
  o.emplace("shards", Value(static_cast<double>(c.router.shard_count())));
  o.emplace("shard_worker_threads",
            Value(static_cast<double>(c.meter.analyze_threads)));
  o.emplace("epochs", Value(static_cast<double>(c.epoch_count)));
  o.emplace("first_epoch", Value(static_cast<double>(c.first_epoch)));
  o.emplace("flush_tuples", Value(static_cast<double>(c.flush_tuples)));
  o.emplace("queue_capacity", Value(static_cast<double>(c.queue_capacity)));
  o.emplace("detection_miss_rate", Value(c.meter.detection_miss_rate));
  o.emplace("neg_ttl_ms",
            Value(static_cast<double>(c.meter.ttl.negative.millis())));
  o.emplace("source", Value(std::string(simulated ? "simulate" : "trace")));
  o.emplace("ingested", Value(static_cast<double>(ingested)));
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
    tools::CliArgs args(
        argc, argv,
        {"--family", "--config", "--estimator", "--servers", "--shards",
         "--shard-threads", "--epochs", "--first-epoch", "--neg-ttl-min",
         "--miss-rate", "--assume-miss", "--lateness-ms", "--flush-tuples",
         "--queue-capacity", "--trace", "--bots", "--seed", "--granularity-ms",
         "--checkpoint-in", "--checkpoint-out", "--metrics-out", "--trace-out",
         "--listen", "--listen-port-file", "--linger-ms", "--history-out",
         "--history-retain", "--journal-out", "--compact-spill",
         "--compact-kmv-k", "--health-degraded-lag-ms",
         "--health-unhealthy-lag-ms", "--health-degraded-late-rate",
         "--health-unhealthy-late-rate", "--health-recovery-hold-ms"},
        {"--help", "--simulate", "--no-final", "--viz", "--trace-timing",
         "--compact-state"});
    if (args.flag("--help")) {
      std::fputs(kUsage, stdout);
      return 0;
    }

    cluster::ClusterConfig config;
    config.meter.dga = tools::dga_config_from(args);
    config.meter.estimator = args.value_or("--estimator", "");
    config.meter.ttl.negative = minutes(args.int_or("--neg-ttl-min", 120));
    config.meter.detection_miss_rate = args.double_or("--miss-rate", 0.0);
    if (args.value("--assume-miss")) {
      config.meter.assumed_miss_rate = args.double_or("--assume-miss", 0.0);
    }
    config.first_epoch = args.int_or(
        "--first-epoch",
        config.meter.dga.taxonomy.pool == dga::PoolModel::kSlidingWindow ? 40
                                                                         : 0);
    config.epoch_count = args.int_or("--epochs", 1);
    const std::size_t servers = args.count_or("--servers", 1);
    const std::size_t shard_count =
        args.count_or("--shards", 1, tools::kMaxThreads);
    config.router = cluster::ShardRouter::by_range(servers, shard_count);
    config.meter.analyze_threads =
        args.threads_or("--shard-threads", 1, shard_count);
    config.flush_tuples = args.count_or("--flush-tuples", config.flush_tuples);
    config.queue_capacity =
        args.count_or("--queue-capacity", config.queue_capacity);
    if (args.value("--lateness-ms")) {
      config.allowed_lateness = milliseconds(args.int_or("--lateness-ms", 0));
    }
    config.compact_state = args.flag("--compact-state");
    config.compact_spill_threshold =
        args.count_or("--compact-spill", config.compact_spill_threshold);
    config.compact.kmv_k = static_cast<std::uint32_t>(
        args.count_or("--compact-kmv-k", config.compact.kmv_k,
                      std::numeric_limits<std::uint32_t>::max()));

    set_this_thread_label("main");
    const auto listen_port = args.value("--listen");
    // Serving live: /metrics, /landscape*, /debug/lag and /events read the
    // registry, the merged history, the lag tracker and the journal.
    tools::TelemetrySinks sinks(args, args.flag("--trace-timing"),
                                listen_port.has_value(), shard_count);
    config.meter.telemetry = sinks.bundle();

    const auto wall_start = std::chrono::steady_clock::now();
    const auto wall_ms = [wall_start] {
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - wall_start)
          .count();
    };

    if (listen_port) {
      // Per-shard monitors + frontier-lag fold; stamps the cluster state
      // onto merged history rows.
      stream::StreamHealthConfig health;
      health.degraded_watermark_lag_ms = args.double_or(
          "--health-degraded-lag-ms", health.degraded_watermark_lag_ms);
      health.unhealthy_watermark_lag_ms = args.double_or(
          "--health-unhealthy-lag-ms", health.unhealthy_watermark_lag_ms);
      health.degraded_late_rate = args.double_or(
          "--health-degraded-late-rate", health.degraded_late_rate);
      health.unhealthy_late_rate = args.double_or(
          "--health-unhealthy-late-rate", health.unhealthy_late_rate);
      health.recovery_hold_ms =
          args.double_or("--health-recovery-hold-ms", health.recovery_hold_ms);
      config.health = health;
    }

    cluster::ClusterRuntime runtime(std::move(config));
    const cluster::ClusterConfig& cfg = runtime.config();

    std::unique_ptr<obs::HttpExporter> exporter;
    // Derived per-second rate gauges, advanced once per /metrics scrape.
    // tick() runs only on the exporter thread (scrapes are serialized).
    obs::RateTracker rates({"stream.ingested", "stream.closed_epochs"});
    if (listen_port) {
      obs::HttpExporterConfig http;
      http.port = static_cast<std::uint16_t>(args.count_or(
          "--listen", 0, std::numeric_limits<std::uint16_t>::max()));
      const std::string family_name = cfg.meter.dga.name;
      std::map<std::string, obs::HttpExporter::Handler> routes;
      routes["/metrics"] = [&sinks, &rates, wall_ms](const obs::HttpRequest&) {
        obs::HttpResponse response;
        response.content_type = obs::kPrometheusContentType;
        obs::MetricsRegistry::Snapshot snapshot = sinks.metrics.snapshot();
        rates.tick(snapshot, wall_ms());
        response.body = obs::expose_prometheus(snapshot);
        return response;
      };
      routes["/healthz"] = [&runtime](const obs::HttpRequest& request) {
        obs::HttpResponse response;
        response.status =
            runtime.cluster_state() == stream::HealthState::kUnhealthy ? 503
                                                                       : 200;
        if (request.param("format").value_or("") == "json") {
          response.content_type = "application/json; charset=utf-8";
          response.body = json::write(runtime.health_json()) + "\n";
        } else {
          response.body =
              std::string(stream::health_state_name(runtime.cluster_state())) +
              "\n";
        }
        return response;
      };
      const auto json_response = [](std::string body) {
        obs::HttpResponse response;
        response.content_type = "application/json; charset=utf-8";
        response.body = std::move(body) + "\n";
        return response;
      };
      routes["/landscape"] = [&sinks, json_response](const obs::HttpRequest&) {
        return json_response(json::write(sinks.history->latest_json()));
      };
      routes["/landscape/history"] = [&sinks, json_response, family_name](
                                         const obs::HttpRequest& request) {
        try {
          if (const auto f = request.param("family");
              f && !f->empty() && *f != family_name) {
            obs::HttpResponse response;
            response.status = 404;
            response.body = "unknown family '" + *f + "'; this run is " +
                            family_name + "\n";
            return response;
          }
          const auto server = request.int_param<std::uint32_t>("server");
          const auto from = request.int_param<std::int64_t>("from");
          const auto to = request.int_param<std::int64_t>("to");
          return json_response(json::write(sinks.history->window_json(
              server, from.value_or(std::numeric_limits<std::int64_t>::min()),
              to.value_or(std::numeric_limits<std::int64_t>::max()))));
        } catch (const std::exception& e) {
          obs::HttpResponse response;
          response.status = 400;
          response.body = std::string("bad query: ") + e.what() + "\n";
          return response;
        }
      };
      routes["/landscape/summary"] =
          [&sinks, json_response](const obs::HttpRequest&) {
            return json_response(json::write(sinks.history->summary_json()));
          };
      routes["/debug/lag"] = [&sinks, json_response](const obs::HttpRequest&) {
        return json_response(json::write(sinks.lag->to_json()));
      };
      routes["/events"] = [&sinks,
                           json_response](const obs::HttpRequest& request) {
        try {
          const auto from = request.int_param<std::uint64_t>("from");
          const auto shard = request.int_param<std::int32_t>("shard");
          return json_response(
              json::write(sinks.journal->to_json(from.value_or(0), shard)));
        } catch (const std::exception& e) {
          obs::HttpResponse response;
          response.status = 400;
          response.content_type = "text/plain; charset=utf-8";
          response.body = std::string("bad query: ") + e.what() + "\n";
          return response;
        }
      };
      exporter = std::make_unique<obs::HttpExporter>(http, std::move(routes));
      std::fprintf(stderr, "telemetry: listening on 127.0.0.1:%u\n",
                   exporter->port());
      if (auto port_file = args.value("--listen-port-file")) {
        std::ofstream file(*port_file);
        if (!file) throw DataError("cannot open " + *port_file);
        file << exporter->port() << '\n';
      }
    }

    if (auto checkpoint_path = args.value("--checkpoint-in")) {
      std::ifstream file(*checkpoint_path);
      if (!file) throw DataError("cannot open " + *checkpoint_path);
      std::string text((std::istreambuf_iterator<char>(file)),
                       std::istreambuf_iterator<char>());
      runtime.restore(json::parse(text));
      std::fprintf(stderr, "resumed from %s: merge frontier at epoch %lld\n",
                   checkpoint_path->c_str(),
                   static_cast<long long>(runtime.merge_frontier()));
    }

    // One line per *merged* epoch, printed from the ingest thread as the
    // frontier advances (merged rows are immutable once published).
    std::int64_t printed = runtime.merge_frontier();
    const auto print_merged = [&runtime, &printed] {
      for (; printed < runtime.merge_frontier(); ++printed) {
        const cluster::MergedEpoch merged = runtime.merger().merged_epoch(printed);
        double total = 0.0;
        for (const estimators::EpochCell& cell : merged.cells) {
          total += cell.estimate.value;
        }
        std::ostringstream line;
        line << "epoch " << merged.epoch << ": total=" << total;
        for (std::size_t s = 0; s < merged.cells.size(); ++s) {
          line << " server-" << s << "=" << merged.cells[s].estimate.value;
        }
        std::printf("%s\n", line.str().c_str());
        std::fflush(stdout);
      }
    };

    // Ingest: a replayed trace (stdin / --trace) or a simulation feeding the
    // runtime through the vantage-point sink — either way never a
    // materialised stream. The ingest thread samples health (from the
    // counters each shard publishes; any thread could) once every 4096
    // tuples, or once per block (<= 64k tuples) on the binary path, and
    // prints merged epoch lines at the same cadence.
    const bool simulate_mode = args.flag("--simulate");
    const auto poll = [&] {
      if (listen_port) (void)runtime.sample_health(wall_ms());
      print_merged();
    };
    std::uint64_t ingest_tick = 0;
    const auto ingest_one = [&](const dns::ForwardedLookup& lookup) {
      runtime.ingest(lookup);
      if ((++ingest_tick & 0xFFF) == 0) poll();
    };
    const auto ingest_block = [&](const dns::LookupColumns& block,
                                  std::span<const std::string_view> table) {
      runtime.ingest_block(block, table);
      poll();
    };
    const auto ingest_start = std::chrono::steady_clock::now();
    if (simulate_mode) {
      const std::size_t bots = args.count_or(
          "--bots", 0, std::numeric_limits<std::uint32_t>::max());
      if (bots == 0) throw tools::UsageError("--simulate requires --bots > 0");
      botnet::SimulationConfig sim;
      sim.dga = cfg.meter.dga;
      sim.bot_count = static_cast<std::uint32_t>(bots);
      sim.server_count = servers;
      sim.ttl = cfg.meter.ttl;
      sim.first_epoch = cfg.first_epoch;
      sim.epoch_count = cfg.epoch_count;
      sim.seed = static_cast<std::uint64_t>(args.int_or("--seed", 1));
      sim.timestamp_granularity =
          milliseconds(args.int_or("--granularity-ms", 100));
      sim.record_raw = false;
      // The generator shares the run's worker budget and telemetry sinks,
      // so its per-chunk spans land on the worker tracks of the same
      // Perfetto trace and its counters appear in the live /metrics page.
      sim.worker_threads = cfg.meter.analyze_threads;
      sim.telemetry = cfg.meter.telemetry;
      sim.observable_sink = ingest_one;
      (void)botnet::simulate(sim);
    } else {
      std::ifstream file;
      if (auto path = args.value("--trace")) {
        file.open(*path, std::ios::binary);
        if (!file) throw DataError("cannot open " + *path);
      }
      std::istream& in = file.is_open() ? file : std::cin;
      if (trace::is_block_stream(in)) {
        (void)trace::for_each_block(in, ingest_block);
      } else {
        (void)trace::for_each_observable(in, ingest_one);
      }
    }
    runtime.flush();
    const double ingest_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - ingest_start)
            .count();
    if (cfg.meter.telemetry.trace != nullptr) {
      cfg.meter.telemetry.trace->record("cluster.ingest", ingest_ms);
    }
    // Once every shard has applied every batch sent, the merged epochs are
    // all the ones the front closed (--no-final prints no others), and the
    // counters below are exact at every shard count.
    runtime.drain();
    print_merged();
    if (listen_port) (void)runtime.sample_health(wall_ms());

    if (auto checkpoint_path = args.value("--checkpoint-out")) {
      std::ofstream file(*checkpoint_path);
      if (!file) throw DataError("cannot open " + *checkpoint_path);
      file << json::write_pretty(runtime.checkpoint());
      std::fprintf(stderr, "cluster checkpoint written to %s\n",
                   checkpoint_path->c_str());
    }

    if (!args.flag("--no-final")) {
      const core::LandscapeReport report = runtime.finish();
      print_merged();
      if (args.flag("--viz")) {
        std::fputs(viz::render_landscape(report).c_str(), stdout);
      } else {
        std::printf("# estimator: %s\n", report.estimator_name.c_str());
        std::printf("%-10s %12s %18s %16s\n", "server", "population", "90%-CI",
                    "matched_lookups");
        for (const core::ServerEstimate& s : report.servers) {
          char ci[32] = "-";
          if (s.interval90) {
            // "~" marks a sketch-approximate band (compact path, saturated).
            std::snprintf(ci, sizeof(ci), "%s[%.1f, %.1f]",
                          s.approximate ? "~" : "", s.interval90->first,
                          s.interval90->second);
          }
          std::printf("server-%-3u %12.1f %18s %16llu\n", s.server.value(),
                      s.population, ci,
                      static_cast<unsigned long long>(s.matched_lookups));
        }
        std::printf("total: %.1f\n", report.total_population());
      }
      if (listen_port) (void)runtime.sample_health(wall_ms());
    }

    // Per-shard counters: every queue was drained above.
    std::uint64_t ingested = 0, matched = 0, unmatched = 0, late = 0,
                  spills = 0, peak_open = 0;
    for (std::size_t i = 0; i < runtime.shard_count(); ++i) {
      const cluster::ShardStats stats = runtime.shard_stats(i);
      ingested += stats.ingested;
      matched += stats.matched;
      unmatched += stats.unmatched;
      late += stats.late_dropped;
      spills += stats.compact_spills;
      peak_open += stats.peak_open_buffer_bytes;
    }
    const double tuples_per_sec =
        ingest_ms > 0.0 ? static_cast<double>(ingested) / (ingest_ms / 1000.0)
                        : 0.0;
    if (args.value("--metrics-out")) {
      sinks.metrics.gauge("cluster.ingest_wall_ms").set(ingest_ms);
      sinks.metrics.gauge("cluster.ingest_tuples_per_sec").set(tuples_per_sec);
    }
    std::fprintf(stderr,
                 "%zu shards ingested %llu tuples (%.0f/s): %llu matched, "
                 "%llu unmatched, %llu late-dropped; merge frontier %lld; "
                 "%llu peak open bytes\n",
                 runtime.shard_count(),
                 static_cast<unsigned long long>(ingested), tuples_per_sec,
                 static_cast<unsigned long long>(matched),
                 static_cast<unsigned long long>(unmatched),
                 static_cast<unsigned long long>(late),
                 static_cast<long long>(runtime.merge_frontier()),
                 static_cast<unsigned long long>(peak_open));
    if (cfg.compact_state) {
      std::fprintf(stderr, "compact state: %llu bucket spills\n",
                   static_cast<unsigned long long>(spills));
    }

    sinks.write_outputs("botmeter_cluster",
                        config_echo(cfg, simulate_mode, ingested));

    // Keep the scrape endpoint up (with fresh samples) so operators and CI
    // can inspect the terminal state of a short run.
    if (exporter && args.int_or("--linger-ms", 0) > 0) {
      const double deadline = wall_ms() + args.double_or("--linger-ms", 0.0);
      while (wall_ms() < deadline) {
        (void)runtime.sample_health(wall_ms());
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
    if (exporter) exporter->stop();
    return 0;
  } catch (const Error& e) {
    return tools::report_error(e, kUsage);
  }
}
