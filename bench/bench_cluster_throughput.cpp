// bench_cluster_throughput — multi-border cluster scaling characterisation.
//
// Simulates one union border feed, serialises it once in the binary columnar
// codec, then measures ingest throughput of cluster::ClusterRuntime at
// 1 / 2 / 4 / 8 shards: one producer thread decodes the union bytes and
// drives ClusterRuntime::ingest_block, the zero-copy block path
// botmeter_cluster runs, whose one front matches every tuple and ships each
// shard its evidence. Best-of-3 per shard count. The 1-shard lane is the
// inline single-shard runtime (the engine on the producer's thread, no
// queue); from 2 shards on every shard runs on its own thread behind a
// bounded queue.
//
// Three guards:
//   - byte identity (always enforced): every shard count's final
//     landscape_to_json document must equal the single StreamEngine's over
//     the union feed — sharding is a throughput knob, never a result knob;
//   - scaling floor (enforced only with >= 8 hardware threads): 8 shards
//     must sustain at least kScalingFloor x the 2-shard throughput — the
//     smallest threaded lane, so the ratio measures thread scaling rather
//     than the inline lane's missing queue hop (8 vs 1 is still reported).
//     On smaller hosts the producer and shard threads time-share cores, so
//     the measured ratio is scheduler behaviour, not cluster behaviour — the
//     numbers are still reported;
//   - instrumentation overhead (enforced only with >= 8 hardware threads):
//     a 4-shard run with the full observability layer attached (LagTracker
//     + EventJournal + TraceSession) must sustain at least kOverheadFloor x
//     the plain 4-shard throughput, and its report must still be
//     byte-identical — "provably free" as a regression gate, not a slogan.
//
// The timed window covers decode + match + scatter + queue + shard-engine
// ingest: the clock stops when drain() returns, once every shard has applied
// every batch. Lateness is
// stretched past the horizon so epoch closes (estimator work, identical at
// every shard count) run inside the untimed finish(), exactly as
// bench_stream_throughput times its codec lanes.
//
// A memory lane mirrors bench_stream_throughput's memory guard at cluster
// scale: the frozen large-fleet workload through 4 shards, exact vs
// --compact-state, lateness stretched past the horizon. The summed per-shard
// open-epoch byte high-water marks must drop by >= kMemoryReductionFloor x
// with the per-server absolute relative error inside kMemoryAreLimit; the
// process peak RSS lands at the JSON root as "peak_rss_bytes".
//
// Results go to stdout as a table and to BENCH_cluster.json (schema
// botmeter.bench_cluster.v1); pass an output path as argv[1] to redirect.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "botnet/simulator.hpp"
#include "cluster/cluster_runtime.hpp"
#include "common/json.hpp"
#include "core/botmeter.hpp"
#include "dga/families.hpp"
#include "obs/event_journal.hpp"
#include "obs/lag_tracker.hpp"
#include "obs/trace.hpp"
#include "stream/stream_engine.hpp"
#include "support/rss.hpp"
#include "trace/block.hpp"

namespace {

using namespace botmeter;

constexpr const char* kFamily = "Murofet";
constexpr std::uint32_t kBots = 256;
constexpr std::size_t kServers = 8;
constexpr std::int64_t kEpochs = 4;
constexpr int kReps = 3;
/// 8 shards must beat 2 shards by at least this factor — enforced only when
/// the host has >= 8 hardware threads (see header comment). Four times the
/// shards at 37.5% efficiency: the same bar the former 3x-over-one-threaded-
/// shard floor set.
constexpr double kScalingFloor = 1.5;
/// The fully instrumented 4-shard lane must keep at least this fraction of
/// the plain 4-shard throughput (< 2% overhead) — same enforcement gate.
constexpr double kOverheadFloor = 0.98;
/// Shard count for the instrumentation-overhead lane.
constexpr std::size_t kOverheadShards = 4;

double wall_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Measurement {
  std::size_t shards = 0;
  std::size_t tuples = 0;
  double best_ms = std::numeric_limits<double>::infinity();
  double tuples_per_sec = 0.0;
  double speedup_vs_one = 0.0;
  std::size_t peak_open_bytes = 0;  // summed shard high-water marks
  bool report_identical = false;
};

/// Cluster memory lane (see header comment): frozen large-fleet workload,
/// exact vs compact, open-epoch byte high-water marks summed across shards.
struct MemoryGuard {
  std::size_t tuples = 0;
  std::size_t shards = 0;
  std::size_t exact_peak_bytes = 0;
  std::size_t compact_peak_bytes = 0;
  double reduction = 0.0;
  std::uint64_t compact_spills = 0;
  std::size_t servers = 0;
  std::size_t approximate_servers = 0;
  double are = 0.0;
  bool pass = false;
};

constexpr double kMemoryReductionFloor = 10.0;
constexpr double kMemoryAreLimit = 0.25;
constexpr std::size_t kMemoryShards = 4;
constexpr std::uint32_t kMemoryBots = 1024;
constexpr std::size_t kMemoryServers = 8;
constexpr std::int64_t kMemoryEpochs = 6;
constexpr std::size_t kMemorySpillThreshold = 512;
constexpr std::uint32_t kMemoryKmvK = 256;

MemoryGuard run_memory_guard() {
  // Same frozen workload as bench_stream_throughput's memory guard, spread
  // over 8 servers so the 4-shard router has work for every shard.
  const dga::DgaConfig family = dga::family_config("newGoZ");
  botnet::SimulationConfig sim;
  sim.dga = family;
  sim.bot_count = kMemoryBots;
  sim.server_count = kMemoryServers;
  sim.first_epoch = 0;
  sim.epoch_count = kMemoryEpochs;
  sim.seed = 7;
  sim.record_raw = false;
  const botnet::SimulationResult result = botnet::simulate(sim);

  struct Arm {
    core::LandscapeReport report;
    std::size_t peak_bytes = 0;
    std::uint64_t spills = 0;
  };
  const auto run_arm = [&](bool compact) {
    cluster::ClusterConfig config;
    config.meter.dga = family;
    config.first_epoch = 0;
    config.epoch_count = kMemoryEpochs;
    config.router = cluster::ShardRouter::by_range(kMemoryServers, kMemoryShards);
    // Hold every epoch open until finish() — the peak then covers the whole
    // horizon's state, the case the compact path exists for.
    config.allowed_lateness =
        Duration{family.epoch.millis() * (kMemoryEpochs + 2)};
    if (compact) {
      config.compact_state = true;
      config.compact_spill_threshold = kMemorySpillThreshold;
      config.compact.kmv_k = kMemoryKmvK;
    }
    cluster::ClusterRuntime runtime(std::move(config));
    runtime.ingest(result.observable);
    Arm arm;
    arm.report = runtime.finish();
    for (std::size_t i = 0; i < runtime.shard_count(); ++i) {
      const cluster::ShardStats stats = runtime.shard_stats(i);
      arm.peak_bytes += stats.peak_open_buffer_bytes;
      arm.spills += stats.compact_spills;
    }
    return arm;
  };

  const Arm exact = run_arm(false);
  const Arm compact = run_arm(true);

  MemoryGuard guard;
  guard.tuples = result.observable.size();
  guard.shards = kMemoryShards;
  guard.exact_peak_bytes = exact.peak_bytes;
  guard.compact_peak_bytes = compact.peak_bytes;
  guard.compact_spills = compact.spills;
  guard.reduction = compact.peak_bytes > 0
                        ? static_cast<double>(exact.peak_bytes) /
                              static_cast<double>(compact.peak_bytes)
                        : 0.0;
  guard.servers = exact.report.servers.size();
  std::size_t compared = 0;
  for (std::size_t i = 0; i < exact.report.servers.size(); ++i) {
    const double e = exact.report.servers[i].population;
    const double c = compact.report.servers[i].population;
    if (e > 0.0) {
      guard.are += std::abs(c - e) / e;
      ++compared;
    }
    if (compact.report.servers[i].approximate) ++guard.approximate_servers;
  }
  if (compared > 0) guard.are /= static_cast<double>(compared);
  guard.pass = guard.reduction >= kMemoryReductionFloor &&
               guard.compact_spills > 0 && guard.are <= kMemoryAreLimit;
  return guard;
}

json::Value to_json(const MemoryGuard& g) {
  using json::Value;
  json::Object o;
  o.emplace("tuples", Value(static_cast<double>(g.tuples)));
  o.emplace("shards", Value(static_cast<double>(g.shards)));
  o.emplace("exact_peak_open_buffer_bytes",
            Value(static_cast<double>(g.exact_peak_bytes)));
  o.emplace("compact_peak_open_buffer_bytes",
            Value(static_cast<double>(g.compact_peak_bytes)));
  o.emplace("reduction", Value(g.reduction));
  o.emplace("reduction_floor", Value(kMemoryReductionFloor));
  o.emplace("compact_spills", Value(static_cast<double>(g.compact_spills)));
  o.emplace("compact_spill_threshold",
            Value(static_cast<double>(kMemorySpillThreshold)));
  o.emplace("kmv_k", Value(static_cast<double>(kMemoryKmvK)));
  o.emplace("approximate_servers",
            Value(static_cast<double>(g.approximate_servers)));
  o.emplace("are", Value(g.are));
  o.emplace("are_limit", Value(kMemoryAreLimit));
  o.emplace("pass", Value(g.pass));
  return Value(std::move(o));
}

json::Value to_json(const Measurement& m) {
  using json::Value;
  json::Object o;
  o.emplace("shards", Value(static_cast<double>(m.shards)));
  o.emplace("tuples", Value(static_cast<double>(m.tuples)));
  o.emplace("ingest_ms", Value(m.best_ms));
  o.emplace("tuples_per_sec", Value(m.tuples_per_sec));
  o.emplace("speedup_vs_one_shard", Value(m.speedup_vs_one));
  o.emplace("peak_open_buffer_bytes",
            Value(static_cast<double>(m.peak_open_bytes)));
  o.emplace("report_identical", Value(m.report_identical));
  return Value(std::move(o));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_cluster.json";
  const dga::DgaConfig family = dga::family_config(kFamily);

  botnet::SimulationConfig sim;
  sim.dga = family;
  sim.bot_count = kBots;
  sim.server_count = kServers;
  sim.first_epoch = 0;
  sim.epoch_count = kEpochs;
  sim.seed = 7;
  sim.record_raw = false;
  const botnet::SimulationResult result = botnet::simulate(sim);
  const std::size_t tuples = result.observable.size();

  // Epoch closes run inside the untimed finish() at every shard count.
  const Duration lateness{family.epoch.millis() * (kEpochs + 2)};

  // Single-engine reference over the union feed: the byte-identity anchor.
  std::string reference_report;
  {
    stream::StreamEngineConfig config;
    config.meter.dga = family;
    config.first_epoch = 0;
    config.epoch_count = kEpochs;
    config.server_count = kServers;
    config.allowed_lateness = lateness;
    stream::StreamEngine engine(config);
    engine.ingest(result.observable);
    reference_report = json::write(core::landscape_to_json(engine.finish()));
  }

  std::ostringstream union_os;
  trace::write_blocks(union_os, result.observable);
  const std::string union_bytes = union_os.str();

  std::printf("cluster scaling: %s, %u bots, %zu servers, %lld epochs, "
              "%zu tuples (%u hardware threads)\n",
              kFamily, kBots, kServers, static_cast<long long>(kEpochs),
              tuples, std::thread::hardware_concurrency());
  std::printf("%-7s %9s %10s %12s %8s %6s\n", "shards", "tuples", "best_ms",
              "tuples/s", "speedup", "bytes");

  // One lane: best-of-kReps ingest of the union feed at `shard_count`
  // shards, optionally with the full observability layer attached. The timed
  // window is identical either way — instrumentation must pay for itself
  // inside it.
  const auto measure = [&](std::size_t shard_count, bool instrumented) {
    Measurement m;
    m.shards = shard_count;
    m.tuples = tuples;
    for (int rep = 0; rep < kReps; ++rep) {
      std::optional<obs::LagTracker> lag;
      std::optional<obs::EventJournal> journal;
      std::optional<obs::TraceSession> trace_session;
      cluster::ClusterConfig config;
      config.meter.dga = family;
      config.first_epoch = 0;
      config.epoch_count = kEpochs;
      config.router = cluster::ShardRouter::by_range(kServers, shard_count);
      config.allowed_lateness = lateness;
      if (instrumented) {
        lag.emplace(shard_count);
        journal.emplace();
        trace_session.emplace();
        config.meter.telemetry.lag = &*lag;
        config.meter.telemetry.journal = &*journal;
        config.meter.telemetry.trace = &*trace_session;
      }
      cluster::ClusterRuntime runtime(std::move(config));

      const auto start = std::chrono::steady_clock::now();
      std::istringstream is(union_bytes);
      (void)trace::for_each_block(
          is, [&runtime](const dns::LookupColumns& block,
                         std::span<const std::string_view> table) {
            runtime.ingest_block(block, table);
          });
      runtime.drain();
      m.best_ms = std::min(m.best_ms, wall_ms_since(start));

      const std::string report =
          json::write(core::landscape_to_json(runtime.finish()));
      std::size_t peak_sum = 0;
      for (std::size_t i = 0; i < runtime.shard_count(); ++i) {
        peak_sum += runtime.shard_stats(i).peak_open_buffer_bytes;
      }
      m.peak_open_bytes = std::max(m.peak_open_bytes, peak_sum);
      m.report_identical = report == reference_report;
      if (!m.report_identical) break;
    }
    m.tuples_per_sec =
        m.best_ms > 0.0 ? static_cast<double>(tuples) / (m.best_ms / 1e3) : 0.0;
    return m;
  };

  json::Array results;
  double one_shard_tps = 0.0;
  double two_shard_tps = 0.0;
  double four_shard_tps = 0.0;
  double eight_shard_tps = 0.0;
  bool all_identical = true;
  for (const std::size_t shard_count : {1u, 2u, 4u, 8u}) {
    Measurement m = measure(shard_count, /*instrumented=*/false);
    all_identical = all_identical && m.report_identical;
    if (shard_count == 1) one_shard_tps = m.tuples_per_sec;
    if (shard_count == 2) two_shard_tps = m.tuples_per_sec;
    if (shard_count == 4) four_shard_tps = m.tuples_per_sec;
    if (shard_count == 8) eight_shard_tps = m.tuples_per_sec;
    m.speedup_vs_one =
        one_shard_tps > 0.0 ? m.tuples_per_sec / one_shard_tps : 0.0;
    std::printf("%-7zu %9zu %10.1f %12.0f %7.2fx %6s\n", m.shards, m.tuples,
                m.best_ms, m.tuples_per_sec, m.speedup_vs_one,
                m.report_identical ? "same" : "DIFF");
    results.push_back(to_json(m));
  }

  // Instrumentation-overhead lane: the same 4-shard configuration with the
  // full observability layer live (lag histograms + flight recorder + flow
  // tracing), against the plain 4-shard best above.
  const Measurement instr = measure(kOverheadShards, /*instrumented=*/true);
  all_identical = all_identical && instr.report_identical;
  const double overhead_ratio =
      four_shard_tps > 0.0 ? instr.tuples_per_sec / four_shard_tps : 0.0;
  std::printf("%-7s %9zu %10.1f %12.0f %7s %6s\n", "4+obs", instr.tuples,
              instr.best_ms, instr.tuples_per_sec, "-",
              instr.report_identical ? "same" : "DIFF");

  const double scaling =
      two_shard_tps > 0.0 ? eight_shard_tps / two_shard_tps : 0.0;
  const double scaling_vs_inline =
      one_shard_tps > 0.0 ? eight_shard_tps / one_shard_tps : 0.0;
  const bool enforced = std::thread::hardware_concurrency() >= 8;
  const bool scaling_pass = scaling >= kScalingFloor;
  std::printf(
      "scaling: 8 shards at %.2fx the 2-shard throughput (floor %.1fx): %s; "
      "%.2fx the inline 1-shard throughput (reported only)\n",
      scaling, kScalingFloor,
      scaling_pass ? "pass"
      : enforced   ? "FAIL"
                   : "below floor (not enforced: fewer than 8 hardware "
                     "threads — the producer and shards time-share cores)",
      scaling_vs_inline);
  const bool overhead_pass = overhead_ratio >= kOverheadFloor;
  std::printf(
      "instrumentation: lag+journal+trace at %.3fx the plain %zu-shard "
      "throughput (floor %.2fx): %s\n",
      overhead_ratio, kOverheadShards, kOverheadFloor,
      overhead_pass ? "pass"
      : enforced    ? "FAIL"
                    : "below floor (not enforced: fewer than 8 hardware "
                      "threads — timing noise dominates on shared cores)");

  const MemoryGuard memory_guard = run_memory_guard();
  std::printf(
      "memory lane: %zu shards, exact peak %zu B, compact peak %zu B -> "
      "%.1fx reduction (floor %.0fx), %llu spills, ARE %.4f (limit %.2f), "
      "%zu/%zu servers sketch-flagged: %s\n",
      memory_guard.shards, memory_guard.exact_peak_bytes,
      memory_guard.compact_peak_bytes, memory_guard.reduction,
      kMemoryReductionFloor,
      static_cast<unsigned long long>(memory_guard.compact_spills),
      memory_guard.are, kMemoryAreLimit, memory_guard.approximate_servers,
      memory_guard.servers, memory_guard.pass ? "pass" : "FAIL");

  json::Object root;
  root.emplace("schema", json::Value(std::string("botmeter.bench_cluster.v1")));
  root.emplace("family", json::Value(std::string(kFamily)));
  root.emplace("tuples", json::Value(static_cast<double>(tuples)));
  root.emplace("hardware_threads",
               json::Value(static_cast<double>(
                   std::thread::hardware_concurrency())));
  root.emplace("results", json::Value(std::move(results)));
  root.emplace("scaling_8_vs_2", json::Value(scaling));
  root.emplace("scaling_8_vs_1", json::Value(scaling_vs_inline));
  root.emplace("scaling_floor", json::Value(kScalingFloor));
  root.emplace("scaling_enforced", json::Value(enforced));
  root.emplace("scaling_pass", json::Value(scaling_pass));
  root.emplace("reports_identical", json::Value(all_identical));
  {
    json::Object o;
    o.emplace("shards", json::Value(static_cast<double>(kOverheadShards)));
    o.emplace("plain_tuples_per_sec", json::Value(four_shard_tps));
    o.emplace("instrumented_tuples_per_sec", json::Value(instr.tuples_per_sec));
    o.emplace("instrumented_ingest_ms", json::Value(instr.best_ms));
    o.emplace("ratio", json::Value(overhead_ratio));
    o.emplace("floor", json::Value(kOverheadFloor));
    o.emplace("enforced", json::Value(enforced));
    o.emplace("pass", json::Value(overhead_pass));
    o.emplace("report_identical", json::Value(instr.report_identical));
    root.emplace("instrumentation", json::Value(std::move(o)));
  }
  root.emplace("memory_guard", to_json(memory_guard));
  root.emplace("peak_rss_bytes",
               json::Value(static_cast<double>(bench::peak_rss_bytes())));
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << json::write_pretty(json::Value(std::move(root)));
  std::printf("wrote %s\n", out_path.c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: a sharded run produced a different landscape than the "
                 "single engine on the union feed\n");
    return 1;
  }
  if (enforced && !scaling_pass) {
    std::fprintf(stderr,
                 "FAIL: 8 shards sustained only %.2fx the 2-shard throughput "
                 "(floor %.1fx)\n",
                 scaling, kScalingFloor);
    return 1;
  }
  if (enforced && !overhead_pass) {
    std::fprintf(stderr,
                 "FAIL: instrumentation kept only %.3fx the plain %zu-shard "
                 "throughput (floor %.2fx — the observability layer must "
                 "stay under 2%% overhead)\n",
                 overhead_ratio, kOverheadShards, kOverheadFloor);
    return 1;
  }
  if (!memory_guard.pass) {
    std::fprintf(stderr,
                 "FAIL: compact state cut summed open-epoch bytes only %.1fx "
                 "(floor %.0fx) with ARE %.4f (limit %.2f) and %llu spills\n",
                 memory_guard.reduction, kMemoryReductionFloor,
                 memory_guard.are, kMemoryAreLimit,
                 static_cast<unsigned long long>(memory_guard.compact_spills));
    return 1;
  }
  return 0;
}
