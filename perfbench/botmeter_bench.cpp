// botmeter_bench — the repository benchmark.
//
// Replays seeded, in-memory border traces (trace_gen.hpp) through the public
// call sequences the tools use, and times every layer from outside by timing
// the calls into its public functions:
//
//   border-binary    botmeter_stream --binary: BlockReader::next ->
//                    StreamEngine::ingest_block -> finish (1 thread)
//   border-text      botmeter_stream: for_each_observable -> per-tuple
//                    StreamEngine::ingest -> finish (1 thread)
//   wide-batch       botmeter_analyze --binary: read_blocks ->
//                    BotMeter::analyze, analyze_threads = 2
//   cluster-compact  botmeter_cluster --compact-state: BlockReader::next ->
//                    ClusterRuntime::ingest_block -> finish (2 shards)
//
// Every pass builds a fresh pipeline, reads the held bytes through a
// zero-copy streambuf, and must reproduce an independent reference landscape
// byte for byte. The pass count is fixed per workload and per --seconds
// (Workload::passes_per_second), so every commit does the same work; every
// reported number is a median or a percentile over passes.
//
// Untraced runs report the end-to-end metrics. Traced runs (--trace 1) add
// harness-side spans, recorded into an obs::TraceSession that no pipeline
// config sees, plus probes of single layers, and report per-layer metrics;
// they alternate traced and untraced passes to measure their own overhead.
// A layer the workload's own pipeline never calls reports 0 for its metrics.
//
// Usage:
//   botmeter_bench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//                  [--trace-out <chrome-trace.json>] [--out <record.json>]
//   botmeter_bench --smoke [--out <record.json>]
//
// Output: one "name value unit" line per metric, then one JSON line
// {"correct", "attempted", "failed", "metrics"}. --out writes the run as one
// botmeter.bench.v2 record. Exit status: 0 when every pass matched its
// reference, 1 when one did not, 2 on a usage or set-up error.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "cluster/cluster_runtime.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "core/botmeter.hpp"
#include "obs/trace.hpp"
#include "proc_stats.hpp"
#include "stream/stream_engine.hpp"
#include "trace/block.hpp"
#include "trace/io.hpp"
#include "trace_gen.hpp"

namespace {

using namespace botmeter;
using perfbench::Codec;
using perfbench::Trace;
using perfbench::TraceSpec;

constexpr std::string_view kSchema = "botmeter.bench.v2";
constexpr int kMinPasses = 3;
constexpr int kProbeReps = 3;
constexpr std::size_t kClusterShards = 2;
constexpr std::size_t kTextSpanTuples = 4096;
/// Seeds of the fixed calibration traces landscape_are is measured on.
constexpr std::array<std::uint64_t, 4> kCalibrationSeeds = {1, 2, 3, 4};

const auto kOrigin = std::chrono::steady_clock::now();

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - kOrigin)
      .count();
}

double pct(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : percentile(values, p);
}

double median(const std::vector<double>& values) { return pct(values, 50.0); }

/// Read-only streambuf over bytes the harness holds: a pass decodes straight
/// from them, with no per-pass copy into an istringstream.
class ViewBuf : public std::streambuf {
 public:
  explicit ViewBuf(std::string_view bytes) {
    char* begin = const_cast<char*>(bytes.data());
    setg(begin, begin, begin + bytes.size());
  }
};

// --- workloads --------------------------------------------------------------

enum class Pipeline { kStream, kBatch, kCluster };

struct Workload {
  std::string_view name;
  Pipeline pipeline;
  /// Passes a run makes per second of --seconds: about one second of
  /// passes on a 4-vCPU Xeon VM. Fixed, so every commit runs the same passes.
  double passes_per_second;
  TraceSpec full;
  TraceSpec smoke;
};

TraceSpec border_trace(Codec codec) {
  TraceSpec s;
  s.family = "Murofet";
  s.bots = 64;
  s.servers = 16;
  s.epochs = 32;
  s.benign_per_dga = 9;
  s.benign_ids = std::uint32_t{1} << 18;
  s.displaced_share = 0.01;
  s.late_share = 0.001;
  s.codec = codec;
  return s;
}

TraceSpec wide_trace() {
  TraceSpec s;
  s.family = "newGoZ";
  s.bots = 256;
  s.servers = 512;
  s.epochs = 2;
  s.benign_per_dga = 2;
  s.benign_ids = std::uint32_t{1} << 18;
  return s;
}

/// The same shape at toy size, for --smoke.
TraceSpec toy(TraceSpec s) {
  s.bots = std::min<std::uint32_t>(s.bots, 32);
  s.servers = std::min<std::size_t>(s.servers, 8);
  s.epochs = std::min<std::int64_t>(s.epochs, 4);
  s.benign_per_dga = std::min<std::uint32_t>(s.benign_per_dga, 3);
  s.benign_ids = 1024;
  if (s.late_share > 0.0) s.late_share = 0.05;
  return s;
}

const std::array<Workload, 4>& workloads() {
  static const std::array<Workload, 4> all = {{
      {"border-binary", Pipeline::kStream, 8.0, border_trace(Codec::kBinary),
       toy(border_trace(Codec::kBinary))},
      {"border-text", Pipeline::kStream, 1.1, border_trace(Codec::kText),
       toy(border_trace(Codec::kText))},
      {"wide-batch", Pipeline::kBatch, 4.0, wide_trace(), toy(wide_trace())},
      {"cluster-compact", Pipeline::kCluster, 1.5, border_trace(Codec::kBinary),
       toy(border_trace(Codec::kBinary))},
  }};
  return all;
}

std::size_t pass_count(const Workload& w, double seconds) {
  const long passes = std::lround(w.passes_per_second * seconds);
  return static_cast<std::size_t>(std::max<long>(kMinPasses, passes));
}

stream::StreamEngineConfig stream_config(const Trace& trace) {
  stream::StreamEngineConfig config;
  config.meter.dga = trace.family;
  config.first_epoch = 0;
  config.epoch_count = trace.spec.epochs;
  config.server_count = trace.spec.servers;
  return config;
}

core::BotMeterConfig batch_config(const Trace& trace, std::size_t threads) {
  core::BotMeterConfig config;
  config.dga = trace.family;
  config.analyze_threads = threads;
  return config;
}

cluster::ClusterConfig cluster_config(const Trace& trace) {
  cluster::ClusterConfig config;
  config.meter.dga = trace.family;
  config.first_epoch = 0;
  config.epoch_count = trace.spec.epochs;
  config.router =
      cluster::ShardRouter::by_range(trace.spec.servers, kClusterShards);
  config.compact_state = true;
  config.compact_spill_threshold = 512;
  config.compact.kmv_k = 256;
  return config;
}

// --- spans ------------------------------------------------------------------

enum Span : std::size_t {
  kPass,
  kSetup,
  kDecode,
  kIngest,
  kClose,
  kFinish,
  kAnalyze,
  kScatter,
  kPoll,
  kProbe,
  kSpanKinds
};

constexpr std::array<const char*, kSpanKinds> kSpanNames = {
    "pass",    "setup",   "decode",  "ingest", "close",
    "finish",  "analyze", "scatter", "poll",   "probe"};

/// Harness-side span ledger: per-kind wall totals (for self times) and,
/// when a session is attached, the spans themselves (for the Chrome trace).
/// `close` spans nest inside `ingest` or `finish`; every other layer span
/// nests directly inside `pass`.
class Tracer {
 public:
  explicit Tracer(obs::TraceSession* session = nullptr) : session_(session) {}

  void span(Span kind, double start_ms, double end_ms, std::uint32_t depth,
            const char* name = nullptr) {
    total_[kind] += end_ms - start_ms;
    if (session_ != nullptr) {
      session_->record_span(name != nullptr ? name : kSpanNames[kind],
                            start_ms, end_ms - start_ms, this_thread_ordinal(),
                            depth);
    }
  }

  void close(double start_ms, double end_ms, bool in_finish) {
    span(kClose, start_ms, end_ms, 2);
    if (in_finish) close_in_finish_ += end_ms - start_ms;
  }

  [[nodiscard]] double total(Span kind) const { return total_[kind]; }

  /// Span time minus the child spans inside it.
  [[nodiscard]] double self(Span kind) const {
    switch (kind) {
      case kIngest:
        return total_[kIngest] - (total_[kClose] - close_in_finish_);
      case kFinish:
        return total_[kFinish] - close_in_finish_;
      case kPass: {
        double children = 0.0;
        for (Span k : {kDecode, kIngest, kFinish, kAnalyze, kScatter, kPoll}) {
          children += total_[k];
        }
        return total_[kPass] - children;
      }
      default:
        return total_[kind];
    }
  }

 private:
  obs::TraceSession* session_;
  std::array<double, kSpanKinds> total_{};
  double close_in_finish_ = 0.0;
};

// --- passes -----------------------------------------------------------------

/// What a pass reads: the encoded bytes plus the horizon they cover.
struct Input {
  std::string_view bytes;
  Codec codec = Codec::kBinary;
  const dga::DgaConfig* family = nullptr;
  std::int64_t epochs = 1;
  std::size_t servers = 1;
};

struct Pass {
  double setup_ms = 0.0;
  /// First byte in -> final LandscapeReport.
  double wall_ms = 0.0;
  double finish_ms = 0.0;
  double analyze_ms = 0.0;
  /// Traced batch passes: DomainMatcher::match alone over the same tuples.
  double match_ms = 0.0;
  /// CPU seconds over the timed pass: whole process, and (cluster) the
  /// producer thread.
  double cpu_s = 0.0;
  double producer_cpu_s = 0.0;
  std::vector<double> lag_ms;
  std::vector<double> close_ms;
  std::uint64_t ingested = 0;
  std::uint64_t late_dropped = 0;
  std::uint64_t spills = 0;
  double peak_open_bytes = 0.0;
  std::int64_t frontier_lag_max = 0;
  double shard_skew = 0.0;
  core::LandscapeReport report;
};

/// The stream tool's path. Publish lag runs from the start of the ingest
/// call that delivered an epoch's first boundary-crossing tuple (text: the
/// sink stamps the crossing tuple) to the epoch's on_epoch_close callback;
/// epochs closed by finish() are timed from the finish() call.
Pass run_stream(const Input& in, const stream::StreamEngineConfig& config,
                Tracer* tr) {
  Pass pass;
  const double s0 = now_ms();
  stream::StreamEngine engine(config);
  const double s1 = now_ms();
  pass.setup_ms = s1 - s0;

  double call_start = 0.0;
  bool in_finish = false;
  std::int64_t next_close = 0;
  engine.on_epoch_close([&](const stream::EpochReport& report) {
    const double t = now_ms();
    pass.lag_ms.push_back(t - call_start);
    next_close = report.epoch + 1;
    if (tr != nullptr) {
      tr->close(t - engine.close_latencies_ms().back(), t, in_finish);
    }
  });

  ViewBuf buf(in.bytes);
  std::istream is(&buf);
  const double cpu0 = perfbench::process_cpu_seconds();
  const double start = now_ms();
  if (in.codec == Codec::kBinary) {
    trace::BlockReader reader(is);
    for (;;) {
      const double a = now_ms();
      const std::optional<dns::LookupColumns> block = reader.next();
      call_start = now_ms();
      if (tr != nullptr) tr->span(kDecode, a, call_start, 1);
      if (!block) break;
      engine.ingest_block(*block, reader.domains());
      if (tr != nullptr) tr->span(kIngest, call_start, now_ms(), 1);
    }
  } else {
    // Decode and ingest interleave per tuple, so traced text passes record
    // one span per kTextSpanTuples tuples; the decode share comes from the
    // decode-only probe.
    std::size_t n = 0;
    double chunk_start = start;
    trace::for_each_observable(is, [&](const dns::ForwardedLookup& lookup) {
      if (lookup.timestamp.millis() >=
          perfbench::close_boundary_ms(*in.family, next_close)) {
        call_start = now_ms();
      }
      engine.ingest(lookup);
      if (tr != nullptr && ++n % kTextSpanTuples == 0) {
        const double t = now_ms();
        tr->span(kIngest, chunk_start, t, 1);
        chunk_start = t;
      }
    });
    if (tr != nullptr) tr->span(kIngest, chunk_start, now_ms(), 1);
  }
  in_finish = true;
  call_start = now_ms();
  pass.report = engine.finish();
  const double end = now_ms();
  pass.cpu_s = perfbench::process_cpu_seconds() - cpu0;
  pass.wall_ms = end - start;
  pass.finish_ms = end - call_start;
  if (tr != nullptr) {
    tr->span(kSetup, s0, s1, 0);
    tr->span(kFinish, call_start, end, 1);
    tr->span(kPass, start, end, 0);
  }
  pass.close_ms.assign(engine.close_latencies_ms().begin(),
                       engine.close_latencies_ms().end());
  pass.ingested = engine.ingested();
  pass.late_dropped = engine.late_dropped();
  pass.spills = engine.compact_spills();
  pass.peak_open_bytes = static_cast<double>(engine.peak_open_buffer_bytes());
  return pass;
}

/// The analyze tool's path: materialise the trace, then analyze it. The
/// publish lag of a batch pass is the whole pass.
Pass run_batch(const Input& in, const core::BotMeterConfig& config,
               Tracer* tr) {
  Pass pass;
  const double s0 = now_ms();
  core::BotMeter meter(config);
  meter.prepare_epochs(0, in.epochs);
  const double s1 = now_ms();
  pass.setup_ms = s1 - s0;

  ViewBuf buf(in.bytes);
  std::istream is(&buf);
  const double cpu0 = perfbench::process_cpu_seconds();
  const double start = now_ms();
  const std::vector<dns::ForwardedLookup> tuples = trace::read_blocks(is);
  const double decoded = now_ms();
  pass.report = meter.analyze(tuples, in.servers);
  const double end = now_ms();
  pass.cpu_s = perfbench::process_cpu_seconds() - cpu0;
  pass.wall_ms = end - start;
  pass.analyze_ms = end - decoded;
  pass.lag_ms.push_back(pass.wall_ms);
  pass.ingested = tuples.size();
  if (tr != nullptr) {
    tr->span(kSetup, s0, s1, 0);
    tr->span(kDecode, start, decoded, 1);
    tr->span(kAnalyze, decoded, end, 1);
    tr->span(kPass, start, end, 0);
    // The matcher alone, at analyze's parallelism: analyze minus this is
    // the estimation share.
    WorkerPool workers(config.analyze_threads,
                       WorkerPool::Oversubscribe::kAllow);
    const double m0 = now_ms();
    (void)meter.matcher().match(tuples, nullptr, &workers);
    const double m1 = now_ms();
    tr->span(kProbe, m0, m1, 0, "probe.match");
    pass.match_ms = m1 - m0;
  }
  return pass;
}

/// The cluster tool's path with one producer. Publish lag runs from the
/// start of the ingest_block call whose block opens with an epoch's first
/// boundary-crossing tuple to the first producer-side poll (one per block)
/// that sees merge_frontier() pass the epoch; epochs merged by finish() are
/// timed to its return.
Pass run_cluster(const Input& in, const cluster::ClusterConfig& config,
                 Tracer* tr) {
  Pass pass;
  const double s0 = now_ms();
  cluster::ClusterRuntime runtime(config);
  const double s1 = now_ms();
  pass.setup_ms = s1 - s0;

  std::vector<double> crossed(static_cast<std::size_t>(in.epochs), -1.0);
  std::int64_t next_cross = 0;
  std::int64_t published = 0;
  const auto publish_through = [&](std::int64_t frontier, double t,
                                   double fallback_start) {
    for (; published < frontier; ++published) {
      const double c = crossed[static_cast<std::size_t>(published)];
      pass.lag_ms.push_back(t - (c >= 0.0 ? c : fallback_start));
    }
  };

  ViewBuf buf(in.bytes);
  std::istream is(&buf);
  const double cpu0 = perfbench::process_cpu_seconds();
  const double tcpu0 = perfbench::thread_cpu_seconds();
  const double start = now_ms();
  trace::BlockReader reader(is);
  for (;;) {
    const double a = now_ms();
    const std::optional<dns::LookupColumns> block = reader.next();
    const double b = now_ms();
    if (tr != nullptr) tr->span(kDecode, a, b, 1);
    if (!block) break;
    while (block->size() > 0 && next_cross < in.epochs &&
           block->t_ms.front() >=
               perfbench::close_boundary_ms(*in.family, next_cross)) {
      crossed[static_cast<std::size_t>(next_cross++)] = b;
    }
    runtime.ingest_block(*block, reader.domains());
    const double c = now_ms();
    const std::int64_t frontier = runtime.merge_frontier();
    publish_through(frontier, c, c);
    pass.frontier_lag_max = std::max(pass.frontier_lag_max,
                                     runtime.max_shard_progress() - frontier);
    if (tr != nullptr) {
      tr->span(kScatter, b, c, 1);
      tr->span(kPoll, c, now_ms(), 1);
    }
  }
  const double f0 = now_ms();
  pass.report = runtime.finish();
  const double end = now_ms();
  publish_through(in.epochs, end, f0);
  pass.cpu_s = perfbench::process_cpu_seconds() - cpu0;
  pass.producer_cpu_s = perfbench::thread_cpu_seconds() - tcpu0;
  pass.wall_ms = end - start;
  pass.finish_ms = end - f0;
  if (tr != nullptr) {
    tr->span(kSetup, s0, s1, 0);
    tr->span(kFinish, f0, end, 1);
    tr->span(kPass, start, end, 0);
  }
  double max_ingested = 0.0;
  for (std::size_t i = 0; i < runtime.shard_count(); ++i) {
    const cluster::ShardStats stats = runtime.shard_stats(i);
    pass.ingested += stats.ingested;
    pass.late_dropped += stats.late_dropped;
    pass.spills += stats.compact_spills;
    pass.peak_open_bytes += static_cast<double>(stats.peak_open_buffer_bytes);
    max_ingested = std::max(max_ingested, static_cast<double>(stats.ingested));
  }
  pass.shard_skew = pass.ingested > 0
                        ? max_ingested * static_cast<double>(runtime.shard_count()) /
                              static_cast<double>(pass.ingested)
                        : 0.0;
  return pass;
}

// --- one workload -----------------------------------------------------------

/// A workload's pipeline bound to its input and configuration.
struct Lane {
  Pipeline pipeline = Pipeline::kStream;
  Input input;
  stream::StreamEngineConfig stream;
  core::BotMeterConfig batch;
  cluster::ClusterConfig cluster;

  Pass run(Tracer* tr) const {
    switch (pipeline) {
      case Pipeline::kStream:
        return run_stream(input, stream, tr);
      case Pipeline::kBatch:
        return run_batch(input, batch, tr);
      case Pipeline::kCluster:
        return run_cluster(input, cluster, tr);
    }
    throw ConfigError("unknown pipeline");
  }
};

Lane make_lane(const Workload& w, const Trace& trace) {
  Lane lane;
  lane.pipeline = w.pipeline;
  lane.input = {trace.bytes, trace.spec.codec, &trace.family, trace.spec.epochs,
                trace.spec.servers};
  lane.stream = stream_config(trace);
  lane.batch = batch_config(trace, 2);
  lane.cluster = cluster_config(trace);
  return lane;
}

/// Passes of one lane, traced or not, with their span ledger.
struct LaneRun {
  std::vector<Pass> passes;
  Tracer tracer;
  std::uint64_t tuples_per_pass = 0;

  [[nodiscard]] double tuples() const {
    return static_cast<double>(tuples_per_pass) *
           static_cast<double>(passes.size());
  }
  template <typename F>
  [[nodiscard]] std::vector<double> each(F f) const {
    std::vector<double> out;
    out.reserve(passes.size());
    for (const Pass& p : passes) out.push_back(f(p));
    return out;
  }
};

std::string landscape_json(const core::LandscapeReport& report) {
  return json::write(core::landscape_to_json(report));
}

/// The reference each pass must match, computed by a different pipeline:
/// stream workloads by single-thread batch analyze over the tuples the
/// engine keeps, the batch workload by a StreamEngine, the cluster workload
/// by one compact StreamEngine over the same bytes.
std::string reference_landscape(const Workload& w, const Trace& trace,
                                const Lane& lane) {
  switch (w.pipeline) {
    case Pipeline::kStream: {
      core::BotMeter meter(batch_config(trace, 1));
      meter.prepare_epochs(0, trace.spec.epochs);
      return landscape_json(meter.analyze(trace.matched_input, trace.spec.servers));
    }
    case Pipeline::kBatch: {
      stream::StreamEngine engine(stream_config(trace));
      engine.ingest(trace.matched_input);
      return landscape_json(engine.finish());
    }
    case Pipeline::kCluster: {
      stream::StreamEngineConfig config = stream_config(trace);
      config.compact_state = true;
      config.compact_spill_threshold = lane.cluster.compact_spill_threshold;
      config.compact = lane.cluster.compact;
      return landscape_json(run_stream(lane.input, config, nullptr).report);
    }
  }
  throw ConfigError("unknown pipeline");
}

/// Mean absolute relative error of the per-(server, epoch) estimates against
/// the simulator's truth, over cells with bots.
double landscape_are(const core::LandscapeReport& report,
                     const std::vector<std::vector<std::uint32_t>>& truth) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const core::ServerEstimate& server : report.servers) {
    for (const auto& [epoch, estimate] : server.per_epoch) {
      const double bots = truth[static_cast<std::size_t>(epoch)]
                               [server.server.value()];
      if (bots <= 0.0) continue;
      sum += std::abs(estimate - bots) / bots;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double ns_per(double ms, double count) {
  return count > 0.0 ? ms * 1e6 / count : 0.0;
}

double tuples_per_s(const Pass& p, std::uint64_t tuples) {
  return static_cast<double>(tuples) / (p.wall_ms / 1e3);
}

/// How many of `n` repetitions the end-to-end metrics keep: the fastest
/// quarter, at least kMinPasses. The host is shared, and other tenants slow
/// whole stretches of a run; the fastest repetitions are the ones that ran
/// clean, and their spread across runs is about half the median's.
std::size_t kept(std::size_t n) {
  return std::min(n, std::max<std::size_t>(kMinPasses, n / 4));
}

/// Median of the smallest kept(n) values.
double fast_median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  values.resize(kept(values.size()));
  return median(values);
}

struct Outcome {
  std::vector<Metric> metrics;
  int attempted = 0;
  int failed = 0;
  /// Passes the end-to-end metrics were computed from, and their samples.
  std::size_t kept_passes = 0;
  std::size_t lag_samples = 0;
  std::size_t close_samples = 0;
  /// RSS as the timed passes start: the held trace and the harness's own
  /// data. peak_rss_mb minus this is what the pipelines added.
  double base_rss_mb = 0.0;
};

double mb(std::size_t bytes) { return static_cast<double>(bytes) / 1e6; }

void measure_end_to_end(const LaneRun& run, double rss_mb, double are,
                        Outcome& outcome) {
  std::vector<const Pass*> clean;
  for (const Pass& p : run.passes) clean.push_back(&p);
  std::sort(clean.begin(), clean.end(), [](const Pass* a, const Pass* b) {
    return a->wall_ms < b->wall_ms;
  });
  clean.resize(kept(clean.size()));
  std::vector<double> walls;
  std::vector<double> lags;
  for (const Pass* p : clean) {
    walls.push_back(p->wall_ms);
    lags.insert(lags.end(), p->lag_ms.begin(), p->lag_ms.end());
  }
  outcome.kept_passes = clean.size();
  outcome.lag_samples = lags.size();
  outcome.metrics = {
      {"tuples_per_s",
       static_cast<double>(run.tuples_per_pass) / (median(walls) / 1e3),
       "tuples/s"},
      {"publish_lag_p50_ms", pct(lags, 50.0), "ms"},
      {"publish_lag_p90_ms", pct(lags, 90.0), "ms"},
      {"setup_s",
       fast_median(run.each([](const Pass& p) { return p.setup_ms; })) / 1e3,
       "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"landscape_are", are, "ratio"},
  };
}

std::vector<Metric> stream_layer_metrics(const LaneRun& run,
                                         double decode_ns_per_tuple) {
  std::vector<double> closes;
  double peak_open = 0.0;
  for (const Pass& p : run.passes) {
    closes.insert(closes.end(), p.close_ms.begin(), p.close_ms.end());
    peak_open = std::max(peak_open, p.peak_open_bytes);
  }
  const Tracer& t = run.tracer;
  return {
      {"stream.ingest_ns_per_tuple",
       ns_per(t.self(kIngest), run.tuples()) - decode_ns_per_tuple, "ns"},
      {"stream.close_ms_p50", pct(closes, 50.0), "ms"},
      {"stream.close_ms_p90", pct(closes, 90.0), "ms"},
      {"stream.close_share", t.total(kClose) / t.total(kPass), "ratio"},
      {"stream.finish_ms",
       median(run.each([](const Pass& p) { return p.finish_ms; })), "ms"},
      {"stream.peak_open_mb", peak_open / 1e6, "MB"},
  };
}

std::vector<Metric> core_layer_metrics(const LaneRun& run) {
  return {
      {"core.analyze_ms",
       median(run.each([](const Pass& p) { return p.analyze_ms; })), "ms"},
      {"core.estimate_ms", median(run.each([](const Pass& p) {
         return p.analyze_ms - p.match_ms;
       })),
       "ms"},
  };
}

std::vector<Metric> cluster_layer_metrics(const LaneRun& run) {
  const double per_pass = static_cast<double>(run.tuples_per_pass);
  double frontier_lag = 0.0;
  double peak_open = 0.0;
  for (const Pass& p : run.passes) {
    frontier_lag = std::max(frontier_lag, static_cast<double>(p.frontier_lag_max));
    peak_open = std::max(peak_open, p.peak_open_bytes);
  }
  return {
      {"cluster.scatter_ns_per_tuple",
       ns_per(run.tracer.total(kScatter), run.tuples()), "ns"},
      {"cluster.producer_wait_share", median(run.each([](const Pass& p) {
         return (p.wall_ms - p.producer_cpu_s * 1e3) / p.wall_ms;
       })),
       "ratio"},
      {"cluster.shard_cpu_s_per_mtuple",
       median(run.each([per_pass](const Pass& p) {
         return (p.cpu_s - p.producer_cpu_s) / per_pass * 1e6;
       })),
       "s/Mtuple"},
      {"cluster.finish_ms",
       median(run.each([](const Pass& p) { return p.finish_ms; })), "ms"},
      {"cluster.frontier_lag_max_epochs", frontier_lag, "epochs"},
      {"cluster.shard_skew",
       median(run.each([](const Pass& p) { return p.shard_skew; })), "ratio"},
      {"cluster.compact_spills", static_cast<double>(run.passes.front().spills),
       "count"},
      {"cluster.peak_open_mb", peak_open / 1e6, "MB"},
      {"cluster.setup_ms_per_shard",
       median(run.each([](const Pass& p) { return p.setup_ms; })) /
           static_cast<double>(kClusterShards),
       "ms"},
  };
}

/// Appends one layer's metrics. A layer the workload's own pipeline never
/// calls did no work the harness could time, so each of its metrics is 0.
void add_layer(std::vector<Metric>& out, std::vector<Metric> layer,
               bool called) {
  for (Metric& m : layer) {
    if (!called) m.value = 0.0;
    out.push_back(std::move(m));
  }
}

/// Median wall ms of `reps` calls of `body`, each recorded as a probe span.
template <typename F>
double probe_ms(Tracer& tr, const char* name, F body) {
  std::vector<double> ms;
  for (int i = 0; i < kProbeReps; ++i) {
    const double a = now_ms();
    body();
    const double b = now_ms();
    tr.span(kProbe, a, b, 0, name);
    ms.push_back(b - a);
  }
  return median(ms);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string out;
  bool smoke = false;
};

/// Generate, check and measure one workload.
Outcome run_workload(const Workload& w, const Options& opt, const Trace& trace) {
  const Lane lane = make_lane(w, trace);
  const std::string reference = reference_landscape(w, trace, lane);

  Outcome outcome;
  const auto check = [&](const Pass& pass, const Trace& input,
                         const std::string& expected) {
    ++outcome.attempted;
    const char* wrong = nullptr;
    if (pass.ingested != input.tuples) {
      wrong = "ingested tuple count";
    } else if (w.pipeline != Pipeline::kBatch &&
               pass.late_dropped != input.late_tuples) {
      wrong = "late-dropped tuple count";
    } else if (landscape_json(pass.report) != expected) {
      wrong = "landscape";
    }
    if (wrong != nullptr && outcome.failed++ == 0) {
      std::fprintf(stderr, "botmeter_bench: pass %d: %s differs from the "
                           "reference\n", outcome.attempted, wrong);
    }
  };

  const std::size_t passes = pass_count(w, opt.seconds);
  // peak_rss_mb covers the passes alone, not set-up's transient peak.
  perfbench::reset_peak_rss();
  outcome.base_rss_mb = mb(perfbench::peak_rss_since_reset());
  LaneRun plain;
  plain.tuples_per_pass = trace.tuples;
  if (!opt.trace) {
    for (std::size_t i = 0; i < passes; ++i) {
      plain.passes.push_back(lane.run(nullptr));
      check(plain.passes.back(), trace, reference);
    }
    const double rss_mb = mb(perfbench::peak_rss_since_reset());
    // landscape_are comes from fixed calibration traces: the workload's
    // shape, DGA lookups only (benign ones never reach an estimate), fixed
    // seeds. It is the same for every --seed, so any change to an estimate
    // moves it, and each calibration pass is checked like the others.
    double are = 0.0;
    for (const std::uint64_t seed : kCalibrationSeeds) {
      TraceSpec spec = trace.spec;
      spec.benign_per_dga = 0;
      const Trace calibration = perfbench::make_trace(spec, seed);
      const Lane calibration_lane = make_lane(w, calibration);
      const Pass pass = calibration_lane.run(nullptr);
      check(pass, calibration,
            reference_landscape(w, calibration, calibration_lane));
      are += landscape_are(pass.report, calibration.truth);
    }
    measure_end_to_end(plain, rss_mb,
                       are / static_cast<double>(kCalibrationSeeds.size()),
                       outcome);
    return outcome;
  }

  // --- traced run: probes, then alternating untraced and traced passes -----
  obs::TraceSession session;
  Tracer probes(&session);
  core::BotMeter meter(batch_config(trace, 1));
  meter.prepare_epochs(0, trace.spec.epochs);

  double decode_probe_ns = 0.0;
  if (trace.spec.codec == Codec::kText) {
    decode_probe_ns = ns_per(
        probe_ms(probes, "probe.decode_text",
                 [&] {
                   ViewBuf buf(trace.bytes);
                   std::istream is(&buf);
                   (void)trace::for_each_observable(
                       is, [](const dns::ForwardedLookup&) {});
                 }),
        static_cast<double>(trace.tuples));
  }
  const std::vector<std::string_view> domains(trace.domains.begin(),
                                              trace.domains.end());
  std::vector<detect::DomainMatcher::Resolved> resolved(domains.size());
  const double resolve_ns = ns_per(
      probe_ms(probes, "probe.resolve",
               [&] { meter.matcher().resolve_many(domains, resolved); }),
      static_cast<double>(domains.size()));
  const double match_ns = ns_per(
      probe_ms(probes, "probe.match",
               [&] { (void)meter.matcher().match(trace.probe_sample); }),
      static_cast<double>(trace.probe_sample.size()));

  LaneRun traced;
  traced.tracer = Tracer(&session);
  traced.tuples_per_pass = trace.tuples;
  for (std::size_t i = 0; i < std::max<std::size_t>(2, passes / 2); ++i) {
    plain.passes.push_back(lane.run(nullptr));
    check(plain.passes.back(), trace, reference);
    traced.passes.push_back(lane.run(&traced.tracer));
    check(traced.passes.back(), trace, reference);
  }

  std::vector<Metric>& m = outcome.metrics;
  const double tuples = traced.tuples();
  const Tracer& t = traced.tracer;
  const Pass& first = traced.passes.front();
  m.push_back({"trace.decode_ns_per_tuple",
               trace.spec.codec == Codec::kText
                   ? decode_probe_ns
                   : ns_per(t.total(kDecode), tuples),
               "ns"});
  m.push_back({"trace.bytes_per_tuple",
               static_cast<double>(trace.bytes.size()) /
                   static_cast<double>(trace.tuples),
               "B"});
  m.push_back({"detect.resolve_ns_per_domain", resolve_ns, "ns"});
  m.push_back({"detect.match_ns_per_tuple", match_ns, "ns"});
  add_layer(m, stream_layer_metrics(traced, decode_probe_ns),
            w.pipeline == Pipeline::kStream);
  add_layer(m, core_layer_metrics(traced), w.pipeline == Pipeline::kBatch);
  std::size_t approximate = 0;
  double max_rse = 0.0;
  for (const core::ServerEstimate& s : first.report.servers) {
    if (s.approximate) ++approximate;
    max_rse = std::max(max_rse, s.sketch_rse);
  }
  m.push_back({"estimators.approximate_servers",
               static_cast<double>(approximate), "count"});
  m.push_back({"estimators.max_sketch_rse", max_rse, "ratio"});
  add_layer(m, cluster_layer_metrics(traced), w.pipeline == Pipeline::kCluster);

  double cpu = 0.0;
  for (const Pass& p : plain.passes) cpu += p.cpu_s;
  m.push_back({"proc.cpu_s_per_mtuple", cpu / plain.tuples() * 1e6, "s/Mtuple"});
  double layers = 0.0;
  for (Span k : {kDecode, kIngest, kClose, kFinish, kAnalyze, kScatter, kPoll}) {
    layers += t.self(k);
  }
  m.push_back({"bench.self_time_coverage", layers / t.total(kPass), "ratio"});
  const std::uint64_t n = trace.tuples;
  const auto tps = [n](const Pass& p) { return tuples_per_s(p, n); };
  m.push_back({"bench.trace_overhead",
               1.0 - median(traced.each(tps)) / median(plain.each(tps)),
               "ratio"});

  for (const Pass& p : traced.passes) {
    outcome.lag_samples += p.lag_ms.size();
    outcome.close_samples += p.close_ms.size();
  }
  if (!opt.trace_out.empty()) obs::write_chrome_trace_file(session, opt.trace_out);
  return outcome;
}

// --- reporting --------------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

json::Value metrics_json(const std::vector<Metric>& metrics) {
  json::Object o;
  for (const Metric& m : metrics) {
    json::Object entry;
    entry.emplace("value", json::Value(m.value));
    entry.emplace("unit", json::Value(m.unit));
    o.emplace(m.name, json::Value(std::move(entry)));
  }
  return json::Value(std::move(o));
}

json::Value record_json(const Workload& w, const Options& opt,
                        const Trace& trace, const Outcome& outcome) {
  using json::Value;
  const auto num = [](auto v) { return Value(static_cast<double>(v)); };
  json::Object fp;
  fp.emplace("family", Value(trace.spec.family));
  fp.emplace("bots", num(trace.spec.bots));
  fp.emplace("servers", num(trace.spec.servers));
  fp.emplace("epochs", num(trace.spec.epochs));
  fp.emplace("codec", Value(std::string(
                          trace.spec.codec == Codec::kText ? "text" : "binary")));
  fp.emplace("tuples", num(trace.tuples));
  fp.emplace("dga_tuples", num(trace.dga_tuples));
  fp.emplace("late_tuples", num(trace.late_tuples));
  fp.emplace("bytes", num(trace.bytes.size()));
  fp.emplace("distinct_domains", num(trace.domains.size()));
  char hash[17];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(trace.fingerprint));
  fp.emplace("fnv1a", Value(std::string(hash)));

  json::Object host;
  host.emplace("nproc", num(std::thread::hardware_concurrency()));
  host.emplace("cpu_model", Value(cpu_model()));
  host.emplace("compiler", Value(compiler()));

  json::Object samples;
  samples.emplace("passes", num(outcome.attempted));
  samples.emplace("kept_passes", num(outcome.kept_passes));
  samples.emplace("lag", num(outcome.lag_samples));
  samples.emplace("closes", num(outcome.close_samples));
  samples.emplace("base_rss_mb", num(outcome.base_rss_mb));

  json::Object root;
  root.emplace("schema", Value(std::string(kSchema)));
  root.emplace("workload", Value(std::string(w.name)));
  root.emplace("seed", num(opt.seed));
  root.emplace("seconds", Value(opt.seconds));
  root.emplace("traced", Value(opt.trace));
  root.emplace("smoke", Value(opt.smoke));
  root.emplace("fingerprint", Value(std::move(fp)));
  root.emplace("host", Value(std::move(host)));
  root.emplace("samples", Value(std::move(samples)));
  root.emplace("correct", Value(outcome.failed == 0));
  root.emplace("failed", num(outcome.failed));
  root.emplace("metrics", metrics_json(outcome.metrics));
  return Value(std::move(root));
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw DataError("cannot write " + path);
}

/// Parse a written record back and check its shape.
void check_record(const std::string& path, std::size_t metric_count) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const json::Value record = json::parse(text.str());
  if (record.at("schema").as_string() != kSchema) {
    throw DataError(path + ": wrong schema");
  }
  const json::Object& metrics = record.at("metrics").as_object();
  if (metrics.size() != metric_count) {
    throw DataError(path + ": metric count mismatch");
  }
  for (const auto& [name, entry] : metrics) {
    (void)entry.at("value").as_double();
    (void)entry.at("unit").as_string();
  }
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw ConfigError(std::string(arg) + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw ConfigError("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      throw ConfigError("unknown argument " + std::string(arg));
    }
  }
  if (!opt.smoke && find_workload(opt.workload) == nullptr) {
    throw ConfigError("--workload must be one of border-binary, border-text, "
                      "wide-batch, cluster-compact");
  }
  return opt;
}

/// Every workload at toy size, untraced and traced: landscapes must match
/// their references and the v2 record must parse back.
int smoke(Options opt) {
  const std::string out = opt.out.empty() ? "botmeter_bench_smoke.json" : opt.out;
  opt.seconds = 0.0;
  int failed = 0;
  for (const Workload& w : workloads()) {
    const Trace trace = perfbench::make_trace(w.smoke, opt.seed);
    for (const bool traced : {false, true}) {
      opt.trace = traced;
      const Outcome outcome = run_workload(w, opt, trace);
      write_file(out, json::write_pretty(record_json(w, opt, trace, outcome)));
      check_record(out, outcome.metrics.size());
      std::printf("smoke %s %s: %d passes, %d failed, %zu metrics\n",
                  std::string(w.name).c_str(), traced ? "traced" : "plain",
                  outcome.attempted, outcome.failed, outcome.metrics.size());
      failed += outcome.failed;
    }
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    set_this_thread_label("bench");
    const Options opt = parse_args(argc, argv);
    if (opt.smoke) return smoke(opt);

    const Workload& w = *find_workload(opt.workload);
    const double gen_start = now_ms();
    const Trace trace = perfbench::make_trace(w.full, opt.seed);
    std::fprintf(stderr, "botmeter_bench: %s seed %llu: %llu tuples, %zu bytes "
                         "generated in %.2f s\n",
                 std::string(w.name).c_str(),
                 static_cast<unsigned long long>(opt.seed),
                 static_cast<unsigned long long>(trace.tuples), trace.bytes.size(),
                 (now_ms() - gen_start) / 1e3);
    const Outcome outcome = run_workload(w, opt, trace);
    if (!opt.out.empty()) {
      write_file(opt.out, json::write_pretty(record_json(w, opt, trace, outcome)));
    }

    for (const Metric& m : outcome.metrics) {
      std::printf("%s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("samples passes=%d kept=%zu lag=%zu closes=%zu tuples=%llu "
                "base_rss_mb=%.1f\n",
                outcome.attempted, outcome.kept_passes, outcome.lag_samples,
                outcome.close_samples,
                static_cast<unsigned long long>(trace.tuples),
                outcome.base_rss_mb);
    json::Object result;
    result.emplace("correct", json::Value(outcome.failed == 0));
    result.emplace("attempted", json::Value(static_cast<double>(outcome.attempted)));
    result.emplace("failed", json::Value(static_cast<double>(outcome.failed)));
    result.emplace("metrics", metrics_json(outcome.metrics));
    std::printf("%s\n", json::write(json::Value(std::move(result))).c_str());
    std::fflush(stdout);
    if (outcome.failed > 0) {
      std::fprintf(stderr, "botmeter_bench: %d of %d passes differ from the "
                           "reference\n",
                   outcome.failed, outcome.attempted);
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "botmeter_bench: %s\n", e.what());
    return 2;
  }
}
