// Operational health signals for a long-running StreamEngine.
//
// A deployed monitor runs for days; "is it keeping up?" must be answerable
// from outside without stopping it. StreamHealthMonitor derives a small set
// of signals from the engine and folds them into one coarse state
// (ok / degraded / unhealthy) that `/healthz` and dashboards key on:
//
//   - *Watermark lag*: wall milliseconds since the ingest watermark last
//     advanced. A healthy feed moves the watermark constantly; a stalled
//     collector or upstream tap freezes it while the wall clock runs on.
//   - *Late rate*: tuples dropped as too late, as a fraction of all tuples
//     the matcher attributed (matched + late). A rising late rate means the
//     allowed lateness no longer covers the feed's disorder — estimates are
//     silently losing evidence.
//   - *Open-buffer bytes*: approximate heap held by matched lookups waiting
//     for their epoch to close — the engine's resident analysis state.
//     Unbounded growth means epochs stopped closing.
//
// The epoch-close latency histogram a scraper watches for flushes falling
// behind the epoch cadence is the engine's own (recorded once per close);
// the monitor only reports the close count.
//
// Time is always injected (`now_ms`, any monotonic wall-clock milliseconds):
// the monitor never reads a clock itself, so threshold/hysteresis behaviour
// is testable with simulated time and no sleeps.
//
// Thread-safety: the monitor reads only the counters record it is handed,
// never an engine, so `sample()` may run on any one thread at a time while
// `state()` / `last_signals()` run on any other — the HTTP exporter reads
// them concurrently. All shared state sits behind one mutex; gauge writes go
// through the (optional) MetricsRegistry, which is itself safe for
// concurrent scrapes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string_view>

#include "common/time.hpp"
#include "obs/metrics.hpp"

namespace botmeter::stream {

enum class HealthState : int { kOk = 0, kDegraded = 1, kUnhealthy = 2 };

[[nodiscard]] std::string_view health_state_name(HealthState state);

struct StreamHealthConfig {
  /// Watermark-lag thresholds, wall ms since the watermark last advanced.
  double degraded_watermark_lag_ms = 60'000.0;
  double unhealthy_watermark_lag_ms = 300'000.0;

  /// Late-dropped fraction of attributed tuples (matched + late).
  double degraded_late_rate = 0.01;
  double unhealthy_late_rate = 0.10;

  /// Open-epoch buffer pressure, bytes.
  std::size_t degraded_buffer_bytes = std::size_t{256} << 20;
  std::size_t unhealthy_buffer_bytes = std::size_t{1} << 30;

  /// Hysteresis: a *worse* raw state is reported immediately, but the
  /// reported state only improves after the raw state has held at the
  /// better level for this long — a feed flapping around a threshold reads
  /// as degraded, not as an ok/degraded strobe.
  double recovery_hold_ms = 5'000.0;

  void validate() const;
};

/// Point-in-time counters of one stream engine as one record: what
/// StreamEngine::stats() returns, what a cluster shard publishes after each
/// batch it applies (cluster::ShardStats), and what sample() evaluates.
struct StreamStats {
  std::uint64_t ingested = 0;
  std::uint64_t matched = 0;
  std::uint64_t unmatched = 0;
  std::uint64_t late_dropped = 0;
  /// Next epoch the engine will close (first_epoch + its closes so far).
  std::int64_t next_epoch_to_close = 0;
  /// Epoch closes the engine ran itself (not those it restored).
  std::uint64_t epochs_closed = 0;
  /// Max timestamp seen; unset before the first tuple.
  std::optional<TimePoint> watermark;
  /// Bytes held by the open-epoch buffers (exact vector capacities plus
  /// compact-cell footprints), and the run's high-water mark — the memory
  /// the compact observation path bounds.
  std::uint64_t open_buffer_bytes = 0;
  std::uint64_t peak_open_buffer_bytes = 0;
  /// Exact buffers folded into sketch cells so far (0 when compact_state
  /// is off).
  std::uint64_t compact_spills = 0;
};

/// The raw signal vector one evaluation sees.
struct StreamHealthSignals {
  double watermark_lag_ms = 0.0;
  double late_rate = 0.0;
  std::size_t open_buffer_bytes = 0;
  std::uint64_t ingested = 0;
  std::uint64_t matched = 0;
  std::uint64_t late_dropped = 0;
  /// Epoch closes so far.
  std::uint64_t epochs_closed = 0;

  friend bool operator==(const StreamHealthSignals&,
                         const StreamHealthSignals&) = default;
};

class StreamHealthMonitor {
 public:
  /// `metrics` may be null (signals then live only in the monitor). With a
  /// registry, every evaluation publishes the gauges
  /// `stream.health.state` (0/1/2), `stream.health.watermark_lag_ms`,
  /// `stream.health.late_rate` and `stream.health.open_buffer_bytes`.
  explicit StreamHealthMonitor(StreamHealthConfig config,
                               obs::MetricsRegistry* metrics = nullptr);

  /// Derive signals from one counters record at wall time `now_ms` and
  /// evaluate them.
  HealthState sample(const StreamStats& stats, double now_ms);

  /// Evaluate an explicit signal vector (the simulated-time test path, and
  /// the building block `sample()` uses).
  HealthState evaluate(const StreamHealthSignals& signals, double now_ms);

  [[nodiscard]] HealthState state() const;
  [[nodiscard]] StreamHealthSignals last_signals() const;

 private:
  [[nodiscard]] HealthState raw_state(const StreamHealthSignals& s) const;
  void publish(const StreamHealthSignals& s, HealthState state);

  StreamHealthConfig config_;
  obs::MetricsRegistry* metrics_;

  mutable std::mutex mu_;
  HealthState state_ = HealthState::kOk;
  StreamHealthSignals signals_;

  // Recovery hysteresis: the best state observed during the current
  // improvement streak, and when the streak began.
  bool improving_ = false;
  HealthState candidate_ = HealthState::kOk;
  double improving_since_ms_ = 0.0;

  // Watermark-advance tracking for sample().
  std::optional<std::int64_t> last_watermark_ms_;
  std::optional<double> last_advance_wall_ms_;
};

}  // namespace botmeter::stream
