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
// Thread-safety: `sample()` must run on the ingest thread (StreamEngine's
// accessors are unsynchronized), while `state()` / `last_signals()` may run
// on any thread — the HTTP exporter reads them concurrently. All shared
// state sits behind one mutex; gauge writes go through the (optional)
// MetricsRegistry, which is itself safe for concurrent scrapes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string_view>

#include "obs/metrics.hpp"

namespace botmeter::stream {

class StreamEngine;

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

  /// Derive signals from the engine at wall time `now_ms` and evaluate
  /// them. Call from the ingest thread (engine accessors are not
  /// synchronized against ingest).
  HealthState sample(const StreamEngine& engine, double now_ms);

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
