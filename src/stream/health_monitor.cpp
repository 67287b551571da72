#include "stream/health_monitor.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace botmeter::stream {

std::string_view health_state_name(HealthState state) {
  switch (state) {
    case HealthState::kOk: return "ok";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kUnhealthy: return "unhealthy";
  }
  return "unknown";
}

void StreamHealthConfig::validate() const {
  if (!(degraded_watermark_lag_ms >= 0.0) ||
      !(unhealthy_watermark_lag_ms >= degraded_watermark_lag_ms)) {
    throw ConfigError(
        "StreamHealthConfig: watermark-lag thresholds must satisfy "
        "0 <= degraded <= unhealthy");
  }
  if (!(degraded_late_rate >= 0.0) || !(degraded_late_rate <= 1.0) ||
      !(unhealthy_late_rate >= degraded_late_rate) ||
      !(unhealthy_late_rate <= 1.0)) {
    throw ConfigError(
        "StreamHealthConfig: late-rate thresholds must satisfy "
        "0 <= degraded <= unhealthy <= 1");
  }
  if (unhealthy_buffer_bytes < degraded_buffer_bytes) {
    throw ConfigError(
        "StreamHealthConfig: buffer-bytes thresholds must satisfy "
        "degraded <= unhealthy");
  }
  if (!(recovery_hold_ms >= 0.0)) {
    throw ConfigError("StreamHealthConfig: recovery_hold_ms must be >= 0");
  }
}

StreamHealthMonitor::StreamHealthMonitor(StreamHealthConfig config,
                                         obs::MetricsRegistry* metrics)
    : config_((config.validate(), config)), metrics_(metrics) {}

HealthState StreamHealthMonitor::raw_state(
    const StreamHealthSignals& s) const {
  const bool unhealthy = s.watermark_lag_ms >= config_.unhealthy_watermark_lag_ms ||
                         s.late_rate >= config_.unhealthy_late_rate ||
                         s.open_buffer_bytes >= config_.unhealthy_buffer_bytes;
  if (unhealthy) return HealthState::kUnhealthy;
  const bool degraded = s.watermark_lag_ms >= config_.degraded_watermark_lag_ms ||
                        s.late_rate >= config_.degraded_late_rate ||
                        s.open_buffer_bytes >= config_.degraded_buffer_bytes;
  return degraded ? HealthState::kDegraded : HealthState::kOk;
}

void StreamHealthMonitor::publish(const StreamHealthSignals& s,
                                  HealthState state) {
  if (metrics_ == nullptr) return;
  metrics_->gauge("stream.health.state").set(static_cast<double>(state));
  metrics_->gauge("stream.health.watermark_lag_ms").set(s.watermark_lag_ms);
  metrics_->gauge("stream.health.late_rate").set(s.late_rate);
  metrics_->gauge("stream.health.open_buffer_bytes")
      .set(static_cast<double>(s.open_buffer_bytes));
}

HealthState StreamHealthMonitor::sample(const StreamStats& stats,
                                        double now_ms) {
  StreamHealthSignals signals;
  signals.ingested = stats.ingested;
  signals.matched = stats.matched;
  signals.late_dropped = stats.late_dropped;
  signals.open_buffer_bytes = stats.open_buffer_bytes;
  signals.epochs_closed = stats.epochs_closed;

  const std::uint64_t attributed = signals.matched + signals.late_dropped;
  signals.late_rate =
      attributed == 0
          ? 0.0
          : static_cast<double>(signals.late_dropped) /
                static_cast<double>(attributed);

  {
    std::lock_guard<std::mutex> lock(mu_);
    // The watermark "advances" when its stream timestamp moves (or on the
    // very first sample, which seeds the reference point).
    const std::optional<std::int64_t> watermark_ms =
        stats.watermark ? std::optional<std::int64_t>(stats.watermark->millis())
                        : std::nullopt;
    if (!last_advance_wall_ms_ || watermark_ms != last_watermark_ms_) {
      last_watermark_ms_ = watermark_ms;
      last_advance_wall_ms_ = now_ms;
    }
    signals.watermark_lag_ms = std::max(0.0, now_ms - *last_advance_wall_ms_);
  }

  return evaluate(signals, now_ms);
}

HealthState StreamHealthMonitor::evaluate(const StreamHealthSignals& signals,
                                          double now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  signals_ = signals;
  const HealthState raw = raw_state(signals);

  if (raw >= state_) {
    // Worsening (or holding steady) applies immediately and cancels any
    // recovery in progress.
    state_ = raw;
    improving_ = false;
  } else {
    if (!improving_) {
      improving_ = true;
      candidate_ = raw;
      improving_since_ms_ = now_ms;
    } else {
      // Track the *worst* state seen during the streak: recovery lands on
      // the level the signals actually sustained, not a momentary dip.
      candidate_ = std::max(candidate_, raw);
    }
    if (now_ms - improving_since_ms_ >= config_.recovery_hold_ms) {
      state_ = candidate_;
      improving_ = state_ > HealthState::kOk && raw < state_;
      if (improving_) {
        candidate_ = raw;
        improving_since_ms_ = now_ms;
      }
    }
  }

  publish(signals_, state_);
  return state_;
}

HealthState StreamHealthMonitor::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

StreamHealthSignals StreamHealthMonitor::last_signals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return signals_;
}

}  // namespace botmeter::stream
