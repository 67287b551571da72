#include "obs/telemetry.hpp"

#include <chrono>
#include <utility>

#include "common/parallel.hpp"
#include "obs/trace.hpp"

namespace botmeter::obs {

double Telemetry::now_ms() const {
  if (trace != nullptr) return trace->now_ms();
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

void Telemetry::record_stage(std::size_t shard, LagStage stage,
                             const char* span, double start_ms, double end_ms,
                             std::uint64_t flow_in,
                             std::uint64_t flow_out) const {
  if (lag != nullptr) lag->record(shard, stage, end_ms - start_ms);
  if (trace != nullptr && span != nullptr) {
    trace->record_flow_span(span, start_ms, end_ms - start_ms,
                            this_thread_ordinal(), flow_in, flow_out);
  }
}

void Telemetry::log_at(double t_ms, EventKind kind, std::int32_t shard,
                       std::int64_t epoch, double value,
                       std::string message) const {
  if (journal != nullptr) {
    (void)journal->log_at(t_ms, kind, shard, epoch, value, std::move(message));
  }
}

void Telemetry::log(EventKind kind, std::int32_t shard, std::int64_t epoch,
                    double value, std::string message) const {
  if (journal == nullptr) return;
  log_at(now_ms(), kind, shard, epoch, value, std::move(message));
}

}  // namespace botmeter::obs
