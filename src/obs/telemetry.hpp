// One telemetry spine: every observability sink a pipeline reports into,
// carried as one value.
//
// Batch analyze, the stream engine, the cluster runtime and the simulator
// receive their sinks only through the obs::Telemetry on their config, so
// `/metrics`, `/debug/lag`, `/events`, the landscape history and the
// Perfetto trace are fed from one place. Every member is a non-owning,
// nullable pointer; a null sink costs nothing, and attaching one never
// changes a pipeline result. Journal and lag are consumed by the cluster
// runtime only.
//
// Stage timing has one gate and one clock: with no trace, journal or lag
// attached (timed() false) no instrumentation point reads a clock, and
// now_ms() is the attached trace session's timeline — so a stage's lag
// sample, span and journal event carry the same reading — or, without a
// session, one process-wide steady timeline zeroed at its first reading.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/event_journal.hpp"
#include "obs/lag_tracker.hpp"

namespace botmeter::obs {

class LandscapeHistory;
class MetricsRegistry;
class TraceSession;

struct Telemetry {
  MetricsRegistry* metrics = nullptr;
  TraceSession* trace = nullptr;
  LandscapeHistory* history = nullptr;
  EventJournal* journal = nullptr;
  /// Built for the cluster's shard count (ClusterConfig::validate checks).
  LagTracker* lag = nullptr;

  /// The single instrumentation gate: some sink that consumes wall time is
  /// attached. Instrumentation points test it before reading the clock.
  [[nodiscard]] bool timed() const {
    return trace != nullptr || journal != nullptr || lag != nullptr;
  }

  /// Milliseconds on the bundle's one clock (see the header comment).
  [[nodiscard]] double now_ms() const;

  /// Fan one timed stage [start_ms, end_ms] out to the sinks that want it:
  /// the lag histogram of (`shard`, `stage`) and, when `span` is non-null, a
  /// flow span of that name on the calling thread's track (`flow_in` /
  /// `flow_out` as for TraceSession::record_flow_span).
  void record_stage(std::size_t shard, LagStage stage, const char* span,
                    double start_ms, double end_ms, std::uint64_t flow_in = 0,
                    std::uint64_t flow_out = 0) const;

  /// Journal one event stamped `t_ms` on this clock. No-op without a journal.
  void log_at(double t_ms, EventKind kind, std::int32_t shard,
              std::int64_t epoch, double value,
              std::string message = {}) const;

  /// log_at(now_ms(), ...): reads the clock only when a journal is attached.
  void log(EventKind kind, std::int32_t shard,
           std::int64_t epoch = JournalEvent::kNoEpoch, double value = 0.0,
           std::string message = {}) const;
};

}  // namespace botmeter::obs
