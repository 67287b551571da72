// The always-on flight recorder: a bounded structured event journal.
//
// A long-running cluster turns unhealthy hours after the decision that made
// it so; counters say *that* something degraded, never *what happened
// before*. The journal is the post-hoc explainability layer: every
// state-changing moment of the pipeline — health transitions, epoch closes,
// watermark advances, checkpoint/restore, queue saturation, merge publishes
// — is appended as one small structured event into a ring of
// kJournalCapacity events. Old events fall off the far end (the drop count
// is reported), so the journal's memory is bounded regardless of run
// length, and it is cheap enough to leave on in production.
//
// Events carry a monotonic sequence number (assigned at append, never
// reused), a wall-time stamp on the appending pipeline's obs::Telemetry
// clock (the journal keeps no clock of its own), an optional shard index
// (-1 = cluster / engine level), a kind, and small details
// (epoch, numeric value, free-text message).
//
// The canonical `botmeter.events.v1` document (byte-stable common/json
// writer) is the journal's read path. `to_json(from, shard)` copies the
// matching events, `next_seq` and `dropped` in one critical section, so a
// poller (`/events?from=&shard=`) that resumes at the document's `next_seq`
// gets every event exactly once without the journal tracking consumers:
// nothing appended before that cut is missing from the document, and
// nothing after it is in it. `dump()` writes the document to disk; callers
// that configure `set_dump_path()` can invoke `auto_dump()` at the moment a
// health monitor turns unhealthy — the flight recorder hits the ground with
// the black box already written.
//
// Thread-safety and cost: one mutex, short critical sections (a push +
// possible pop per append; queries copy under the lock). Appends happen per
// *batch*/close/transition — never per tuple — so the journal is invisible
// in the ingest profile; a journal absent from the pipeline's obs::Telemetry
// means no-op and no clock read, which is what keeps landscapes
// byte-identical with the recorder on or off.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "common/json.hpp"

namespace botmeter::obs {

enum class EventKind : int {
  kHealthTransition = 0,
  kEpochClose = 1,
  kWatermarkAdvance = 2,
  kCheckpoint = 3,
  kRestore = 4,
  kQueueSaturation = 5,
  kMergePublish = 6,
};

[[nodiscard]] std::string_view event_kind_name(EventKind kind);

/// Ring capacity in events. Appends beyond it evict the oldest event
/// (counted in the document's `dropped`).
inline constexpr std::size_t kJournalCapacity = 4096;

/// One journal entry. `seq` is assigned by append(); everything else is the
/// caller's statement about what happened.
struct JournalEvent {
  std::uint64_t seq = 0;
  /// Wall milliseconds on the caller's clock.
  double t_ms = 0.0;
  /// Shard index the event belongs to; -1 = cluster / engine level.
  std::int32_t shard = -1;
  EventKind kind = EventKind::kHealthTransition;
  /// Epoch the event refers to, when meaningful (kEpochClose,
  /// kWatermarkAdvance, kMergePublish); INT64_MIN = not applicable.
  std::int64_t epoch = kNoEpoch;
  /// Small numeric detail: the new health state word's ordinal, a close
  /// latency, a queue depth — whatever the kind's docs say.
  double value = 0.0;
  std::string message;

  static constexpr std::int64_t kNoEpoch =
      std::numeric_limits<std::int64_t>::min();
};

class EventJournal {
 public:
  EventJournal() = default;

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// Append one event as given (its t_ms on the caller's clock). Returns
  /// the assigned sequence number.
  std::uint64_t append(JournalEvent event);

  /// Convenience append stamped `t_ms` on the caller's clock (a pipeline's
  /// obs::Telemetry clock, so its events line up with its spans).
  std::uint64_t log_at(double t_ms, EventKind kind, std::int32_t shard,
                       std::int64_t epoch, double value,
                       std::string message = {});

  /// Canonical botmeter.events.v1 document: the retained events with
  /// seq >= from, oldest first; with `shard` set, only that shard's events
  /// (cluster-level events carry shard -1 and are matched by filtering for
  /// -1 explicitly, not implicitly included). `next_seq` is the sequence
  /// number the next append will receive (== total ever appended), the
  /// cursor a poller resumes from; `dropped` counts events evicted from the
  /// ring so far.
  [[nodiscard]] json::Value to_json(
      std::uint64_t from = 0,
      std::optional<std::int32_t> shard = std::nullopt) const;

  /// Serialize to_json() to `path` (pretty-printed); throws DataError when
  /// the file cannot be written.
  void dump(const std::string& path) const;

  /// Configure the auto-dump target auto_dump() writes to. Empty disables.
  void set_dump_path(std::string path);
  /// Dump to the configured path, swallowing write failures (the flight
  /// recorder must never take the pipeline down with it). Returns true when
  /// a dump was written. No-op without a configured path.
  bool auto_dump() const;

 private:
  mutable std::mutex mu_;
  std::deque<JournalEvent> ring_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::string dump_path_;
};

}  // namespace botmeter::obs
