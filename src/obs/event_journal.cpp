#include "obs/event_journal.hpp"

#include <fstream>
#include <utility>

#include "common/error.hpp"

namespace botmeter::obs {

namespace {

constexpr const char* kSchema = "botmeter.events.v1";

}  // namespace

std::string_view event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kHealthTransition:
      return "health_transition";
    case EventKind::kEpochClose:
      return "epoch_close";
    case EventKind::kWatermarkAdvance:
      return "watermark_advance";
    case EventKind::kCheckpoint:
      return "checkpoint";
    case EventKind::kRestore:
      return "restore";
    case EventKind::kQueueSaturation:
      return "queue_saturation";
    case EventKind::kMergePublish:
      return "merge_publish";
  }
  throw DataError("unknown EventKind ordinal");
}

EventKind event_kind_from_name(std::string_view name) {
  for (const EventKind kind :
       {EventKind::kHealthTransition, EventKind::kEpochClose,
        EventKind::kWatermarkAdvance, EventKind::kCheckpoint,
        EventKind::kRestore, EventKind::kQueueSaturation,
        EventKind::kMergePublish}) {
    if (event_kind_name(kind) == name) return kind;
  }
  throw DataError("unknown event kind: " + std::string(name));
}

std::uint64_t EventJournal::append(JournalEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  event.seq = next_seq_++;
  const std::uint64_t seq = event.seq;
  ring_.push_back(std::move(event));
  if (ring_.size() > kJournalCapacity) {
    ring_.pop_front();
    ++dropped_;
  }
  return seq;
}

std::uint64_t EventJournal::log_at(double t_ms, EventKind kind,
                                   std::int32_t shard, std::int64_t epoch,
                                   double value, std::string message) {
  JournalEvent event;
  event.t_ms = t_ms;
  event.shard = shard;
  event.kind = kind;
  event.epoch = epoch;
  event.value = value;
  event.message = std::move(message);
  return append(std::move(event));
}

std::vector<JournalEvent> EventJournal::events_since(
    std::uint64_t from, std::optional<std::int32_t> shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JournalEvent> out;
  for (const JournalEvent& event : ring_) {
    if (event.seq < from) continue;
    if (shard && event.shard != *shard) continue;
    out.push_back(event);
  }
  return out;
}

std::uint64_t EventJournal::next_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

std::uint64_t EventJournal::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::size_t EventJournal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

json::Value EventJournal::to_json(std::uint64_t from,
                                  std::optional<std::int32_t> shard) const {
  using json::Value;
  const std::vector<JournalEvent> events = events_since(from, shard);
  json::Array rows;
  rows.reserve(events.size());
  for (const JournalEvent& event : events) {
    json::Object row;
    row.emplace("seq", Value(static_cast<double>(event.seq)));
    row.emplace("t_ms", Value(event.t_ms));
    row.emplace("shard", Value(static_cast<double>(event.shard)));
    row.emplace("kind", Value(std::string(event_kind_name(event.kind))));
    if (event.epoch != JournalEvent::kNoEpoch) {
      row.emplace("epoch", Value(static_cast<double>(event.epoch)));
    }
    row.emplace("value", Value(event.value));
    if (!event.message.empty()) {
      row.emplace("message", Value(event.message));
    }
    rows.push_back(Value(std::move(row)));
  }
  json::Object root;
  root.emplace("schema", Value(std::string(kSchema)));
  {
    std::lock_guard<std::mutex> lock(mu_);
    root.emplace("next_seq", Value(static_cast<double>(next_seq_)));
    root.emplace("dropped", Value(static_cast<double>(dropped_)));
  }
  root.emplace("events", Value(std::move(rows)));
  return Value(std::move(root));
}

void EventJournal::dump(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw DataError("cannot open journal dump path: " + path);
  }
  out << json::write_pretty(to_json());
  if (!out) {
    throw DataError("failed writing journal dump: " + path);
  }
}

void EventJournal::set_dump_path(std::string path) {
  std::lock_guard<std::mutex> lock(mu_);
  dump_path_ = std::move(path);
}

bool EventJournal::auto_dump() const {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    path = dump_path_;
  }
  if (path.empty()) return false;
  try {
    dump(path);
  } catch (const DataError&) {
    return false;
  }
  return true;
}

std::string EventJournal::dump_path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dump_path_;
}

}  // namespace botmeter::obs
