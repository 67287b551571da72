#include "obs/event_journal.hpp"

#include <fstream>
#include <utility>
#include <vector>

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

json::Value EventJournal::to_json(std::uint64_t from,
                                  std::optional<std::int32_t> shard) const {
  using json::Value;
  std::vector<JournalEvent> events;
  std::uint64_t next_seq = 0;
  std::uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const JournalEvent& event : ring_) {
      if (event.seq < from) continue;
      if (shard && event.shard != *shard) continue;
      events.push_back(event);
    }
    next_seq = next_seq_;
    dropped = dropped_;
  }
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
    rows.emplace_back(std::move(row));
  }
  json::Object root;
  root.emplace("schema", Value(std::string(kSchema)));
  root.emplace("next_seq", Value(static_cast<double>(next_seq)));
  root.emplace("dropped", Value(static_cast<double>(dropped)));
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

}  // namespace botmeter::obs
