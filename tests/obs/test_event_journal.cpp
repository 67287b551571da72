// The flight recorder: ring bounds and drop accounting, monotonic sequence
// numbers, seq/shard document filters, the canonical botmeter.events.v1
// document, disk dumps (explicit and auto), and a multi-producer append
// race with a concurrent cursor poller (the TSan target).
#include "obs/event_journal.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"

namespace botmeter::obs {
namespace {

/// The `seq` of every event row a document carries, in document order.
std::vector<std::uint64_t> seqs_of(const json::Value& doc) {
  std::vector<std::uint64_t> seqs;
  for (const json::Value& event : doc.at("events").as_array()) {
    seqs.push_back(static_cast<std::uint64_t>(event.at("seq").as_int()));
  }
  return seqs;
}

TEST(EventJournal, AppendAssignsMonotonicSeqAndRingEvictsOldest) {
  EventJournal journal;
  constexpr std::size_t kAppends = kJournalCapacity + 2;
  for (std::size_t i = 0; i < kAppends; ++i) {
    JournalEvent event;
    event.t_ms = static_cast<double>(i);
    event.kind = EventKind::kEpochClose;
    event.epoch = static_cast<std::int64_t>(i);
    const std::uint64_t seq = journal.append(event);
    EXPECT_EQ(seq, i);
  }
  const json::Value doc = journal.to_json();
  EXPECT_EQ(doc.at("next_seq").as_int(), static_cast<std::int64_t>(kAppends));
  EXPECT_EQ(doc.at("dropped").as_int(), 2);

  // The oldest two fell off; what remains starts at seq 2, oldest first.
  const json::Array& events = doc.at("events").as_array();
  ASSERT_EQ(events.size(), kJournalCapacity);
  EXPECT_EQ(events.front().at("seq").as_int(), 2);
  EXPECT_EQ(events.front().at("epoch").as_int(), 2);
  EXPECT_EQ(events.back().at("seq").as_int(),
            static_cast<std::int64_t>(kAppends - 1));
  const std::vector<std::uint64_t> seqs = seqs_of(doc);
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_LT(seqs[i - 1], seqs[i]);
  }
}

TEST(EventJournal, ToJsonFiltersBySeqAndShard) {
  EventJournal journal;
  journal.log_at(1.0, EventKind::kEpochClose, 0, 10, 0.0);
  journal.log_at(2.0, EventKind::kEpochClose, 1, 10, 0.0);
  journal.log_at(3.0, EventKind::kMergePublish, -1, 10, 0.0);
  journal.log_at(4.0, EventKind::kEpochClose, 0, 11, 0.0);

  EXPECT_EQ(seqs_of(journal.to_json(2)), (std::vector<std::uint64_t>{2, 3}));
  EXPECT_TRUE(seqs_of(journal.to_json(99)).empty());
  // A filter narrows the events, never the cursor: next_seq stays the
  // journal's, so a poller resuming from it skips nothing.
  EXPECT_EQ(journal.to_json(99).at("next_seq").as_int(), 4);
  EXPECT_EQ(journal.to_json(0, 1).at("next_seq").as_int(), 4);

  const json::Value shard0 = journal.to_json(0, 0);
  const json::Array& rows = shard0.at("events").as_array();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].at("epoch").as_int(), 10);
  EXPECT_EQ(rows[1].at("epoch").as_int(), 11);
  EXPECT_DOUBLE_EQ(rows[1].at("t_ms").as_double(), 4.0);

  // Cluster-level events (-1) are matched only by asking for -1 explicitly.
  const json::Value cluster = journal.to_json(0, -1);
  ASSERT_EQ(cluster.at("events").as_array().size(), 1u);
  EXPECT_EQ(cluster.at("events").as_array()[0].at("kind").as_string(),
            "merge_publish");
}

TEST(EventJournal, KindNamesAreDistinct) {
  // The names are the documents' vocabulary: stable, and one per kind.
  const std::vector<std::pair<EventKind, std::string>> names = {
      {EventKind::kHealthTransition, "health_transition"},
      {EventKind::kEpochClose, "epoch_close"},
      {EventKind::kWatermarkAdvance, "watermark_advance"},
      {EventKind::kCheckpoint, "checkpoint"},
      {EventKind::kRestore, "restore"},
      {EventKind::kQueueSaturation, "queue_saturation"},
      {EventKind::kMergePublish, "merge_publish"},
  };
  std::set<std::string> distinct;
  for (const auto& [kind, name] : names) {
    EXPECT_EQ(event_kind_name(kind), name);
    distinct.insert(std::string(event_kind_name(kind)));
  }
  EXPECT_EQ(distinct.size(), names.size());
  EXPECT_THROW((void)event_kind_name(static_cast<EventKind>(99)), DataError);
}

TEST(EventJournal, ToJsonIsTheCanonicalEventsDocument) {
  EventJournal journal;
  journal.log_at(12.5, EventKind::kEpochClose, 2, 40, 1.5, "closed");
  journal.log_at(13.0, EventKind::kCheckpoint, -1, JournalEvent::kNoEpoch,
                 0.0);

  const json::Value root = journal.to_json();
  EXPECT_EQ(root.at("schema").as_string(), "botmeter.events.v1");
  EXPECT_EQ(root.at("next_seq").as_int(), 2);
  EXPECT_EQ(root.at("dropped").as_int(), 0);
  const json::Array& events = root.at("events").as_array();
  ASSERT_EQ(events.size(), 2u);

  const json::Value& close = events[0];
  EXPECT_EQ(close.at("seq").as_int(), 0);
  EXPECT_DOUBLE_EQ(close.at("t_ms").as_double(), 12.5);
  EXPECT_EQ(close.at("shard").as_int(), 2);
  EXPECT_EQ(close.at("kind").as_string(), "epoch_close");
  EXPECT_EQ(close.at("epoch").as_int(), 40);
  EXPECT_DOUBLE_EQ(close.at("value").as_double(), 1.5);
  EXPECT_EQ(close.at("message").as_string(), "closed");

  // kNoEpoch and an empty message are omitted, not serialized as noise.
  const json::Value& checkpoint = events[1];
  EXPECT_EQ(checkpoint.find("epoch"), nullptr);
  EXPECT_EQ(checkpoint.find("message"), nullptr);

  // The filtered document carries the filter's view of the events.
  const json::Value filtered = journal.to_json(1);
  EXPECT_EQ(filtered.at("events").as_array().size(), 1u);
}

TEST(EventJournal, DumpWritesParseableDocumentAndAutoDumpIsSafe) {
  EventJournal journal;
  journal.log_at(7.0, EventKind::kHealthTransition, -1, JournalEvent::kNoEpoch,
                 2.0, "degraded->unhealthy");

  // No configured path: auto_dump is a no-op, never an error.
  EXPECT_FALSE(journal.auto_dump());

  const std::string path = testing::TempDir() + "/botmeter_journal_test.json";
  journal.set_dump_path(path);
  EXPECT_TRUE(journal.auto_dump());

  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  const std::string text((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  const json::Value root = json::parse(text);
  EXPECT_EQ(root.at("schema").as_string(), "botmeter.events.v1");
  ASSERT_EQ(root.at("events").as_array().size(), 1u);
  EXPECT_EQ(root.at("events").as_array()[0].at("message").as_string(),
            "degraded->unhealthy");

  // Explicit dump to an unwritable path is loud; auto_dump swallows it (the
  // flight recorder must never take the pipeline down).
  EXPECT_THROW(journal.dump("/nonexistent-dir/journal.json"), DataError);
  journal.set_dump_path("/nonexistent-dir/journal.json");
  EXPECT_FALSE(journal.auto_dump());
}

// The TSan target: several producer threads append while a poller follows
// the /events handler's exact protocol: take to_json(cursor), then resume
// from the document's next_seq. Every sequence number must be assigned
// exactly once, and the poller must be delivered every one of them exactly
// once, in order.
TEST(EventJournal, ConcurrentAppendsAndQueriesStayConsistent) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 1000;
  constexpr std::uint64_t kEvents = kProducers * kPerProducer;
  static_assert(kEvents <= kJournalCapacity, "the ring retains every event");
  EventJournal journal;

  std::atomic<bool> done{false};
  std::vector<std::uint64_t> delivered;
  std::thread poller([&journal, &done, &delivered] {
    std::uint64_t cursor = 0;
    for (bool last = false; !last;) {
      last = done.load(std::memory_order_acquire);
      const json::Value doc = journal.to_json(cursor);
      (void)json::write(journal.to_json(0, 0));
      for (const std::uint64_t seq : seqs_of(doc)) delivered.push_back(seq);
      cursor = static_cast<std::uint64_t>(doc.at("next_seq").as_int());
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&journal, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        journal.log_at(static_cast<double>(i), EventKind::kEpochClose, p, i,
                       0.0);
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  done.store(true, std::memory_order_release);
  poller.join();

  const json::Value doc = journal.to_json();
  EXPECT_EQ(doc.at("next_seq").as_int(), static_cast<std::int64_t>(kEvents));
  EXPECT_EQ(doc.at("dropped").as_int(), 0);
  const std::vector<std::uint64_t> seqs = seqs_of(doc);
  EXPECT_EQ(std::set<std::uint64_t>(seqs.begin(), seqs.end()).size(),
            seqs.size())
      << "duplicate sequence numbers";
  EXPECT_EQ(seqs.size(), kEvents);

  // Exactly-once delivery through the cursor: 0 .. kEvents-1, each once.
  ASSERT_EQ(delivered.size(), kEvents) << "events lost or repeated";
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    ASSERT_EQ(delivered[i], i) << "delivery " << i;
  }
}

}  // namespace
}  // namespace botmeter::obs
