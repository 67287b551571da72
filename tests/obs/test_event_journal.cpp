// The flight recorder: ring bounds and drop accounting, monotonic sequence
// numbers, seq/shard query filters, the canonical botmeter.events.v1
// document, disk dumps (explicit and auto), and a multi-producer append
// race with a concurrent reader (the TSan target).
#include "obs/event_journal.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"

namespace botmeter::obs {
namespace {

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
  EXPECT_EQ(journal.next_seq(), kAppends);
  EXPECT_EQ(journal.size(), kJournalCapacity);
  EXPECT_EQ(journal.dropped(), 2u);

  // The oldest two fell off; what remains starts at seq 2, oldest first.
  const std::vector<JournalEvent> events = journal.events_since(0);
  ASSERT_EQ(events.size(), kJournalCapacity);
  EXPECT_EQ(events.front().seq, 2u);
  EXPECT_EQ(events.front().epoch, 2);
  EXPECT_EQ(events.back().seq, kAppends - 1);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

TEST(EventJournal, EventsSinceFiltersBySeqAndShard) {
  EventJournal journal;
  journal.log_at(1.0, EventKind::kEpochClose, 0, 10, 0.0);
  journal.log_at(2.0, EventKind::kEpochClose, 1, 10, 0.0);
  journal.log_at(3.0, EventKind::kMergePublish, -1, 10, 0.0);
  journal.log_at(4.0, EventKind::kEpochClose, 0, 11, 0.0);

  EXPECT_EQ(journal.events_since(2).size(), 2u);
  EXPECT_EQ(journal.events_since(99).size(), 0u);

  const auto shard0 = journal.events_since(0, 0);
  ASSERT_EQ(shard0.size(), 2u);
  EXPECT_EQ(shard0[0].epoch, 10);
  EXPECT_EQ(shard0[1].epoch, 11);
  EXPECT_DOUBLE_EQ(shard0[1].t_ms, 4.0);

  // Cluster-level events (-1) are matched only by asking for -1 explicitly.
  const auto cluster = journal.events_since(0, -1);
  ASSERT_EQ(cluster.size(), 1u);
  EXPECT_EQ(cluster[0].kind, EventKind::kMergePublish);
}

TEST(EventJournal, KindNamesRoundTrip) {
  for (const EventKind kind :
       {EventKind::kHealthTransition, EventKind::kEpochClose,
        EventKind::kWatermarkAdvance, EventKind::kCheckpoint,
        EventKind::kRestore, EventKind::kQueueSaturation,
        EventKind::kMergePublish}) {
    EXPECT_EQ(event_kind_from_name(event_kind_name(kind)), kind);
  }
  EXPECT_THROW((void)event_kind_from_name("not_a_kind"), DataError);
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
  EXPECT_EQ(journal.dump_path(), path);
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

// The TSan target: several producer threads append while a reader polls
// events_since and the JSON document (the /events handler's exact calls).
// Every sequence number must be assigned exactly once and every query must
// return a consistent, ordered view.
TEST(EventJournal, ConcurrentAppendsAndQueriesStayConsistent) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  static_assert(std::size_t{kProducers * kPerProducer} <= kJournalCapacity,
                "the ring retains every event");
  EventJournal journal;

  std::atomic<bool> done{false};
  std::thread reader([&journal, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      const auto events = journal.events_since(0);
      for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_LT(events[i - 1].seq, events[i].seq);
      }
      (void)json::write(journal.to_json(0, 0));
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
  done.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(journal.next_seq(),
            static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(journal.dropped(), 0u);
  const auto events = journal.events_since(0);
  std::set<std::uint64_t> seqs;
  for (const JournalEvent& event : events) seqs.insert(event.seq);
  EXPECT_EQ(seqs.size(), events.size()) << "duplicate sequence numbers";
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kProducers * kPerProducer));
}

}  // namespace
}  // namespace botmeter::obs
