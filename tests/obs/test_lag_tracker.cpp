// Lag attribution: per-(shard, stage) histograms, the per-epoch straggler
// table with injected close/merge times, the attribution fold, and the
// canonical botmeter.lag.v1 document they are read through — whole even
// while other threads record (the TSan target).
#include "obs/lag_tracker.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"

namespace botmeter::obs {
namespace {

using Arrivals = std::vector<std::optional<double>>;

/// The (shard, stage) histogram object of a botmeter.lag.v1 document.
const json::Value& stage_of(const json::Value& doc, std::size_t shard,
                            LagStage stage) {
  return doc.at("shards").as_array().at(shard).at("stages").at(
      std::string(lag_stage_name(stage)));
}

std::int64_t count_of(const json::Value& doc, std::size_t shard,
                      LagStage stage) {
  return stage_of(doc, shard, stage).at("count").as_int();
}

TEST(LagTracker, RecordAccumulatesPerShardAndStage) {
  LagTracker tracker(2);
  tracker.record(0, LagStage::kQueueWait, 1.0);
  tracker.record(0, LagStage::kQueueWait, 3.0);
  tracker.record(1, LagStage::kShardIngest, 5.0);
  tracker.record(0, LagStage::kQueueWait, -2.0);  // clamped to 0

  const json::Value doc = tracker.to_json();
  const json::Value& queue = stage_of(doc, 0, LagStage::kQueueWait);
  EXPECT_EQ(queue.at("count").as_int(), 3);
  EXPECT_DOUBLE_EQ(queue.at("total_ms").as_double(), 4.0);
  EXPECT_DOUBLE_EQ(queue.at("max_ms").as_double(), 3.0);
  const json::Array& buckets = queue.at("buckets").as_array();
  ASSERT_EQ(buckets.size(), LagTracker::bounds().size() + 1);
  std::int64_t bucketed = 0;
  for (const json::Value& c : buckets) bucketed += c.as_int();
  EXPECT_EQ(bucketed, 3);

  // The other shard's stage is untouched; its own sample is isolated.
  EXPECT_EQ(count_of(doc, 1, LagStage::kQueueWait), 0);
  EXPECT_EQ(count_of(doc, 1, LagStage::kShardIngest), 1);

  EXPECT_THROW(tracker.record(2, LagStage::kQueueWait, 1.0), ConfigError);
}

TEST(LagTracker, StragglerTableNamesTheLastCloser) {
  LagTracker tracker(3);
  // Epoch 40: shard 1 closes last, 7 ms after the first close.
  tracker.note_merge(40, Arrivals{10.0, 17.0, 12.0}, 20.0);

  json::Value doc = tracker.to_json();
  const json::Array& rows = doc.at("stragglers").as_array();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("epoch").as_int(), 40);
  EXPECT_EQ(rows[0].at("straggler_shard").as_int(), 1);
  EXPECT_DOUBLE_EQ(rows[0].at("first_close_ms").as_double(), 10.0);
  EXPECT_DOUBLE_EQ(rows[0].at("last_close_ms").as_double(), 17.0);
  EXPECT_DOUBLE_EQ(rows[0].at("straggle_ms").as_double(), 7.0);
  EXPECT_DOUBLE_EQ(rows[0].at("merge_ms").as_double(), 20.0);

  // Each contributing shard recorded its merge_publish wait (merge - close).
  const auto merge_total = [&doc](std::size_t shard) {
    return stage_of(doc, shard, LagStage::kMergePublish)
        .at("total_ms")
        .as_double();
  };
  EXPECT_DOUBLE_EQ(merge_total(0), 10.0);
  EXPECT_DOUBLE_EQ(merge_total(1), 3.0);
  EXPECT_DOUBLE_EQ(merge_total(2), 8.0);

  // A merge with no timed close is a no-op, not a phantom row; an untimed
  // shard is skipped, and more arrivals than shards is a wiring bug.
  tracker.note_merge(41, Arrivals(3), 30.0);
  EXPECT_EQ(tracker.to_json().at("stragglers").as_array().size(), 1u);
  tracker.note_merge(42, Arrivals{std::nullopt, 31.0, std::nullopt}, 33.0);
  doc = tracker.to_json();
  const json::Array& after = doc.at("stragglers").as_array();
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[1].at("straggler_shard").as_int(), 1);
  EXPECT_DOUBLE_EQ(after[1].at("straggle_ms").as_double(), 0.0);
  EXPECT_EQ(count_of(doc, 0, LagStage::kMergePublish), 1);
  EXPECT_THROW(tracker.note_merge(43, Arrivals(4, 1.0), 2.0), ConfigError);
}

TEST(LagTracker, StragglerTableIsBounded) {
  LagTracker tracker(1);
  constexpr std::int64_t kMerges =
      static_cast<std::int64_t>(kStragglerRows) + 2;
  for (std::int64_t epoch = 0; epoch < kMerges; ++epoch) {
    tracker.note_merge(epoch, Arrivals{static_cast<double>(epoch)},
                       static_cast<double>(epoch) + 1.0);
  }
  const json::Value doc = tracker.to_json();
  const json::Array& rows = doc.at("stragglers").as_array();
  ASSERT_EQ(rows.size(), kStragglerRows);
  EXPECT_EQ(rows.front().at("epoch").as_int(), 2);  // oldest rows evicted
  EXPECT_EQ(rows.back().at("epoch").as_int(), kMerges - 1);
}

TEST(LagTracker, AttributionPicksSlowestStageAndShard) {
  LagTracker tracker(2);
  const json::Value empty = tracker.attribution_json();
  EXPECT_EQ(empty.find("slowest_stage"), nullptr);
  EXPECT_EQ(empty.find("slowest_shard"), nullptr);
  EXPECT_DOUBLE_EQ(
      empty.at("stage_total_ms").at("queue_wait").as_double(), 0.0);

  tracker.record(0, LagStage::kQueueWait, 2.0);
  tracker.record(1, LagStage::kEpochClose, 9.0);
  tracker.record(1, LagStage::kQueueWait, 1.0);

  const json::Value a = tracker.attribution_json();
  EXPECT_EQ(a.at("slowest_stage").as_string(), "epoch_close");
  EXPECT_DOUBLE_EQ(a.at("slowest_stage_total_ms").as_double(), 9.0);
  EXPECT_EQ(a.at("slowest_shard").as_int(), 1);
  EXPECT_DOUBLE_EQ(a.at("slowest_shard_total_ms").as_double(), 10.0);
  EXPECT_EQ(a.at("stage_total_ms").as_object().size(), kLagStageCount);
  EXPECT_DOUBLE_EQ(a.at("stage_total_ms").at("queue_wait").as_double(), 3.0);
  // The /debug/lag document embeds the same fold.
  EXPECT_EQ(json::write(tracker.to_json().at("attribution")), json::write(a));
}

TEST(LagTracker, ToJsonIsTheCanonicalLagDocument) {
  LagTracker tracker(2);
  tracker.record(0, LagStage::kShardIngest, 4.0);
  tracker.note_merge(7, Arrivals{1.0, 2.0}, 3.0);

  const json::Value root = tracker.to_json();
  EXPECT_EQ(root.at("schema").as_string(), "botmeter.lag.v1");
  EXPECT_EQ(root.at("shard_count").as_int(), 2);
  EXPECT_EQ(root.at("bucket_bounds_ms").as_array().size(),
            LagTracker::bounds().size());

  const json::Array& shards = root.at("shards").as_array();
  ASSERT_EQ(shards.size(), 2u);
  const json::Value& ingest =
      shards[0].at("stages").at("shard_ingest");
  EXPECT_EQ(ingest.at("count").as_int(), 1);
  EXPECT_DOUBLE_EQ(ingest.at("total_ms").as_double(), 4.0);
  EXPECT_DOUBLE_EQ(ingest.at("mean_ms").as_double(), 4.0);

  const json::Array& stragglers = root.at("stragglers").as_array();
  ASSERT_EQ(stragglers.size(), 1u);
  EXPECT_EQ(stragglers[0].at("straggler_shard").as_int(), 1);

  EXPECT_EQ(root.at("attribution").at("slowest_stage").as_string(),
            "shard_ingest");
}

// The TSan target: writers record on every shard while a reader takes
// /debug/lag documents. Each document is one copy of the tracker, so its
// attribution totals are exactly the sums of the stages it lists (summed in
// shard order, as the fold does) and each stage's buckets add up to its
// count.
TEST(LagTracker, ConcurrentRecordsLeaveEveryDocumentWhole) {
  constexpr std::size_t kShards = 4;
  constexpr int kWriters = 4;
  constexpr int kDocuments = 500;
  LagTracker tracker(kShards);

  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&tracker, &done, w] {
      for (std::size_t i = static_cast<std::size_t>(w);
           !done.load(std::memory_order_relaxed); ++i) {
        tracker.record(i % kShards, static_cast<LagStage>(i % kLagStageCount),
                       0.25 * static_cast<double>(i % 9 + 1));
      }
    });
  }

  int torn = 0;
  for (int d = 0; d < kDocuments; ++d) {
    const json::Value doc = tracker.to_json();
    const json::Value& totals = doc.at("attribution").at("stage_total_ms");
    bool whole = true;
    for (std::size_t s = 0; s < kLagStageCount; ++s) {
      const auto stage = static_cast<LagStage>(s);
      double sum = 0.0;
      for (std::size_t shard = 0; shard < kShards; ++shard) {
        const json::Value& acc = stage_of(doc, shard, stage);
        sum += acc.at("total_ms").as_double();
        std::int64_t bucketed = 0;
        for (const json::Value& c : acc.at("buckets").as_array()) {
          bucketed += c.as_int();
        }
        EXPECT_EQ(bucketed, acc.at("count").as_int())
            << "document " << d << ", shard " << shard << ", "
            << lag_stage_name(stage);
      }
      whole = whole && sum == totals.at(std::string(lag_stage_name(stage)))
                                  .as_double();
    }
    if (!whole) ++torn;
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(torn, 0) << "of " << kDocuments
                     << " documents disagree with their own attribution";
}

TEST(LagTracker, StageNamesAreStable) {
  EXPECT_EQ(lag_stage_name(LagStage::kProducerBatch), "producer_batch");
  EXPECT_EQ(lag_stage_name(LagStage::kQueueWait), "queue_wait");
  EXPECT_EQ(lag_stage_name(LagStage::kShardIngest), "shard_ingest");
  EXPECT_EQ(lag_stage_name(LagStage::kEpochClose), "epoch_close");
  EXPECT_EQ(lag_stage_name(LagStage::kMergePublish), "merge_publish");
}

TEST(LagTracker, ValidatesConstruction) {
  EXPECT_THROW(LagTracker{0}, ConfigError);
}

}  // namespace
}  // namespace botmeter::obs
