// Lag attribution: per-(shard, stage) histograms, the per-epoch straggler
// table with injected close/merge times, the attribution fold, and the
// canonical botmeter.lag.v1 document.
#include "obs/lag_tracker.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"

namespace botmeter::obs {
namespace {

using Arrivals = std::vector<std::optional<double>>;

TEST(LagTracker, RecordAccumulatesPerShardAndStage) {
  LagTracker tracker(2);
  tracker.record(0, LagStage::kQueueWait, 1.0);
  tracker.record(0, LagStage::kQueueWait, 3.0);
  tracker.record(1, LagStage::kShardIngest, 5.0);
  tracker.record(0, LagStage::kQueueWait, -2.0);  // clamped to 0

  const LagStageSample queue = tracker.stage_sample(0, LagStage::kQueueWait);
  EXPECT_EQ(queue.count, 3u);
  EXPECT_DOUBLE_EQ(queue.total_ms, 4.0);
  EXPECT_DOUBLE_EQ(queue.max_ms, 3.0);
  ASSERT_EQ(queue.bucket_counts.size(), LagTracker::bounds().size() + 1);
  std::uint64_t bucketed = 0;
  for (const std::uint64_t c : queue.bucket_counts) bucketed += c;
  EXPECT_EQ(bucketed, 3u);

  // The other shard's stage is untouched; its own sample is isolated.
  EXPECT_EQ(tracker.stage_sample(1, LagStage::kQueueWait).count, 0u);
  EXPECT_EQ(tracker.stage_sample(1, LagStage::kShardIngest).count, 1u);

  EXPECT_THROW(tracker.record(2, LagStage::kQueueWait, 1.0), ConfigError);
  EXPECT_THROW((void)tracker.stage_sample(9, LagStage::kQueueWait),
               ConfigError);
}

TEST(LagTracker, StragglerTableNamesTheLastCloser) {
  LagTracker tracker(3);
  // Epoch 40: shard 1 closes last, 7 ms after the first close.
  tracker.note_merge(40, Arrivals{10.0, 17.0, 12.0}, 20.0);

  const auto rows = tracker.stragglers();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].epoch, 40);
  EXPECT_EQ(rows[0].straggler_shard, 1u);
  EXPECT_DOUBLE_EQ(rows[0].first_close_ms, 10.0);
  EXPECT_DOUBLE_EQ(rows[0].last_close_ms, 17.0);
  EXPECT_DOUBLE_EQ(rows[0].straggle_ms, 7.0);
  EXPECT_DOUBLE_EQ(rows[0].merge_ms, 20.0);

  // Each contributing shard recorded its merge_publish wait (merge - close).
  EXPECT_DOUBLE_EQ(
      tracker.stage_sample(0, LagStage::kMergePublish).total_ms, 10.0);
  EXPECT_DOUBLE_EQ(
      tracker.stage_sample(1, LagStage::kMergePublish).total_ms, 3.0);
  EXPECT_DOUBLE_EQ(
      tracker.stage_sample(2, LagStage::kMergePublish).total_ms, 8.0);

  // A merge with no timed close is a no-op, not a phantom row; an untimed
  // shard is skipped, and more arrivals than shards is a wiring bug.
  tracker.note_merge(41, Arrivals(3), 30.0);
  EXPECT_EQ(tracker.stragglers().size(), 1u);
  tracker.note_merge(42, Arrivals{std::nullopt, 31.0, std::nullopt}, 33.0);
  ASSERT_EQ(tracker.stragglers().size(), 2u);
  EXPECT_EQ(tracker.stragglers()[1].straggler_shard, 1u);
  EXPECT_DOUBLE_EQ(tracker.stragglers()[1].straggle_ms, 0.0);
  EXPECT_EQ(tracker.stage_sample(0, LagStage::kMergePublish).count, 1u);
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
  const auto rows = tracker.stragglers();
  ASSERT_EQ(rows.size(), kStragglerRows);
  EXPECT_EQ(rows.front().epoch, 2);  // oldest rows evicted
  EXPECT_EQ(rows.back().epoch, kMerges - 1);
}

TEST(LagTracker, AttributionPicksSlowestStageAndShard) {
  LagTracker tracker(2);
  const LagAttribution empty = tracker.attribution();
  EXPECT_FALSE(empty.slowest_stage.has_value());
  EXPECT_FALSE(empty.slowest_shard.has_value());

  tracker.record(0, LagStage::kQueueWait, 2.0);
  tracker.record(1, LagStage::kEpochClose, 9.0);
  tracker.record(1, LagStage::kQueueWait, 1.0);

  const LagAttribution a = tracker.attribution();
  ASSERT_TRUE(a.slowest_stage.has_value());
  EXPECT_EQ(*a.slowest_stage, LagStage::kEpochClose);
  EXPECT_DOUBLE_EQ(a.slowest_stage_total_ms, 9.0);
  ASSERT_TRUE(a.slowest_shard.has_value());
  EXPECT_EQ(*a.slowest_shard, 1u);
  EXPECT_DOUBLE_EQ(a.slowest_shard_total_ms, 10.0);
  ASSERT_EQ(a.stage_total_ms.size(), kLagStageCount);
  EXPECT_DOUBLE_EQ(
      a.stage_total_ms[static_cast<std::size_t>(LagStage::kQueueWait)], 3.0);
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
