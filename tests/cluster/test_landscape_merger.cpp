// LandscapeMerger: merged epochs must come out ascending regardless of the
// cross-shard arrival order, a laggard must hold the frontier (and the
// callback stream) back, and every protocol violation must be loud.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/landscape_merger.hpp"
#include "cluster/shard_router.hpp"
#include "common/error.hpp"

namespace botmeter::cluster {
namespace {

std::vector<estimators::EpochCell> row(std::int64_t epoch,
                                       std::size_t width,
                                       double base) {
  std::vector<estimators::EpochCell> cells(width);
  for (std::size_t i = 0; i < width; ++i) {
    cells[i].epoch = epoch;
    cells[i].estimate.value = base + static_cast<double>(i);
    cells[i].matched = static_cast<std::uint64_t>(i) + 1;
  }
  return cells;
}

TEST(LandscapeMergerTest, MergesOnlyWhenEveryShardClosedAndEmitsAscending) {
  const ShardRouter router = ShardRouter::by_range(4, 2);  // {0,1} | {2,3}
  LandscapeMerger merger(router, 0, 3);
  std::vector<std::int64_t> merged_epochs;
  merger.on_merge([&merged_epochs](const MergedEpoch& m) {
    merged_epochs.push_back(m.epoch);
  });

  // Shard 0 races two epochs ahead; nothing merges, the frontier holds.
  merger.offer(0, 0, row(0, 2, 10.0));
  merger.offer(0, 1, row(1, 2, 20.0));
  EXPECT_EQ(merger.merge_frontier(), 0);
  EXPECT_EQ(merger.max_shard_progress(), 2);
  EXPECT_TRUE(merged_epochs.empty());

  // The laggard closes epoch 0: epoch 0 merges, epoch 1 still waits.
  merger.offer(1, 0, row(0, 2, 30.0));
  EXPECT_EQ(merger.merge_frontier(), 1);
  EXPECT_EQ(merged_epochs, (std::vector<std::int64_t>{0}));

  // It catches up through epoch 1: both pending epochs publish in order.
  merger.offer(1, 1, row(1, 2, 40.0));
  EXPECT_EQ(merged_epochs, (std::vector<std::int64_t>{0, 1}));

  // The merged row scatters shard-local cells onto global server slots.
  const MergedEpoch m0 = merger.merged_epoch(0);
  ASSERT_EQ(m0.cells.size(), 4u);
  EXPECT_EQ(m0.cells[0].estimate.value, 10.0);
  EXPECT_EQ(m0.cells[1].estimate.value, 11.0);
  EXPECT_EQ(m0.cells[2].estimate.value, 30.0);
  EXPECT_EQ(m0.cells[3].estimate.value, 31.0);

  // assemble() requires the whole horizon.
  EXPECT_THROW((void)merger.assemble("poisson"), ConfigError);
  merger.offer(0, 2, row(2, 2, 50.0));
  merger.offer(1, 2, row(2, 2, 60.0));
  const core::LandscapeReport report = merger.assemble("poisson");
  EXPECT_EQ(report.estimator_name, "poisson");
  ASSERT_EQ(report.servers.size(), 4u);
  EXPECT_EQ(report.servers[2].per_epoch.size(), 3u);
}

// Each offer's close time and flow id are the one record of that close:
// the merged epoch carries every shard's arrival and the flow of the offer
// that completed the row — also for a row completed before an earlier
// epoch's laggard lets it publish.
TEST(LandscapeMergerTest, MergedEpochCarriesEachArrivalAndTheCompletingFlow) {
  const ShardRouter router = ShardRouter::by_range(4, 2);
  LandscapeMerger merger(router, 0, 2);
  std::vector<MergedEpoch> merged;
  merger.on_merge([&merged](const MergedEpoch& m) { merged.push_back(m); });

  merger.offer(0, 0, row(0, 2, 1.0), 10.0, 101);
  merger.offer(0, 1, row(1, 2, 1.0), 12.0, 102);
  merger.offer(1, 0, row(0, 2, 1.0));  // an untimed close
  merger.offer(1, 1, row(1, 2, 1.0), 15.0, 104);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].closed_ms,
            (std::vector<std::optional<double>>{10.0, std::nullopt}));
  EXPECT_EQ(merged[0].flow, 0u);  // the completing offer carried none
  EXPECT_EQ(merged[1].closed_ms,
            (std::vector<std::optional<double>>{12.0, 15.0}));
  EXPECT_EQ(merged[1].flow, 104u);
  EXPECT_TRUE(merger.merged_epoch(1).closed_ms.empty());
}

TEST(LandscapeMergerTest, RejectsProtocolViolations) {
  const ShardRouter router = ShardRouter::by_range(3, 2);  // widths 2, 1
  LandscapeMerger merger(router, 5, 2);

  // Wrong row width for the shard.
  EXPECT_THROW(merger.offer(0, 5, row(5, 1, 0.0)), ConfigError);
  // Outside the horizon.
  EXPECT_THROW(merger.offer(0, 4, row(4, 2, 0.0)), ConfigError);
  EXPECT_THROW(merger.offer(0, 7, row(7, 2, 0.0)), ConfigError);

  merger.offer(0, 5, row(5, 2, 1.0));
  // Re-offering the same epoch, or skipping ahead, is out of order.
  EXPECT_THROW(merger.offer(0, 5, row(5, 2, 1.0)), ConfigError);
  EXPECT_THROW(merger.offer(1, 6, row(6, 1, 2.0)), ConfigError);

  // Unmerged epochs cannot be read.
  EXPECT_THROW((void)merger.merged_epoch(5), ConfigError);
}

}  // namespace
}  // namespace botmeter::cluster
