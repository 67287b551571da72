#include "cluster/landscape_merger.hpp"

#include <utility>

#include "common/error.hpp"

namespace botmeter::cluster {

LandscapeMerger::LandscapeMerger(const ShardRouter& router,
                                 std::int64_t first_epoch,
                                 std::int64_t epoch_count)
    : router_(router), first_epoch_(first_epoch), epoch_count_(epoch_count) {
  if (epoch_count <= 0) {
    throw ConfigError("LandscapeMerger: epoch_count must be > 0");
  }
  rows_.resize(static_cast<std::size_t>(epoch_count));
  arrived_.assign(static_cast<std::size_t>(epoch_count), 0);
  closed_ms_.assign(static_cast<std::size_t>(epoch_count),
                    std::vector<std::optional<double>>(router.shard_count()));
  flow_.assign(static_cast<std::size_t>(epoch_count), 0);
  shard_progress_.assign(router.shard_count(), 0);
}

void LandscapeMerger::on_merge(MergeCallback callback) {
  std::lock_guard<std::mutex> lock(mu_);
  on_merge_ = std::move(callback);
}

void LandscapeMerger::offer(std::size_t shard, std::int64_t epoch,
                            std::vector<estimators::EpochCell> local_cells,
                            std::optional<double> closed_ms,
                            std::uint64_t flow) {
  const std::vector<std::uint32_t>& owned = router_.servers_of(shard);
  if (local_cells.size() != owned.size()) {
    throw ConfigError("LandscapeMerger: shard " + std::to_string(shard) +
                      " offered " + std::to_string(local_cells.size()) +
                      " cells for its " + std::to_string(owned.size()) +
                      " servers");
  }
  const std::int64_t row = epoch - first_epoch_;
  if (row < 0 || row >= epoch_count_) {
    throw ConfigError("LandscapeMerger: epoch " + std::to_string(epoch) +
                      " outside the horizon");
  }
  const auto i = static_cast<std::size_t>(row);

  std::lock_guard<std::mutex> lock(mu_);
  if (shard_progress_[shard] != i) {
    throw ConfigError("LandscapeMerger: shard " + std::to_string(shard) +
                      " offered epoch " + std::to_string(epoch) +
                      " out of order");
  }
  shard_progress_[shard] = i + 1;

  std::vector<estimators::EpochCell>& global_row = rows_[i];
  if (global_row.empty()) global_row.resize(router_.server_count());
  for (std::size_t k = 0; k < owned.size(); ++k) {
    global_row[owned[k]] = local_cells[k];
  }
  ++arrived_[i];
  closed_ms_[i][shard] = closed_ms;
  flow_[i] = flow;

  // Publish every epoch the new arrival completed, ascending. A row is only
  // emitted once all earlier rows went out — a fast shard completing epoch 5
  // while epoch 4 still waits on a laggard publishes nothing.
  while (merged_ < rows_.size() &&
         arrived_[merged_] == router_.shard_count()) {
    if (on_merge_) {
      MergedEpoch merged;
      merged.epoch = first_epoch_ + static_cast<std::int64_t>(merged_);
      merged.cells = rows_[merged_];
      merged.closed_ms = std::move(closed_ms_[merged_]);
      merged.flow = flow_[merged_];
      on_merge_(merged);
    }
    ++merged_;
  }
}

std::int64_t LandscapeMerger::merge_frontier() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_epoch_ + static_cast<std::int64_t>(merged_);
}

std::size_t LandscapeMerger::merged_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return merged_;
}

std::int64_t LandscapeMerger::max_shard_progress() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t max_progress = 0;
  for (const std::size_t progress : shard_progress_) {
    max_progress = std::max(max_progress, progress);
  }
  return first_epoch_ + static_cast<std::int64_t>(max_progress);
}

MergedEpoch LandscapeMerger::merged_epoch(std::int64_t epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t row = epoch - first_epoch_;
  if (row < 0 || static_cast<std::size_t>(row) >= merged_) {
    throw ConfigError("LandscapeMerger: epoch " + std::to_string(epoch) +
                      " not merged yet");
  }
  MergedEpoch result;
  result.epoch = epoch;
  result.cells = rows_[static_cast<std::size_t>(row)];
  return result;
}

core::LandscapeReport LandscapeMerger::assemble(
    std::string estimator_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (merged_ != rows_.size()) {
    throw ConfigError("LandscapeMerger: assemble() before every epoch merged (" +
                      std::to_string(merged_) + " of " +
                      std::to_string(rows_.size()) + ")");
  }
  return core::assemble_landscape(std::move(estimator_name), rows_,
                                 router_.server_count());
}

}  // namespace botmeter::cluster
