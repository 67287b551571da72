// Watermark-aligned merge of per-shard epoch closes into the global
// landscape.
//
// Every shard engine closes an epoch on its own thread, when the producer
// front's close marker for it reaches the shard; the cluster's global
// statement about epoch e is only final once *every* shard has closed e.
// The merger is the synchronisation point: shard
// threads offer their closed rows as they happen (any arrival order across
// shards, ascending epochs within one shard), cells are scattered into the
// global (epoch × server) grid through the router, and once an epoch's row
// is complete *and* every earlier epoch has been emitted, the merged row is
// published — so merged epochs always come out in ascending order, exactly
// the order a single engine would close them.
//
// The *merge frontier* is the first epoch not yet fully merged: the min over
// shards of their close progress. A lagging shard (a slow worker, a long
// queue) holds the frontier back — later epochs pile up as partial rows and
// the global report simply stays silent about them — rather than ever
// publishing a row some shard could still contribute to. Frontier lag
// (max shard progress − frontier) is the cluster health monitor's signal for
// that condition.
//
// The merger is also the one record of when each close arrived: an offer
// carries its close's end time and flow id, and the merged epoch hands them
// to on_merge (straggler rows, merge_publish waits, close→merge arrows).
//
// Byte-identity: a (server, epoch) cell is a pure function of the server's
// matched bucket for that epoch, and the router gives every server exactly
// one owner, so the scattered cells are the very cells a single engine's
// closes would produce. assemble() then aggregates the grid with the same
// estimators::aggregate_cells walk, in the same epoch order, as
// StreamEngine::finish — hence the merged LandscapeReport is bit-identical
// to the single-engine report over the union trace.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cluster/shard_router.hpp"
#include "core/botmeter.hpp"
#include "estimators/estimator.hpp"

namespace botmeter::cluster {

/// One fully merged epoch: the global per-server cell row, final.
struct MergedEpoch {
  std::int64_t epoch = 0;
  std::vector<estimators::EpochCell> cells;  // width == router server_count
  /// on_merge only (merged_epoch() leaves them empty): each shard's close
  /// time as offered, and the flow id of the offer that completed the row.
  std::vector<std::optional<double>> closed_ms;
  std::uint64_t flow = 0;
};

class LandscapeMerger {
 public:
  /// Invoked for every merged epoch, ascending. Runs on whichever shard
  /// thread completed the epoch, under the merger's mutex — keep it short
  /// and never call back into the merger from it.
  using MergeCallback = std::function<void(const MergedEpoch&)>;

  LandscapeMerger(const ShardRouter& router, std::int64_t first_epoch,
                  std::int64_t epoch_count);

  LandscapeMerger(const LandscapeMerger&) = delete;
  LandscapeMerger& operator=(const LandscapeMerger&) = delete;

  void on_merge(MergeCallback callback);

  /// Offer shard `shard`'s closed row for `epoch`: `local_cells[i]` is the
  /// cell of the shard's i-th owned server (the engine's local order). Each
  /// shard must offer each epoch exactly once, ascending. `closed_ms` (when
  /// the close ended) and `flow` (its span's flow id) are the one record of
  /// the close's arrival. Thread-safe against concurrent offers and queries.
  void offer(std::size_t shard, std::int64_t epoch,
             std::vector<estimators::EpochCell> local_cells,
             std::optional<double> closed_ms = std::nullopt,
             std::uint64_t flow = 0);

  // --- queries (thread-safe) ----------------------------------------------
  /// First epoch not yet fully merged (first_epoch + merged_count; one past
  /// the horizon once everything merged).
  [[nodiscard]] std::int64_t merge_frontier() const;
  [[nodiscard]] std::size_t merged_count() const;
  /// Close progress of the most advanced shard (its next epoch to close) —
  /// frontier lag = max_shard_progress() - merge_frontier().
  [[nodiscard]] std::int64_t max_shard_progress() const;
  /// Copy of one merged row; throws ConfigError when `epoch` is not merged.
  [[nodiscard]] MergedEpoch merged_epoch(std::int64_t epoch) const;

  /// Assemble the global LandscapeReport from the merged grid — requires
  /// every epoch merged (ConfigError otherwise). Same per-server
  /// aggregate_cells walk as StreamEngine::finish, hence bit-identical.
  [[nodiscard]] core::LandscapeReport assemble(
      std::string estimator_name) const;

 private:
  const ShardRouter& router_;
  const std::int64_t first_epoch_;
  const std::int64_t epoch_count_;
  MergeCallback on_merge_;

  mutable std::mutex mu_;
  /// The global cell grid, [epoch index][global server]. Rows fill as shards
  /// offer; `arrived_[i]` counts contributing shards; rows below `merged_`
  /// are final.
  std::vector<std::vector<estimators::EpochCell>> rows_;
  std::vector<std::size_t> arrived_;
  /// Per row: each shard's offered close time, and the latest offer's flow
  /// id — the completing offer's once the row is whole.
  std::vector<std::vector<std::optional<double>>> closed_ms_;
  std::vector<std::uint64_t> flow_;
  std::size_t merged_ = 0;
  /// Per-shard close progress (epochs offered so far).
  std::vector<std::size_t> shard_progress_;
};

}  // namespace botmeter::cluster
