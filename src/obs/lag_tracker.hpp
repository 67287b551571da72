// Pipeline lag attribution for the sharded cluster runtime.
//
// A frontier-lag gauge says the merged landscape is behind; it cannot say
// *where* a tuple's wall time went on the way there. The LagTracker
// decomposes end-to-end delay into the five stages a tuple (or its epoch)
// passes through:
//
//   producer_batch — from the first tuple entering a producer's pending
//                    scatter batch until the batch is enqueued (batching
//                    delay on the producer thread);
//   queue_wait     — from enqueue until a shard worker dequeues the batch
//                    (backpressure / shard-thread saturation);
//   shard_ingest   — the shard engine's ingest_block + advance time for the
//                    batch (per-shard compute);
//   epoch_close    — the engine's estimator wall time closing an epoch;
//   merge_publish  — from a shard offering its closed epoch until the merger
//                    publishes the merged row (waiting on sibling shards).
//
// Each (shard, stage) pair keeps an exponential-bucket histogram (bounds
// from obs::exponential_bounds) plus count/total/max accumulators — one
// mutex, locked per *batch*/close, never per tuple. On top of the
// histograms, a per-epoch straggler table of the last kStragglerRows merged
// epochs records which shard's close arrived last and by how much — "which
// shard is holding the frontier back" as a first-class answer. The close
// arrival times come with the merge, so the tracker keeps no per-close
// state.
//
// The documents are the read path. `to_json()` is the full canonical
// `botmeter.lag.v1` document served at `/debug/lag`; `attribution_json()`
// folds the accumulators down to the slowest stage and slowest shard by
// accumulated wall time, which ClusterRuntime::health_json embeds so a
// "degraded" verdict names its suspect. Each document is rendered from one
// copy of the tracker's state, taken under one lock, so its parts agree:
// `attribution.stage_total_ms` is the sum of the stages it lists.
//
// Like every observability sink in this codebase, the tracker is attached
// through obs::Telemetry: absent means no clock reads and no-ops, keeping
// the landscape byte-identical with attribution on or off.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/json.hpp"

namespace botmeter::obs {

enum class LagStage : int {
  kProducerBatch = 0,
  kQueueWait = 1,
  kShardIngest = 2,
  kEpochClose = 3,
  kMergePublish = 4,
};

inline constexpr std::size_t kLagStageCount = 5;

/// Straggler rows retained; older rows fall off as epochs merge.
inline constexpr std::size_t kStragglerRows = 256;

[[nodiscard]] std::string_view lag_stage_name(LagStage stage);

class LagTracker {
 public:
  explicit LagTracker(std::size_t shard_count);

  LagTracker(const LagTracker&) = delete;
  LagTracker& operator=(const LagTracker&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }

  /// Record `ms` of wall time spent in `stage` on `shard`. Out-of-range
  /// shards are a ConfigError (instrumentation bugs should be loud).
  void record(std::size_t shard, LagStage stage, double ms);

  /// The merger published `epoch` at `now_ms`; `closed_ms[shard]` is when
  /// that shard's close of it arrived (unset: not timed). Records the
  /// merge_publish wait of every timed shard (now - its arrival) and appends
  /// the epoch's straggler row (none without a timed arrival).
  void note_merge(std::int64_t epoch,
                  std::span<const std::optional<double>> closed_ms,
                  double now_ms);

  /// Canonical botmeter.lag.v1 document for /debug/lag: every (shard,
  /// stage) histogram, the straggler rows in merge order (oldest first, the
  /// last kStragglerRows) and the attribution fold.
  [[nodiscard]] json::Value to_json() const;
  /// The compact object health_json embeds under "lag": per-stage totals
  /// summed over shards, and the slowest stage and shard once any sample was
  /// recorded.
  [[nodiscard]] json::Value attribution_json() const;

  /// Shared histogram bounds (milliseconds).
  [[nodiscard]] static const std::vector<double>& bounds();

 private:
  struct StageAcc {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double max_ms = 0.0;
    std::vector<std::uint64_t> buckets;  // bounds().size() + 1 (overflow)
  };

  /// One row of the per-epoch straggler table.
  struct StragglerRow {
    std::int64_t epoch = 0;
    /// Shard whose epoch close arrived last at the merger.
    std::size_t straggler_shard = 0;
    double first_close_ms = 0.0;
    double last_close_ms = 0.0;
    /// last_close_ms - first_close_ms: how long the merge frontier waited on
    /// the straggler after the first shard was ready.
    double straggle_ms = 0.0;
    /// When the merged row was published.
    double merge_ms = 0.0;
  };

  /// The attribution object of one copy of `stages_`.
  [[nodiscard]] json::Value attribution_of(
      const std::vector<StageAcc>& stages) const;

  std::size_t shard_count_;

  mutable std::mutex mu_;
  /// shard_count_ x kLagStageCount, row-major by shard.
  std::vector<StageAcc> stages_;
  std::deque<StragglerRow> stragglers_;
};

}  // namespace botmeter::obs
