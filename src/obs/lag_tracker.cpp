#include "obs/lag_tracker.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace botmeter::obs {

namespace {

constexpr const char* kSchema = "botmeter.lag.v1";

constexpr LagStage kAllStages[kLagStageCount] = {
    LagStage::kProducerBatch, LagStage::kQueueWait, LagStage::kShardIngest,
    LagStage::kEpochClose, LagStage::kMergePublish};

}  // namespace

std::string_view lag_stage_name(LagStage stage) {
  switch (stage) {
    case LagStage::kProducerBatch:
      return "producer_batch";
    case LagStage::kQueueWait:
      return "queue_wait";
    case LagStage::kShardIngest:
      return "shard_ingest";
    case LagStage::kEpochClose:
      return "epoch_close";
    case LagStage::kMergePublish:
      return "merge_publish";
  }
  throw DataError("unknown LagStage ordinal");
}

const std::vector<double>& LagTracker::bounds() {
  // 0.01 ms .. ~42 s in x4 steps: sub-millisecond queue hops through
  // multi-second straggler waits land in distinct buckets.
  static const std::vector<double> kBounds = exponential_bounds(0.01, 4.0, 12);
  return kBounds;
}

LagTracker::LagTracker(std::size_t shard_count) : shard_count_(shard_count) {
  if (shard_count_ == 0) {
    throw ConfigError("LagTracker shard_count must be positive");
  }
  stages_.resize(shard_count_ * kLagStageCount);
  for (StageAcc& acc : stages_) {
    acc.buckets.assign(bounds().size() + 1, 0);
  }
}

void LagTracker::record(std::size_t shard, LagStage stage, double ms) {
  if (shard >= shard_count_) {
    throw ConfigError("LagTracker.record: shard index out of range");
  }
  const double clamped = ms < 0.0 ? 0.0 : ms;
  const std::vector<double>& b = bounds();
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(b.begin(), b.end(), clamped) - b.begin());
  std::lock_guard<std::mutex> lock(mu_);
  StageAcc& acc =
      stages_[shard * kLagStageCount + static_cast<std::size_t>(stage)];
  ++acc.count;
  acc.total_ms += clamped;
  acc.max_ms = std::max(acc.max_ms, clamped);
  ++acc.buckets[bucket];
}

void LagTracker::note_merge(std::int64_t epoch,
                            std::span<const std::optional<double>> closed_ms,
                            double now_ms) {
  StragglerRow row;
  row.epoch = epoch;
  row.merge_ms = now_ms;
  bool first = true;
  for (std::size_t shard = 0; shard < closed_ms.size(); ++shard) {
    if (!closed_ms[shard]) continue;
    const double close_ms = *closed_ms[shard];
    record(shard, LagStage::kMergePublish,
           now_ms > close_ms ? now_ms - close_ms : 0.0);
    if (first || close_ms < row.first_close_ms) row.first_close_ms = close_ms;
    if (first || close_ms > row.last_close_ms) {
      row.last_close_ms = close_ms;
      row.straggler_shard = shard;
    }
    first = false;
  }
  if (first) return;  // no timed arrival
  row.straggle_ms = row.last_close_ms - row.first_close_ms;
  std::lock_guard<std::mutex> lock(mu_);
  stragglers_.push_back(row);
  if (stragglers_.size() > kStragglerRows) stragglers_.pop_front();
}

json::Value LagTracker::attribution_of(
    const std::vector<StageAcc>& stages) const {
  using json::Value;
  std::vector<double> stage_total(kLagStageCount, 0.0);
  std::vector<double> shard_total(shard_count_, 0.0);
  std::uint64_t samples = 0;
  for (std::size_t shard = 0; shard < shard_count_; ++shard) {
    for (std::size_t s = 0; s < kLagStageCount; ++s) {
      const StageAcc& acc = stages[shard * kLagStageCount + s];
      stage_total[s] += acc.total_ms;
      shard_total[shard] += acc.total_ms;
      samples += acc.count;
    }
  }
  json::Object o;
  json::Object totals;
  for (std::size_t s = 0; s < kLagStageCount; ++s) {
    totals.emplace(std::string(lag_stage_name(kAllStages[s])),
                   Value(stage_total[s]));
  }
  o.emplace("stage_total_ms", Value(std::move(totals)));
  if (samples > 0) {
    const std::size_t stage_idx = static_cast<std::size_t>(
        std::max_element(stage_total.begin(), stage_total.end()) -
        stage_total.begin());
    o.emplace("slowest_stage",
              Value(std::string(lag_stage_name(kAllStages[stage_idx]))));
    o.emplace("slowest_stage_total_ms", Value(stage_total[stage_idx]));
    const std::size_t shard_idx = static_cast<std::size_t>(
        std::max_element(shard_total.begin(), shard_total.end()) -
        shard_total.begin());
    o.emplace("slowest_shard", Value(static_cast<double>(shard_idx)));
    o.emplace("slowest_shard_total_ms", Value(shard_total[shard_idx]));
  }
  return Value(std::move(o));
}

json::Value LagTracker::attribution_json() const {
  std::vector<StageAcc> stages;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stages = stages_;
  }
  return attribution_of(stages);
}

json::Value LagTracker::to_json() const {
  using json::Value;
  std::vector<StageAcc> stages;
  std::vector<StragglerRow> stragglers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stages = stages_;
    stragglers.assign(stragglers_.begin(), stragglers_.end());
  }

  json::Array bound_values;
  for (const double b : bounds()) bound_values.emplace_back(b);

  json::Array shard_rows;
  for (std::size_t shard = 0; shard < shard_count_; ++shard) {
    json::Object stage_objects;
    for (std::size_t s = 0; s < kLagStageCount; ++s) {
      const StageAcc& acc = stages[shard * kLagStageCount + s];
      json::Object stage;
      stage.emplace("count", Value(static_cast<double>(acc.count)));
      stage.emplace("total_ms", Value(acc.total_ms));
      stage.emplace("max_ms", Value(acc.max_ms));
      stage.emplace("mean_ms",
                    Value(acc.count > 0
                              ? acc.total_ms / static_cast<double>(acc.count)
                              : 0.0));
      json::Array buckets;
      for (const std::uint64_t c : acc.buckets) {
        buckets.emplace_back(static_cast<double>(c));
      }
      stage.emplace("buckets", Value(std::move(buckets)));
      stage_objects.emplace(std::string(lag_stage_name(kAllStages[s])),
                            Value(std::move(stage)));
    }
    json::Object row;
    row.emplace("shard", Value(static_cast<double>(shard)));
    row.emplace("stages", Value(std::move(stage_objects)));
    shard_rows.emplace_back(std::move(row));
  }

  json::Array straggler_rows;
  for (const StragglerRow& row : stragglers) {
    json::Object o;
    o.emplace("epoch", Value(static_cast<double>(row.epoch)));
    o.emplace("straggler_shard",
              Value(static_cast<double>(row.straggler_shard)));
    o.emplace("first_close_ms", Value(row.first_close_ms));
    o.emplace("last_close_ms", Value(row.last_close_ms));
    o.emplace("straggle_ms", Value(row.straggle_ms));
    o.emplace("merge_ms", Value(row.merge_ms));
    straggler_rows.emplace_back(std::move(o));
  }

  json::Object root;
  root.emplace("schema", Value(std::string(kSchema)));
  root.emplace("shard_count", Value(static_cast<double>(shard_count_)));
  root.emplace("bucket_bounds_ms", Value(std::move(bound_values)));
  root.emplace("shards", Value(std::move(shard_rows)));
  root.emplace("stragglers", Value(std::move(straggler_rows)));
  root.emplace("attribution", attribution_of(stages));
  return Value(std::move(root));
}

}  // namespace botmeter::obs
