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

LagStageSample LagTracker::stage_sample(std::size_t shard,
                                        LagStage stage) const {
  if (shard >= shard_count_) {
    throw ConfigError("LagTracker.stage_sample: shard index out of range");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const StageAcc& acc =
      stages_[shard * kLagStageCount + static_cast<std::size_t>(stage)];
  LagStageSample sample;
  sample.count = acc.count;
  sample.total_ms = acc.total_ms;
  sample.max_ms = acc.max_ms;
  sample.bucket_counts = acc.buckets;
  return sample;
}

std::vector<StragglerRow> LagTracker::stragglers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {stragglers_.begin(), stragglers_.end()};
}

LagAttribution LagTracker::attribution() const {
  std::lock_guard<std::mutex> lock(mu_);
  LagAttribution out;
  out.stage_total_ms.assign(kLagStageCount, 0.0);
  std::vector<double> shard_total(shard_count_, 0.0);
  for (std::size_t shard = 0; shard < shard_count_; ++shard) {
    for (std::size_t s = 0; s < kLagStageCount; ++s) {
      const StageAcc& acc = stages_[shard * kLagStageCount + s];
      out.stage_total_ms[s] += acc.total_ms;
      shard_total[shard] += acc.total_ms;
    }
  }
  std::uint64_t samples = 0;
  for (const StageAcc& acc : stages_) samples += acc.count;
  if (samples == 0) return out;
  const std::size_t stage_idx = static_cast<std::size_t>(
      std::max_element(out.stage_total_ms.begin(), out.stage_total_ms.end()) -
      out.stage_total_ms.begin());
  out.slowest_stage = kAllStages[stage_idx];
  out.slowest_stage_total_ms = out.stage_total_ms[stage_idx];
  const std::size_t shard_idx = static_cast<std::size_t>(
      std::max_element(shard_total.begin(), shard_total.end()) -
      shard_total.begin());
  out.slowest_shard = shard_idx;
  out.slowest_shard_total_ms = shard_total[shard_idx];
  return out;
}

json::Value LagTracker::attribution_json() const {
  using json::Value;
  const LagAttribution a = attribution();
  json::Object o;
  json::Object totals;
  for (std::size_t s = 0; s < kLagStageCount; ++s) {
    totals.emplace(std::string(lag_stage_name(kAllStages[s])),
                   Value(a.stage_total_ms[s]));
  }
  o.emplace("stage_total_ms", Value(std::move(totals)));
  if (a.slowest_stage) {
    o.emplace("slowest_stage",
              Value(std::string(lag_stage_name(*a.slowest_stage))));
    o.emplace("slowest_stage_total_ms", Value(a.slowest_stage_total_ms));
  }
  if (a.slowest_shard) {
    o.emplace("slowest_shard",
              Value(static_cast<double>(*a.slowest_shard)));
    o.emplace("slowest_shard_total_ms", Value(a.slowest_shard_total_ms));
  }
  return Value(std::move(o));
}

json::Value LagTracker::to_json() const {
  using json::Value;
  json::Array bound_values;
  for (const double b : bounds()) bound_values.push_back(Value(b));

  json::Array shard_rows;
  for (std::size_t shard = 0; shard < shard_count_; ++shard) {
    json::Object stages;
    for (std::size_t s = 0; s < kLagStageCount; ++s) {
      const LagStageSample sample = stage_sample(shard, kAllStages[s]);
      json::Object stage;
      stage.emplace("count", Value(static_cast<double>(sample.count)));
      stage.emplace("total_ms", Value(sample.total_ms));
      stage.emplace("max_ms", Value(sample.max_ms));
      stage.emplace("mean_ms",
                    Value(sample.count > 0
                              ? sample.total_ms /
                                    static_cast<double>(sample.count)
                              : 0.0));
      json::Array buckets;
      for (const std::uint64_t c : sample.bucket_counts) {
        buckets.push_back(Value(static_cast<double>(c)));
      }
      stage.emplace("buckets", Value(std::move(buckets)));
      stages.emplace(std::string(lag_stage_name(kAllStages[s])),
                     Value(std::move(stage)));
    }
    json::Object row;
    row.emplace("shard", Value(static_cast<double>(shard)));
    row.emplace("stages", Value(std::move(stages)));
    shard_rows.push_back(Value(std::move(row)));
  }

  json::Array straggler_rows;
  for (const StragglerRow& row : stragglers()) {
    json::Object o;
    o.emplace("epoch", Value(static_cast<double>(row.epoch)));
    o.emplace("straggler_shard",
              Value(static_cast<double>(row.straggler_shard)));
    o.emplace("first_close_ms", Value(row.first_close_ms));
    o.emplace("last_close_ms", Value(row.last_close_ms));
    o.emplace("straggle_ms", Value(row.straggle_ms));
    o.emplace("merge_ms", Value(row.merge_ms));
    straggler_rows.push_back(Value(std::move(o)));
  }

  json::Object root;
  root.emplace("schema", Value(std::string(kSchema)));
  root.emplace("shard_count", Value(static_cast<double>(shard_count_)));
  root.emplace("bucket_bounds_ms", Value(std::move(bound_values)));
  root.emplace("shards", Value(std::move(shard_rows)));
  root.emplace("stragglers", Value(std::move(straggler_rows)));
  root.emplace("attribution", attribution_json());
  return Value(std::move(root));
}

}  // namespace botmeter::obs
