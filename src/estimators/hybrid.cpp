#include "estimators/hybrid.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace botmeter::estimators {

HybridEstimator::HybridEstimator(std::unique_ptr<Estimator> semantic,
                                 std::unique_ptr<Estimator> temporal,
                                 double semantic_weight)
    : semantic_(std::move(semantic)),
      temporal_(std::move(temporal)),
      weight_(semantic_weight) {
  if (semantic_ == nullptr || temporal_ == nullptr) {
    throw ConfigError("HybridEstimator: both components are required");
  }
  if (weight_ < 0.0 || weight_ > 1.0) {
    throw ConfigError("HybridEstimator: weight must be in [0,1]");
  }
  name_ = "hybrid(" + std::string(semantic_->name()) + "+" +
          std::string(temporal_->name()) + ")";
}

bool HybridEstimator::applicable(const dga::DgaConfig& config) const {
  return semantic_->applicable(config) && temporal_->applicable(config);
}

double HybridEstimator::estimate(const EpochObservation& obs) const {
  obs.validate();
  if (!applicable(*obs.config)) {
    throw ConfigError("HybridEstimator: components not applicable to this family");
  }
  const double semantic = semantic_->estimate(obs);
  const double temporal = temporal_->estimate(obs);
  return weight_ * semantic + (1.0 - weight_) * temporal;
}

CompactSupport HybridEstimator::compact_support() const {
  const CompactSupport semantic = semantic_->compact_support();
  const CompactSupport temporal = temporal_->compact_support();
  if (!semantic.supported || !temporal.supported) return {};
  CompactSupport support;
  support.supported = true;
  support.needs_distinct = semantic.needs_distinct || temporal.needs_distinct;
  support.needs_time_slots =
      semantic.needs_time_slots || temporal.needs_time_slots;
  return support;
}

IntervalEstimate HybridEstimator::estimate_with_interval(
    const CompactObservation& obs, double level) const {
  if (!compact_support().supported) {
    return Estimator::estimate_with_interval(obs, level);  // throws
  }
  obs.validate();
  if (!applicable(*obs.config)) {
    throw ConfigError("HybridEstimator: components not applicable to this family");
  }
  const IntervalEstimate semantic =
      semantic_->estimate_with_interval(obs, level);
  const IntervalEstimate temporal =
      temporal_->estimate_with_interval(obs, level);
  IntervalEstimate result;
  result.level = level;
  result.value = weight_ * semantic.value + (1.0 - weight_) * temporal.value;
  result.approximate = semantic.approximate || temporal.approximate;
  result.sketch_rse = std::max(semantic.sketch_rse, temporal.sketch_rse);
  if (semantic.interval && temporal.interval) {
    result.interval = {
        weight_ * semantic.interval->first +
            (1.0 - weight_) * temporal.interval->first,
        weight_ * semantic.interval->second +
            (1.0 - weight_) * temporal.interval->second};
  }
  return result;
}

}  // namespace botmeter::estimators
