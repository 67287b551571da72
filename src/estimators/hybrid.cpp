#include "estimators/hybrid.hpp"

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

}  // namespace botmeter::estimators
