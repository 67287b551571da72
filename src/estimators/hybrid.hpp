// Hybrid estimator (paper future-work #1: "combining temporal and semantic
// traits of DNS lookups to develop more effective bot population
// estimators").
//
// A weighted blend of a semantic model (coverage/segment statistics) and a
// temporal model (timing/poisson). The weight may be fixed or left to the
// default, which leans on the semantic side — the paper's experiments show
// semantic statistics are the more robust signal. bench_ablation_estimators
// sweeps the weight.
//
// A hybrid has no compact path (the base class answers "unsupported"). The
// temporal side of every hybrid in use is Timing, which needs individual
// lookups; a pair with two compact paths would need Poisson and a coverage
// model on one barrel, and those models apply to different barrels.
#pragma once

#include <memory>
#include <string>

#include "estimators/estimator.hpp"

namespace botmeter::estimators {

class HybridEstimator final : public Estimator {
 public:
  /// Blend `semantic` and `temporal` as w * semantic + (1-w) * temporal.
  /// Both estimators must outlive the hybrid if passed by reference; the
  /// owning constructor is preferred.
  HybridEstimator(std::unique_ptr<Estimator> semantic,
                  std::unique_ptr<Estimator> temporal,
                  double semantic_weight = 0.7);

  [[nodiscard]] std::string_view name() const override { return name_; }

  /// Applicable wherever both components are.
  [[nodiscard]] bool applicable(const dga::DgaConfig& config) const override;

  [[nodiscard]] double estimate(const EpochObservation& obs) const override;

 private:
  std::unique_ptr<Estimator> semantic_;
  std::unique_ptr<Estimator> temporal_;
  double weight_;
  std::string name_;
};

}  // namespace botmeter::estimators
