// The Poisson estimator M_P (§IV-C, Fig. 4, Eqn 1).
//
// Under the uniform barrel A_U every bot issues the *same* lookup train, so
// negative caching makes all but the first activation in each TTL window
// invisible. M_P therefore models activations as a Poisson process, reads
// the average activation rate off the waiting gaps {Delta_i} between the end
// of one negative-TTL window and the next visible activation, and
// reconstitutes the masked activations:
//
//   E(lambda) = n / sum(Delta_i)
//   E(N)      = E(lambda) * sum(Delta_i + delta_l) = n + n^2 * delta_l / sum(Delta_i)
//
// Delta_1 is the elapse from the start of the observation window to the
// first visible activation (footnote 2 of the paper). This implementation
// replaces the rate MLE n/sum(Delta) with the unbiased (n-1)/sum(Delta) —
// identical at scale but without the MLE's unbounded small-sample moments —
// and merges boundary-leakage bursts so the visible activations obey the
// renewal structure of Fig. 4 (see the .cpp for both derivations).
#pragma once

#include <optional>
#include <vector>

#include "estimators/estimator.hpp"

namespace botmeter::estimators {

class PoissonEstimator final : public Estimator {
 public:
  PoissonEstimator() = default;

  [[nodiscard]] std::string_view name() const override { return "poisson"; }

  /// The masking argument requires identical barrels, i.e. the uniform
  /// barrel model.
  [[nodiscard]] bool applicable(const dga::DgaConfig& config) const override {
    return config.taxonomy.barrel == dga::BarrelModel::kUniform;
  }

  [[nodiscard]] double estimate(const EpochObservation& obs) const override;

  /// Exact confidence interval: the n waiting gaps are i.i.d. Exp(lambda),
  /// so 2 * lambda * sum(Delta) ~ chi^2(2n); the rate interval maps through
  /// E(N) = lambda * (sum(Delta) + n * delta_l). Requires n >= 2 visible
  /// activations; otherwise only the point estimate is returned.
  [[nodiscard]] IntervalEstimate estimate_with_interval(
      const EpochObservation& obs, double level = 0.9) const override;

  /// The visible-activation instants extracted by burst clustering —
  /// exposed for tests.
  [[nodiscard]] static std::vector<TimePoint> visible_activations(
      const EpochObservation& obs);

  /// The slotted NXD timestamps of a compact cell carry the activation
  /// structure: slots are half the minimum kept-activation spacing wide, so
  /// every kept activation owns its slot and the slot-minimum timestamps
  /// reconstruct the visible-activation sequence to within one slot width.
  [[nodiscard]] CompactSupport compact_support() const override;

  /// Compact-path estimate: the same burst clustering and gap-sum estimator
  /// over the slot-minimum pseudo-stream. Always flagged approximate — the
  /// gap sum is only known to within n * slot_width — with the chi-square
  /// interval evaluated at the perturbed gap-sum bounds (the estimate is
  /// decreasing in the gap sum, so the low bound uses sum + n * w and the
  /// high bound sum - n * w).
  [[nodiscard]] IntervalEstimate estimate_with_interval(
      const CompactObservation& obs, double level = 0.9) const override;

  /// The pseudo-activation instants read off a compact cell's slot grid,
  /// by the same clustering.
  [[nodiscard]] static std::vector<TimePoint> visible_activations(
      const CompactObservation& obs);

 private:
  /// The one core of both forms: Eqn 1 over `activations` and, when `level`
  /// is set, the chi-square band evaluated at the gap sums
  /// max(sum - n * w, 1) and sum + n * w, where w = `slot_w_ms` is the
  /// timestamp error of one activation (0 on an exact cell).
  [[nodiscard]] static IntervalEstimate fit(
      const std::vector<TimePoint>& activations,
      const ObservationContext& context, double slot_w_ms,
      std::optional<double> level);
};

}  // namespace botmeter::estimators
