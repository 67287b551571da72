// Coverage estimator for the sampling barrel (extension).
//
// The paper evaluates only the Timing estimator on A_S (§V-A); its
// future-work list asks for "more effective bot population estimators"
// combining semantic traits. This model fills that gap: under A_S each bot
// queries a random sequence of distinct pool domains until its first C2
// hit, so the marginal probability q that one bot queries a specific NXD is
// identical across NXDs and exactly computable:
//
//   P(X >= k) = prod_{j<k} (theta_0 - j) / (P - j)   (first k draws all NXD)
//   E[X]      = sum_{k=1..theta_q} P(X >= k),   q = E[X] / theta_0
//   E[C | N]  = theta_0 * (1 - (1 - q)^N)
//
// which inverts in closed form at the observed distinct-NXD count. Like the
// Bernoulli estimator it uses no temporal traits (immune to caching and rate
// dynamics) and is uncorrected for D3 misses unless told the miss rate.
//
// The permutation barrel A_P is deliberately NOT covered: there q =
// E[X]/theta_0 = 1/(theta_E + 1) regardless of pool size, so the coverage
// ceiling is reached by a handful of bots and the statistic carries no
// population signal — A_P stays with the Timing estimator, as in the paper.
#pragma once

#include <optional>

#include "estimators/estimator.hpp"

namespace botmeter::estimators {

class SamplingCoverageEstimator final : public Estimator {
 public:
  SamplingCoverageEstimator() = default;

  [[nodiscard]] std::string_view name() const override {
    return "sampling-coverage";
  }

  [[nodiscard]] bool applicable(const dga::DgaConfig& config) const override {
    return config.taxonomy.barrel == dga::BarrelModel::kSampling;
  }

  [[nodiscard]] double estimate(const EpochObservation& obs) const override;

  /// The closed-form inversion needs only the distinct-NXD count, so the KMV
  /// sketch is a sufficient compact statistic.
  [[nodiscard]] CompactSupport compact_support() const override;

  /// Compact-path estimate: bit-identical to the exact path while the KMV
  /// sketch is unsaturated (and, like the exact path, interval-free there);
  /// once saturated the estimate is flagged approximate and the closed form
  /// is inverted at distinct * (1 -/+ z * rse) to produce a propagated
  /// confidence band.
  [[nodiscard]] IntervalEstimate estimate_with_interval(
      const CompactObservation& obs, double level = 0.9) const override;

  /// Marginal probability that one bot queries a given NXD. Exposed for
  /// tests.
  [[nodiscard]] static double per_bot_nxd_probability(const dga::DgaConfig& config);

 private:
  /// The one core of both forms: invert `observed` distinct NXDs. `kmv` is
  /// the sketch the count came from (null for an exact count); a band at
  /// `level` is added only when that sketch has saturated. A zero count is
  /// 0 before q is computed.
  [[nodiscard]] IntervalEstimate fit(const ObservationContext& context,
                                     double observed,
                                     const KmvSketch* kmv = nullptr,
                                     double level = 0.9) const;
};

}  // namespace botmeter::estimators
