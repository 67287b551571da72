// The Bernoulli estimator M_B (§IV-D, Fig. 5, Theorem 1).
//
// For the randomcut barrel A_R each bot picks a uniformly random start on
// the pool circle and walks clockwise for up to theta_q domains, stopping at
// the first arc boundary (valid domain). M_B inverts collective NXD
// statistics of the population; it uses no per-lookup temporal traits, which
// is why it is robust to caching TTLs and activation-rate dynamics
// (Fig. 6(c), (d)) but sensitive to the D3 detection window (Fig. 6(e)).
//
// Three methods are provided:
//
//  - kAdaptive (default, registered as "bernoulli"): inverts the exact
//    closed-form expected distinct-NXD coverage
//        E[C | N] = sum_d (1 - (1 - min(a_d, theta_q)/P)^N)
//    while the coverage is informative. Once the pool saturates (C close to
//    its ceiling the coverage count carries almost no information about N —
//    with theta_E arcs the uncovered mass is dominated by theta_E arc
//    prefixes, bounding any coverage-only estimator to ~1/sqrt(theta_E)
//    relative error), it refines via the cache-filtered *forwarded lookup
//    count*: under negative TTL delta_l, lookups of NXD d forwarded to the
//    border form a renewal process with
//        E[F | N] = sum_d N p_d / (1 + N p_d delta_l / delta_e),
//    which keeps resolving N far past coverage saturation.
//  - kCoverageInversion ("bernoulli-coverage"): the pure coverage inversion,
//    wholly immune to caching and timing; kept for ablation.
//  - kSegmentExpectation ("bernoulli-segment"): the paper's per-segment
//    formulation (Theorem 1). Each observed segment L contributes the
//    expected number of bots required to cover it, evaluated with a
//    Poissonized start field (intensity mu = N/P per position); the circular
//    dependence on N is resolved by fixed-point iteration.
//
// No method corrects for D3 misses unless the analyst supplies
// EpochObservation::assumed_miss_rate (extension; the paper runs
// uncorrected, which is exactly why M_B degrades in Fig. 6(e)).
#pragma once

#include <optional>

#include "estimators/estimator.hpp"

namespace botmeter::estimators {

enum class BernoulliMethod {
  kAdaptive,
  kCoverageInversion,
  kSegmentExpectation,
};

class BernoulliEstimator final : public Estimator {
 public:
  explicit BernoulliEstimator(BernoulliMethod method = BernoulliMethod::kAdaptive);

  [[nodiscard]] std::string_view name() const override;

  [[nodiscard]] bool applicable(const dga::DgaConfig& config) const override {
    return config.taxonomy.barrel == dga::BarrelModel::kRandomCut;
  }

  [[nodiscard]] double estimate(const EpochObservation& obs) const override;

  /// Confidence interval by parametric bootstrap: the statistic the active
  /// method inverted (distinct coverage, or forwarded count at saturation)
  /// is re-simulated under the point estimate to measure its spread, and
  /// the +/- z * sd band is pushed back through the inversion. Deterministic
  /// given the observation. The segment method returns the point only.
  [[nodiscard]] IntervalEstimate estimate_with_interval(
      const EpochObservation& obs, double level = 0.9) const override;

  /// The coverage/forward statistics are sufficient for the adaptive and
  /// coverage methods, so both run from a compact cell (distinct NXDs via
  /// KMV, forwarded counts exact). The segment method reads individual pool
  /// positions and has no compact path.
  [[nodiscard]] CompactSupport compact_support() const override;

  /// Compact-path estimate. Bit-identical to the exact path while the KMV
  /// sketch is unsaturated; past saturation the estimate is flagged
  /// approximate and the bootstrap band is widened by the sketch's
  /// distinct-count standard error before the inversion.
  [[nodiscard]] IntervalEstimate estimate_with_interval(
      const CompactObservation& obs, double level = 0.9) const override;

  /// E[C | N]: expected distinct observed NXDs for a population of `n`
  /// (fractional n allowed). If `miss_rate` is set, the expectation is of
  /// the *detected* coverage. Exposed for tests and benches.
  [[nodiscard]] static double expected_coverage(
      const dga::EpochPool& pool, const dga::DgaConfig& config, double n,
      std::optional<double> miss_rate);

  /// Invert expected_coverage at `observed` distinct NXDs by bisection.
  [[nodiscard]] static double invert_coverage(const dga::EpochPool& pool,
                                              const dga::DgaConfig& config,
                                              double observed,
                                              std::optional<double> miss_rate);

  /// E[F | N]: expected cache-filtered NXD lookups forwarded to the border
  /// during one epoch under negative TTL `negative_ttl`.
  [[nodiscard]] static double expected_forward_count(
      const dga::EpochPool& pool, const dga::DgaConfig& config, double n,
      Duration negative_ttl, Duration epoch_length,
      std::optional<double> miss_rate);

  /// Invert expected_forward_count at `observed` forwarded NXD lookups.
  [[nodiscard]] static double invert_forward_count(
      const dga::EpochPool& pool, const dga::DgaConfig& config, double observed,
      Duration negative_ttl, Duration epoch_length,
      std::optional<double> miss_rate);

 private:
  [[nodiscard]] double estimate_by_segments(const EpochObservation& obs) const;

  /// The one interval path of the coverage and adaptive methods, for either
  /// observation form: the form only decides the sufficient statistic (an
  /// exact count, or a KMV sketch that stays integer-exact until it
  /// saturates).
  template <typename Observation>
  [[nodiscard]] IntervalEstimate coverage_interval(const Observation& obs,
                                                   double level) const;

  BernoulliMethod method_;
};

}  // namespace botmeter::estimators
