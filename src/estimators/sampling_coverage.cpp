#include "estimators/sampling_coverage.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/logmath.hpp"

namespace botmeter::estimators {

namespace {

/// The closed form E[C | N] = ceiling * (1 - (1 - q)^N), inverted.
double invert_sampling_coverage(double observed, double q, double ceiling) {
  if (observed <= 0.0) return 0.0;
  // Saturated coverage: every (detected) NXD was seen; the inversion
  // diverges, so report the largest population distinguishable at this
  // coverage resolution (within half a domain of the ceiling).
  if (observed >= ceiling - 0.5) {
    return std::log(0.5 / ceiling) / std::log1p(-q);
  }
  return std::log1p(-observed / ceiling) / std::log1p(-q);
}

}  // namespace

double SamplingCoverageEstimator::per_bot_nxd_probability(
    const dga::DgaConfig& config) {
  const double nxds = config.nxd_count;
  const double pool = config.pool_size();
  const std::uint32_t draws = std::min(config.barrel_size, config.pool_size());

  // E[X] = sum_k P(X >= k); running product of (theta_0 - j)/(P - j).
  double expected_nxd_queries = 0.0;
  if (config.stop_on_hit) {
    double survive = 1.0;  // P(first k-1 draws all NXD)
    for (std::uint32_t k = 1; k <= draws; ++k) {
      const double j = static_cast<double>(k - 1);
      survive *= (nxds - j) / (pool - j);
      if (survive <= 0.0) break;
      expected_nxd_queries += survive;
    }
  } else {
    // Without stop-on-hit the bot queries its whole barrel; expected NXDs
    // among theta_q uniform draws without replacement.
    expected_nxd_queries = static_cast<double>(draws) * nxds / pool;
  }
  return expected_nxd_queries / nxds;
}

IntervalEstimate SamplingCoverageEstimator::fit(
    const ObservationContext& context, double observed, const KmvSketch* kmv,
    double level) const {
  if (!applicable(*context.config)) {
    throw ConfigError("SamplingCoverageEstimator: requires the sampling barrel");
  }
  IntervalEstimate result;
  result.level = level;
  if (observed <= 0.0) return result;

  const double q = per_bot_nxd_probability(*context.config);
  if (!(q > 0.0)) throw ConfigError("SamplingCoverageEstimator: q must be > 0");
  const double keep =
      context.assumed_miss_rate ? (1.0 - *context.assumed_miss_rate) : 1.0;
  const double ceiling = static_cast<double>(context.config->nxd_count) * keep;
  result.value = invert_sampling_coverage(observed, q, ceiling);
  // An exact count, or a KMV still holding every distinct position (an
  // integer-exact count), gives the exact bits and no band.
  if (kmv == nullptr || !kmv->saturated()) return result;

  result.approximate = true;
  result.sketch_rse = kmv->relative_error();
  // Propagate the KMV standard error through the monotone inversion: the
  // distinct count is observed * (1 +/- rse), so the population band is the
  // closed form evaluated at the +/- z-sigma coverage bounds.
  const double z = normal_quantile(0.5 + level / 2.0);
  const double lo_cov =
      std::max(observed * (1.0 - z * result.sketch_rse), 0.0);
  const double hi_cov = observed * (1.0 + z * result.sketch_rse);
  result.interval = {invert_sampling_coverage(lo_cov, q, ceiling),
                     invert_sampling_coverage(hi_cov, q, ceiling)};
  return result;
}

double SamplingCoverageEstimator::estimate(const EpochObservation& obs) const {
  obs.validate();
  return fit(obs, static_cast<double>(count_distinct_nxds(obs))).value;
}

CompactSupport SamplingCoverageEstimator::compact_support() const {
  CompactSupport support;
  support.supported = true;
  support.needs_distinct = true;
  return support;
}

IntervalEstimate SamplingCoverageEstimator::estimate_with_interval(
    const CompactObservation& obs, double level) const {
  check_level(level);
  obs.validate();
  const KmvSketch* kmv = obs.cell->distinct_nxd();
  if (kmv == nullptr) {
    throw ConfigError(
        "SamplingCoverageEstimator: compact cell lacks the distinct-NXD sketch");
  }
  return fit(obs, kmv->estimate(), kmv, level);
}

}  // namespace botmeter::estimators
