// Tests for the confidence-interval extension: exact chi-square intervals
// for the Poisson estimator, parametric-bootstrap intervals for the
// Bernoulli estimator, and the default point-only behaviour elsewhere.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/error.hpp"
#include "dga/families.hpp"
#include "estimators/bernoulli.hpp"
#include "estimators/context.hpp"
#include "estimators/poisson.hpp"
#include "estimators/sampling_coverage.hpp"
#include "estimators/timing.hpp"
#include "support/observation_factory.hpp"

namespace botmeter::estimators {
namespace {

botnet::SimulationConfig sim_config(dga::DgaConfig dga_config,
                                    std::uint32_t bots, std::uint64_t seed) {
  botnet::SimulationConfig config;
  config.dga = std::move(dga_config);
  config.bot_count = bots;
  config.seed = seed;
  config.record_raw = false;
  return config;
}

TEST(IntervalDefaultTest, TimingReturnsPointOnly) {
  testing::ObservationFactory factory(
      sim_config(dga::murofet_config(), 16, 3));
  const TimingEstimator timing;
  const IntervalEstimate estimate =
      timing.estimate_with_interval(factory.observations()[0]);
  EXPECT_FALSE(estimate.interval.has_value());
  EXPECT_DOUBLE_EQ(estimate.value,
                   timing.estimate(factory.observations()[0]));
}

TEST(PoissonIntervalTest, BracketsPointEstimate) {
  testing::ObservationFactory factory(
      sim_config(dga::murofet_config(), 64, 5));
  const PoissonEstimator poisson;
  const IntervalEstimate estimate =
      poisson.estimate_with_interval(factory.observations()[0]);
  ASSERT_TRUE(estimate.interval.has_value());
  EXPECT_LE(estimate.interval->first, estimate.value);
  EXPECT_GE(estimate.interval->second, estimate.value);
  EXPECT_GT(estimate.interval->first, 0.0);
}

TEST(PoissonIntervalTest, CoversTruthMostOfTheTime) {
  // Nominal 90%; demand >= 60% over 15 seeds to stay robust to the model's
  // approximations (burst extraction, non-Poisson arrival conditioning).
  const PoissonEstimator poisson;
  int covered = 0;
  const int trials = 15;
  for (int t = 0; t < trials; ++t) {
    testing::ObservationFactory factory(sim_config(
        dga::murofet_config(), 64, 100 + static_cast<std::uint64_t>(t)));
    const IntervalEstimate estimate =
        poisson.estimate_with_interval(factory.observations()[0]);
    ASSERT_TRUE(estimate.interval.has_value());
    if (estimate.interval->first <= 64.0 && 64.0 <= estimate.interval->second) {
      ++covered;
    }
  }
  EXPECT_GE(covered, 9) << covered << "/" << trials;
}

TEST(PoissonIntervalTest, HigherLevelWiderInterval) {
  testing::ObservationFactory factory(
      sim_config(dga::murofet_config(), 64, 7));
  const PoissonEstimator poisson;
  const auto narrow =
      poisson.estimate_with_interval(factory.observations()[0], 0.5);
  const auto wide =
      poisson.estimate_with_interval(factory.observations()[0], 0.99);
  ASSERT_TRUE(narrow.interval && wide.interval);
  EXPECT_LT(narrow.interval->second - narrow.interval->first,
            wide.interval->second - wide.interval->first);
}

TEST(PoissonIntervalTest, PointOnlyWhenRateUnmeasurable) {
  // Empty observation: no visible activations, no interval.
  testing::ObservationFactory factory(
      sim_config(dga::murofet_config(), 4, 9));
  EpochObservation obs = factory.observations()[0];
  obs.lookups.clear();
  const PoissonEstimator poisson;
  const IntervalEstimate estimate = poisson.estimate_with_interval(obs);
  EXPECT_DOUBLE_EQ(estimate.value, 0.0);
  EXPECT_FALSE(estimate.interval.has_value());
}

TEST(PoissonIntervalTest, InvalidLevelRejected) {
  testing::ObservationFactory factory(
      sim_config(dga::murofet_config(), 8, 11));
  const PoissonEstimator poisson;
  EXPECT_THROW((void)poisson.estimate_with_interval(factory.observations()[0],
                                                    0.0),
               ConfigError);
  EXPECT_THROW((void)poisson.estimate_with_interval(factory.observations()[0],
                                                    1.0),
               ConfigError);
}

TEST(BernoulliIntervalTest, BracketsPointEstimateUnsaturated) {
  // N=16 keeps newGoZ unsaturated: the coverage-statistic bootstrap runs.
  testing::ObservationFactory factory(sim_config(dga::newgoz_config(), 16, 5));
  const BernoulliEstimator bernoulli;
  const IntervalEstimate estimate =
      bernoulli.estimate_with_interval(factory.observations()[0]);
  ASSERT_TRUE(estimate.interval.has_value());
  EXPECT_LE(estimate.interval->first, estimate.value * 1.001);
  EXPECT_GE(estimate.interval->second, estimate.value * 0.999);
}

TEST(BernoulliIntervalTest, BracketsPointEstimateSaturated) {
  // N=256 saturates newGoZ: the forwarded-count bootstrap runs.
  testing::ObservationFactory factory(sim_config(dga::newgoz_config(), 256, 5));
  const BernoulliEstimator bernoulli;
  const IntervalEstimate estimate =
      bernoulli.estimate_with_interval(factory.observations()[0]);
  ASSERT_TRUE(estimate.interval.has_value());
  EXPECT_LE(estimate.interval->first, estimate.value * 1.001);
  EXPECT_GE(estimate.interval->second, estimate.value * 0.999);
}

TEST(BernoulliIntervalTest, CoversTruthMostOfTheTime) {
  const BernoulliEstimator bernoulli;
  int covered = 0;
  const int trials = 12;
  for (int t = 0; t < trials; ++t) {
    testing::ObservationFactory factory(sim_config(
        dga::newgoz_config(), 64, 200 + static_cast<std::uint64_t>(t)));
    const IntervalEstimate estimate =
        bernoulli.estimate_with_interval(factory.observations()[0]);
    ASSERT_TRUE(estimate.interval.has_value());
    if (estimate.interval->first <= 64.0 && 64.0 <= estimate.interval->second) {
      ++covered;
    }
  }
  EXPECT_GE(covered, 7) << covered << "/" << trials;
}

TEST(BernoulliIntervalTest, DeterministicBootstrap) {
  testing::ObservationFactory factory(sim_config(dga::newgoz_config(), 32, 5));
  const BernoulliEstimator bernoulli;
  const auto a = bernoulli.estimate_with_interval(factory.observations()[0]);
  const auto b = bernoulli.estimate_with_interval(factory.observations()[0]);
  ASSERT_TRUE(a.interval && b.interval);
  EXPECT_DOUBLE_EQ(a.interval->first, b.interval->first);
  EXPECT_DOUBLE_EQ(a.interval->second, b.interval->second);
}

// Exact bits of the Bernoulli interval path and the sampling-coverage point,
// as hex floats. Any rewrite of the bootstrap, the distinct-NXD count or the
// matcher must reproduce them: the bootstrap's RNG stream, its per-resample
// statistic and the inversions are all pinned here, with and without a
// shared EstimationContext.
struct PinnedCell {
  std::uint32_t bots;
  BernoulliMethod method;
  bool assume_miss;  // assumed_miss_rate 0.3, else unset
  double value;
  double lo;
  double hi;
};

std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", x);
  return buf;
}

TEST(BernoulliIntervalTest, BitsPinnedAtParent) {
  // newGoZ at N in {1, 3, 20, 200}, both methods, assumed miss unset or 0.3.
  // The one combination left out, coverage inversion at N=200 with the
  // assumed miss, saturates its statistic at the population cap. Adaptive
  // N=20 with the miss and adaptive N=200 run the forwarded-count
  // bootstrap; every other cell runs the coverage one.
  constexpr PinnedCell kCells[] = {
      {1, BernoulliMethod::kAdaptive, false,
       0x1.214fb96ap+0, 0x1.75409bccp-1, 0x1.8a109242p+0},
      {1, BernoulliMethod::kCoverageInversion, false,
       0x1.214fb96ap+0, 0x1.75409bccp-1, 0x1.8a109242p+0},
      {1, BernoulliMethod::kAdaptive, true,
       0x1.a267b236p+0, 0x1.c7d77c1cp-1, 0x1.34104496p+1},
      {1, BernoulliMethod::kCoverageInversion, true,
       0x1.a267b236p+0, 0x1.c7d77c1cp-1, 0x1.34104496p+1},
      {3, BernoulliMethod::kAdaptive, false,
       0x1.794a2082p+1, 0x1.05fdc9aep+1, 0x1.f1ed2da4p+1},
      {3, BernoulliMethod::kCoverageInversion, false,
       0x1.794a2082p+1, 0x1.05fdc9aep+1, 0x1.f1ed2da4p+1},
      {3, BernoulliMethod::kAdaptive, true,
       0x1.16af4976p+2, 0x1.91cbd9bep+1, 0x1.69675042p+2},
      {3, BernoulliMethod::kCoverageInversion, true,
       0x1.16af4976p+2, 0x1.91cbd9bep+1, 0x1.69675042p+2},
      {20, BernoulliMethod::kAdaptive, false,
       0x1.25243fbep+4, 0x1.c5a44a7ep+3, 0x1.780c2d76p+4},
      {20, BernoulliMethod::kCoverageInversion, false,
       0x1.25243fbep+4, 0x1.c5a44a7ep+3, 0x1.780c2d76p+4},
      {20, BernoulliMethod::kAdaptive, true,
       0x1.dce70dbcp+4, 0x1.a4341e7ep+4, 0x1.0b81663ep+5},
      {20, BernoulliMethod::kCoverageInversion, true,
       0x1.2d840b66p+5, 0x1.c9fb3156p+4, 0x1.ab963c1ap+5},
      {200, BernoulliMethod::kAdaptive, false,
       0x1.9af2fbb6p+7, 0x1.7cd8801ep+7, 0x1.bb1199d6p+7},
      {200, BernoulliMethod::kCoverageInversion, false,
       0x1.c4265b32p+7, 0x1.0b7cf336p+7, 0x1.69f48bb2p+9},
      {200, BernoulliMethod::kAdaptive, true,
       0x1.b2b9a666p+8, 0x1.94b74d3ep+8, 0x1.d36fcd36p+8},
  };
  for (const PinnedCell& cell : kCells) {
    testing::ObservationFactory factory(
        sim_config(dga::newgoz_config(), cell.bots, 5), 0.0,
        cell.assume_miss ? std::optional<double>(0.3) : std::nullopt);
    const BernoulliEstimator estimator(cell.method);
    for (const bool shared : {false, true}) {
      EpochObservation obs = factory.observations()[0];
      EstimationContext context;
      if (shared) obs.context = &context;
      const IntervalEstimate estimate = estimator.estimate_with_interval(obs, 0.9);
      ASSERT_TRUE(estimate.interval.has_value());
      SCOPED_TRACE(::testing::Message()
                   << "N=" << cell.bots << " method=" << estimator.name()
                   << " miss=" << cell.assume_miss << " context=" << shared
                   << " got {" << hex(estimate.value) << ", "
                   << hex(estimate.interval->first) << ", "
                   << hex(estimate.interval->second) << "}");
      EXPECT_EQ(hex(estimate.value), hex(cell.value));
      EXPECT_EQ(hex(estimate.interval->first), hex(cell.lo));
      EXPECT_EQ(hex(estimate.interval->second), hex(cell.hi));
    }
  }

  testing::ObservationFactory conficker(
      sim_config(dga::conficker_c_config(), 20, 5));
  const SamplingCoverageEstimator sampling;
  const double point = sampling.estimate(conficker.observations()[0]);
  EXPECT_EQ(hex(point), hex(0x1.41df92e6a35eep+4));
}

TEST(BernoulliIntervalTest, SaturatedCellPublishesPointWithoutBand) {
  // An analyst TTL longer than the network's: every NXD forwarded 30 times
  // in the epoch, while a 60-minute negative TTL allows at most 24. The
  // forwarded count passes the renewal ceiling, so the adaptive method's
  // inversion returns the population cap. A bootstrap at the cap would
  // re-simulate millions of bots; the cell carries the point alone.
  testing::ObservationFactory factory(sim_config(dga::newgoz_config(), 1, 3));
  EpochObservation obs = factory.observations()[0];
  obs.ttl.negative = minutes(60);
  const dga::EpochPool& pool = *obs.pool;
  constexpr std::int64_t kForwardsPerNxd = 30;
  obs.lookups.clear();
  for (std::int64_t k = 0; k < kForwardsPerNxd; ++k) {
    const TimePoint t{obs.window_start.millis() +
                      k * (obs.window_length.millis() / kForwardsPerNxd)};
    for (std::uint32_t pos = 0; pos < pool.size(); ++pos) {
      if (!pool.is_valid_position(pos)) obs.lookups.push_back({t, pos, false});
    }
  }
  const BernoulliEstimator bernoulli;
  for (const bool shared : {false, true}) {
    EpochObservation cell = obs;
    EstimationContext context;
    if (shared) cell.context = &context;
    const IntervalEstimate estimate = bernoulli.estimate_with_interval(cell, 0.9);
    EXPECT_EQ(estimate.value, 1e8);
    EXPECT_FALSE(estimate.interval.has_value());
  }
}

TEST(BernoulliIntervalTest, SegmentMethodPointOnly) {
  testing::ObservationFactory factory(sim_config(dga::newgoz_config(), 16, 5));
  const BernoulliEstimator segment(BernoulliMethod::kSegmentExpectation);
  const IntervalEstimate estimate =
      segment.estimate_with_interval(factory.observations()[0]);
  EXPECT_FALSE(estimate.interval.has_value());
}

}  // namespace
}  // namespace botmeter::estimators
