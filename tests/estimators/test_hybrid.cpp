#include "estimators/hybrid.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "dga/families.hpp"
#include "estimators/bernoulli.hpp"
#include "estimators/library.hpp"
#include "estimators/timing.hpp"
#include "support/compact_twin.hpp"
#include "support/observation_factory.hpp"

namespace botmeter::estimators {
namespace {

std::unique_ptr<HybridEstimator> make_hybrid(double weight) {
  return std::make_unique<HybridEstimator>(
      std::make_unique<BernoulliEstimator>(), std::make_unique<TimingEstimator>(),
      weight);
}

TEST(HybridTest, NameReflectsComponents) {
  EXPECT_EQ(make_hybrid(0.7)->name(), "hybrid(bernoulli+timing)");
}

TEST(HybridTest, ApplicableWhereBothComponentsAre) {
  const auto hybrid = make_hybrid(0.5);
  EXPECT_TRUE(hybrid->applicable(dga::newgoz_config()));    // A_R: both apply
  EXPECT_FALSE(hybrid->applicable(dga::murofet_config()));  // bernoulli no
}

TEST(HybridTest, WeightValidation) {
  EXPECT_THROW(make_hybrid(-0.1), ConfigError);
  EXPECT_THROW(make_hybrid(1.1), ConfigError);
  EXPECT_THROW(HybridEstimator(nullptr, std::make_unique<TimingEstimator>()),
               ConfigError);
  EXPECT_THROW(HybridEstimator(std::make_unique<BernoulliEstimator>(), nullptr),
               ConfigError);
}

TEST(HybridTest, WeightsInterpolateComponents) {
  botnet::SimulationConfig config;
  config.dga = dga::newgoz_config();
  config.bot_count = 32;
  config.timestamp_granularity = milliseconds(100);
  config.seed = 17;
  testing::ObservationFactory factory(config);
  const EpochObservation& obs = factory.observations()[0];

  const BernoulliEstimator bernoulli;
  const TimingEstimator timing;
  const double b = bernoulli.estimate(obs);
  const double t = timing.estimate(obs);

  EXPECT_NEAR(make_hybrid(1.0)->estimate(obs), b, 1e-9);
  EXPECT_NEAR(make_hybrid(0.0)->estimate(obs), t, 1e-9);
  EXPECT_NEAR(make_hybrid(0.6)->estimate(obs), 0.6 * b + 0.4 * t, 1e-9);
}

TEST(HybridTest, ReasonableAccuracyOnRandomCut) {
  const auto hybrid = make_hybrid(0.7);
  RunningStats errors;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    botnet::SimulationConfig config;
    config.dga = dga::newgoz_config();
    config.bot_count = 64;
    config.timestamp_granularity = milliseconds(100);
    config.seed = seed;
    testing::ObservationFactory factory(config);
    errors.add(absolute_relative_error(
        hybrid->estimate(factory.observations()[0]), 64.0));
  }
  EXPECT_LT(errors.mean(), 0.30);
}

TEST(HybridTest, InapplicableFamilyThrows) {
  botnet::SimulationConfig config;
  config.dga = dga::murofet_config();
  config.bot_count = 4;
  config.seed = 5;
  testing::ObservationFactory factory(config);
  EXPECT_THROW((void)make_hybrid(0.5)->estimate(factory.observations()[0]),
               ConfigError);
}

TEST(HybridTest, LibraryHybridHasNoCompactPath) {
  // The library's hybrid pairs Bernoulli with Timing, and Timing needs
  // individual lookups: the hybrid reports no compact support, and a compact
  // cell is refused with the base class's error.
  const ModelLibrary library;
  const Estimator& hybrid = library.get("hybrid(bernoulli+timing)");
  const CompactSupport support = hybrid.compact_support();
  EXPECT_FALSE(support.supported);
  EXPECT_FALSE(support.needs_distinct);
  EXPECT_FALSE(support.needs_time_slots);

  botnet::SimulationConfig config;
  config.dga = dga::newgoz_config();
  config.bot_count = 8;
  config.seed = 5;
  testing::ObservationFactory factory(config);
  const testing::CompactTwin twin(factory.observations()[0],
                                  BernoulliEstimator().compact_support(),
                                  CompactObservationConfig{});
  try {
    (void)hybrid.estimate_with_interval(twin.obs, 0.9);
    ADD_FAILURE() << "a compact cell must be refused";
  } catch (const ConfigError& e) {
    EXPECT_EQ(std::string(e.what()),
              "hybrid(bernoulli+timing): no compact observation path "
              "(compact_support() is false for this model)");
  }
}

}  // namespace
}  // namespace botmeter::estimators
