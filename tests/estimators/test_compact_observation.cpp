#include "estimators/compact_observation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "dga/families.hpp"
#include "estimators/bernoulli.hpp"
#include "estimators/poisson.hpp"
#include "estimators/timing.hpp"
#include "support/observation_factory.hpp"

namespace botmeter::estimators {
namespace {

CompactObservationConfig small_config(std::uint32_t kmv_k) {
  CompactObservationConfig config;
  config.kmv_k = kmv_k;
  return config;
}

/// Build the compact twin of an exact observation: derive the cell spec for
/// the estimator's needs, fold every matched lookup in, and share the
/// analyst-side context pointers.
struct CompactTwin {
  CompactTwin(const EpochObservation& exact, const CompactSupport& support,
              const CompactObservationConfig& config)
      : cell(make_compact_spec(config, support, exact.window_start,
                               exact.window_length, exact.ttl)) {
    cell.add_all(exact.lookups);
    obs.cell = &cell;
    obs.config = exact.config;
    obs.pool = exact.pool;
    obs.window = exact.window;
    obs.ttl = exact.ttl;
    obs.window_start = exact.window_start;
    obs.window_length = exact.window_length;
    obs.assumed_miss_rate = exact.assumed_miss_rate;
  }

  CompactCell cell;
  CompactObservation obs;
};

botnet::SimulationConfig newgoz_sim(std::uint32_t bots, std::uint64_t seed) {
  botnet::SimulationConfig config;
  config.dga = dga::newgoz_config();
  config.bot_count = bots;
  config.timestamp_granularity = milliseconds(100);
  config.seed = seed;
  return config;
}

TEST(CompactSpecTest, StructuresFollowEstimatorSupport) {
  const CompactObservationConfig config = small_config(64);
  CompactSupport distinct_only;
  distinct_only.supported = true;
  distinct_only.needs_distinct = true;
  const CompactCellSpec spec = make_compact_spec(
      config, distinct_only, TimePoint{0}, days(1), dns::TtlPolicy{});
  EXPECT_EQ(spec.kmv_k, 64u);
  EXPECT_EQ(spec.slot_count, 0u);
  EXPECT_EQ(spec.window_ms, days(1).millis());

  CompactSupport slotted;
  slotted.supported = true;
  slotted.needs_time_slots = true;
  const CompactCellSpec slots = make_compact_spec(
      config, slotted, TimePoint{0}, days(1), dns::TtlPolicy{});
  EXPECT_EQ(slots.kmv_k, 0u);
  EXPECT_GT(slots.slot_count, 0u);
  EXPECT_LE(slots.slot_count, kMaxTimeSlots);
  // Slot width must keep two kept activations (>= delta_l - slack apart)
  // from sharing a slot.
  const CompactCell cell(slots);
  const std::int64_t delta_l = dns::TtlPolicy{}.negative.millis();
  EXPECT_LT(2 * cell.slot_width().millis(), delta_l);

  EXPECT_THROW((void)make_compact_spec(config, distinct_only, TimePoint{0},
                                       Duration{0}, dns::TtlPolicy{}),
               ConfigError);
}

TEST(CompactSpecTest, SlotCountClampedToConfiguredMaximum) {
  // A 10 s negative TTL makes 3.75 s slots: 7 days would need 161,280.
  CompactSupport slotted;
  slotted.supported = true;
  slotted.needs_time_slots = true;
  dns::TtlPolicy ttl;
  ttl.negative = seconds(10);
  const CompactCellSpec spec = make_compact_spec(
      small_config(64), slotted, TimePoint{0}, days(7), ttl);
  EXPECT_EQ(spec.slot_count, kMaxTimeSlots);
}

class CompactCellTest : public ::testing::Test {
 protected:
  CompactCellTest() : factory_(newgoz_sim(48, 21)) {}

  const EpochObservation& exact() const { return factory_.observations()[0]; }

  CompactSupport bernoulli_support() const {
    return BernoulliEstimator().compact_support();
  }

  testing::ObservationFactory factory_;
};

TEST_F(CompactCellTest, ScalarsMatchTheBufferedStream) {
  const CompactTwin twin(exact(), bernoulli_support(), small_config(4096));
  const auto& lookups = exact().lookups;
  ASSERT_FALSE(lookups.empty());

  EXPECT_EQ(twin.cell.matched(), lookups.size());
  std::uint64_t nxd = 0;
  std::int64_t first = lookups.front().t.millis();
  std::int64_t last = first;
  for (const auto& lookup : lookups) {
    if (!lookup.is_valid_domain) ++nxd;
    first = std::min(first, lookup.t.millis());
    last = std::max(last, lookup.t.millis());
  }
  EXPECT_EQ(twin.cell.nxd_lookups(), nxd);
  EXPECT_EQ(twin.cell.valid_lookups(), lookups.size() - nxd);
  ASSERT_TRUE(twin.cell.first_t().has_value());
  EXPECT_EQ(twin.cell.first_t()->millis(), first);
  EXPECT_EQ(twin.cell.last_t()->millis(), last);
}

TEST_F(CompactCellTest, InsertionOrderInvariant) {
  const CompactTwin forward(exact(), bernoulli_support(), small_config(32));
  std::vector<detect::MatchedLookup> shuffled = exact().lookups;
  std::mt19937 rng(41);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  CompactCell permuted(forward.cell.spec());
  for (const auto& lookup : shuffled) permuted.add(lookup);
  EXPECT_EQ(json::write(forward.cell.serialize()),
            json::write(permuted.serialize()));
}

TEST_F(CompactCellTest, MemoryConstantWhileFilling) {
  CompactCell cell(
      CompactTwin(exact(), bernoulli_support(), small_config(32)).cell.spec());
  const std::size_t at_birth = cell.memory_bytes();
  cell.add_all(exact().lookups);
  EXPECT_EQ(cell.memory_bytes(), at_birth);
}

TEST_F(CompactCellTest, SerializeParseRoundTrip) {
  for (std::uint32_t kmv_k : {32u, 4096u}) {  // saturated and exact regimes
    const CompactTwin twin(exact(), bernoulli_support(), small_config(kmv_k));
    const CompactCell reparsed = CompactCell::parse(twin.cell.serialize());
    EXPECT_EQ(json::write(twin.cell.serialize()),
              json::write(reparsed.serialize()));
    EXPECT_EQ(reparsed.matched(), twin.cell.matched());
  }
}

TEST_F(CompactCellTest, ValidateRejectsGeometryMismatch) {
  CompactTwin twin(exact(), bernoulli_support(), small_config(32));
  twin.obs.validate();
  CompactObservation skewed = twin.obs;
  skewed.window_start = twin.obs.window_start + hours(1);
  EXPECT_THROW(skewed.validate(), ConfigError);
}

// --- estimator consumption ---------------------------------------------------

TEST_F(CompactCellTest, BernoulliExactRegimeIsBitIdentical) {
  // Below KMV saturation the cell carries the full distinct set, so the
  // compact path must reproduce the exact path bit for bit, unflagged.
  const BernoulliEstimator estimator;
  const CompactTwin twin(exact(), bernoulli_support(), small_config(65536));
  ASSERT_FALSE(twin.cell.distinct_nxd()->saturated());

  const IntervalEstimate from_exact = estimator.estimate_with_interval(exact());
  const IntervalEstimate from_compact =
      estimator.estimate_with_interval(twin.obs);
  EXPECT_EQ(from_compact.value, from_exact.value);
  ASSERT_EQ(from_compact.interval.has_value(), from_exact.interval.has_value());
  if (from_exact.interval) {
    EXPECT_EQ(from_compact.interval->first, from_exact.interval->first);
    EXPECT_EQ(from_compact.interval->second, from_exact.interval->second);
  }
  EXPECT_FALSE(from_compact.approximate);
  EXPECT_EQ(from_compact.sketch_rse, 0.0);
}

TEST_F(CompactCellTest, BernoulliSaturatedRegimeIsFlagged) {
  const BernoulliEstimator estimator;
  const CompactTwin twin(exact(), bernoulli_support(), small_config(32));
  ASSERT_TRUE(twin.cell.distinct_nxd()->saturated());

  const IntervalEstimate estimate = estimator.estimate_with_interval(twin.obs);
  EXPECT_TRUE(estimate.approximate);
  EXPECT_DOUBLE_EQ(estimate.sketch_rse, 1.0 / std::sqrt(30.0));
  ASSERT_TRUE(estimate.interval.has_value());
  EXPECT_LE(estimate.interval->first, estimate.value);
  EXPECT_GE(estimate.interval->second, estimate.value);
  // Accuracy degrades gracefully: within a few sketch standard errors of
  // the exact-path estimate.
  const double exact_value = estimator.estimate(exact());
  EXPECT_NEAR(estimate.value, exact_value,
              5.0 * estimate.sketch_rse * exact_value);
}

TEST_F(CompactCellTest, TimingHasNoCompactPath) {
  const TimingEstimator estimator;
  EXPECT_FALSE(estimator.compact_support().supported);
  const CompactTwin twin(exact(), bernoulli_support(), small_config(32));
  EXPECT_THROW((void)estimator.estimate_with_interval(twin.obs), ConfigError);
}

TEST(CompactPoissonTest, AlwaysFlaggedApproximate) {
  botnet::SimulationConfig sim;
  sim.dga = dga::murofet_config();
  sim.bot_count = 64;
  sim.seed = 11;
  const testing::ObservationFactory factory(sim);
  const EpochObservation& exact = factory.observations()[0];

  const PoissonEstimator estimator;
  const CompactSupport support = estimator.compact_support();
  ASSERT_TRUE(support.supported);
  ASSERT_TRUE(support.needs_time_slots);
  const CompactTwin twin(exact, support, small_config(64));

  const IntervalEstimate from_compact =
      estimator.estimate_with_interval(twin.obs);
  EXPECT_TRUE(from_compact.approximate);
  EXPECT_GT(from_compact.sketch_rse, 0.0);
  // The slot grid keeps every kept activation distinct, so the point
  // estimate tracks the exact path closely.
  const double exact_value = estimator.estimate(exact);
  EXPECT_NEAR(from_compact.value, exact_value, 0.05 * exact_value + 1e-9);
}

}  // namespace
}  // namespace botmeter::estimators
