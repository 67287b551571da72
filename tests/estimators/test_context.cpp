// EstimationContext semantics: tables build exactly once, memoized scalars
// and intervals hit on repeated keys and miss on new ones, counters report
// what happened, and wiring a context into a real estimator leaves its
// output bit-identical while turning duplicate observations into hits.
#include "estimators/context.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "botnet/simulator.hpp"
#include "dga/families.hpp"
#include "estimators/bernoulli.hpp"
#include "support/observation_factory.hpp"

namespace botmeter::estimators {
namespace {

TEST(EstimationContextTest, TableBuildsExactlyOnce) {
  EstimationContext context;
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return std::make_unique<std::vector<double>>(std::vector<double>{1.0, 2.0});
  };
  const std::vector<double>& first = context.table<std::vector<double>>("t", build);
  const std::vector<double>& second = context.table<std::vector<double>>("t", build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(context.tables_built(), 1u);

  (void)context.table<std::vector<double>>("other", build);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(context.tables_built(), 2u);
}

TEST(EstimationContextTest, MemoizedScalarHitsOnRepeatedKey) {
  EstimationContext context;
  int evals = 0;
  const auto eval = [&] {
    ++evals;
    return 42.5;
  };
  EXPECT_EQ(context.memoized("inv", 3.0, eval), 42.5);
  EXPECT_EQ(context.memoized("inv", 3.0, eval), 42.5);
  EXPECT_EQ(evals, 1);
  EXPECT_EQ(context.memo_misses(), 1u);
  EXPECT_EQ(context.memo_hits(), 1u);

  // New statistic, new eval; a different key namespace is independent too.
  EXPECT_EQ(context.memoized("inv", 4.0, eval), 42.5);
  EXPECT_EQ(evals, 2);
  EXPECT_EQ(context.memoized("inv2", 3.0, eval), 42.5);
  EXPECT_EQ(evals, 3);
  EXPECT_EQ(context.memo_misses(), 3u);
}

TEST(EstimationContextTest, TwoArgumentScalarKeysAreDistinct) {
  EstimationContext context;
  int evals = 0;
  const auto eval = [&] { return static_cast<double>(++evals); };
  EXPECT_EQ(context.memoized("q", 0.05, 2.0, eval), 1.0);
  EXPECT_EQ(context.memoized("q", 0.05, 4.0, eval), 2.0);
  EXPECT_EQ(context.memoized("q", 0.95, 2.0, eval), 3.0);
  EXPECT_EQ(context.memoized("q", 0.05, 2.0, eval), 1.0);  // hit
  EXPECT_EQ(evals, 3);
}

TEST(EstimationContextTest, MemoizedIntervalRoundTrips) {
  EstimationContext context;
  int evals = 0;
  const std::array<double, 4> stat{12.0, 30.0, 120.0, 0.9};
  const auto eval = [&] {
    ++evals;
    IntervalEstimate e;
    e.value = 17.25;
    e.interval = {10.0, 25.5};
    e.level = 0.9;
    return e;
  };
  const IntervalEstimate first = context.memoized_interval("b", stat, eval);
  const IntervalEstimate again = context.memoized_interval("b", stat, eval);
  EXPECT_EQ(evals, 1);
  EXPECT_EQ(again.value, first.value);
  ASSERT_TRUE(again.interval.has_value());
  EXPECT_EQ(again.interval->first, 10.0);
  EXPECT_EQ(again.interval->second, 25.5);

  std::array<double, 4> other = stat;
  other[0] += 1.0;
  (void)context.memoized_interval("b", other, eval);
  EXPECT_EQ(evals, 2);
}

TEST(EstimationContextTest, ConcurrentMemoizationIsConsistent) {
  // Many threads racing on the same key: one miss, everyone reads the same
  // value, and hits + misses account for every call.
  EstimationContext context;
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 50;
  std::vector<std::thread> threads;
  std::vector<double> results(kThreads, 0.0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&context, &results, t] {
      double last = 0.0;
      for (int i = 0; i < kCallsPerThread; ++i) {
        last = context.memoized("race", 7.0, [] { return 99.0; });
      }
      results[static_cast<std::size_t>(t)] = last;
    });
  }
  for (std::thread& t : threads) t.join();
  for (const double r : results) EXPECT_EQ(r, 99.0);
  EXPECT_EQ(context.memo_hits() + context.memo_misses(),
            static_cast<std::uint64_t>(kThreads) * kCallsPerThread);
  // At least one eval happened; duplicates may race before the first insert
  // lands, but pure functions make every insert byte-identical.
  EXPECT_GE(context.memo_misses(), 1u);
  EXPECT_GT(context.memo_hits(), 0u);
}

TEST(EstimationContextTest, BernoulliEstimatesAreBitIdenticalWithContext) {
  botnet::SimulationConfig sim;
  sim.dga = dga::newgoz_config();
  sim.bot_count = 24;
  sim.server_count = 1;
  sim.epoch_count = 1;
  sim.seed = 21;
  sim.record_raw = false;
  testing::ObservationFactory factory(sim);
  ASSERT_FALSE(factory.observations().empty());

  BernoulliEstimator estimator;
  EstimationContext context;
  for (const EpochObservation& original : factory.observations()) {
    EpochObservation obs = original;
    obs.context = nullptr;
    const IntervalEstimate bare = estimator.estimate_with_interval(obs, 0.9);
    obs.context = &context;
    const IntervalEstimate cached = estimator.estimate_with_interval(obs, 0.9);
    EXPECT_EQ(cached.value, bare.value);
    ASSERT_EQ(cached.interval.has_value(), bare.interval.has_value());
    if (bare.interval) {
      EXPECT_EQ(cached.interval->first, bare.interval->first);
      EXPECT_EQ(cached.interval->second, bare.interval->second);
    }
  }
  EXPECT_GT(context.tables_built(), 0u);

  // The whole-interval memo fires on a repeated observation: same epoch,
  // same sufficient statistic — zero extra misses.
  const std::uint64_t misses = context.memo_misses();
  EpochObservation repeat = factory.observations().front();
  repeat.context = &context;
  (void)estimator.estimate_with_interval(repeat, 0.9);
  EXPECT_EQ(context.memo_misses(), misses);
  EXPECT_GT(context.memo_hits(), 0u);
}

}  // namespace
}  // namespace botmeter::estimators
