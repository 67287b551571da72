#include "estimators/sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"

namespace botmeter::estimators {
namespace {

std::vector<std::uint32_t> distinct_ids(std::size_t count, std::uint32_t seed) {
  // Scatter the ids so hash order has nothing to do with numeric order.
  std::vector<std::uint32_t> ids(count);
  for (std::size_t i = 0; i < count; ++i) {
    ids[i] = static_cast<std::uint32_t>(i * 2654435761u + seed);
  }
  return ids;
}

// --- KMV ---------------------------------------------------------------------

TEST(KmvSketchTest, ExactWhileUnsaturated) {
  KmvSketch sketch(64);
  const std::vector<std::uint32_t> ids = distinct_ids(63, 1);
  for (std::uint32_t id : ids) sketch.insert(id);
  for (std::uint32_t id : ids) sketch.insert(id);  // duplicates are no-ops

  EXPECT_FALSE(sketch.saturated());
  EXPECT_EQ(sketch.estimate(), 63.0);
  EXPECT_EQ(sketch.relative_error(), 0.0);

  // While exact the survivors are the full distinct set.
  std::vector<std::uint32_t> survivors = sketch.values();
  std::vector<std::uint32_t> expected = ids;
  std::sort(survivors.begin(), survivors.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(survivors, expected);
}

TEST(KmvSketchTest, SaturatedEstimateWithinErrorBound) {
  constexpr std::uint32_t kK = 256;
  constexpr std::size_t kDistinct = 20'000;
  KmvSketch sketch(kK);
  for (std::uint32_t id : distinct_ids(kDistinct, 7)) sketch.insert(id);

  EXPECT_TRUE(sketch.saturated());
  EXPECT_DOUBLE_EQ(sketch.relative_error(), 1.0 / std::sqrt(kK - 2.0));
  // 5 standard errors is a ~1e-6 flake probability.
  EXPECT_NEAR(sketch.estimate(), static_cast<double>(kDistinct),
              5.0 * sketch.relative_error() * kDistinct);
}

TEST(KmvSketchTest, InsertionOrderInvariant) {
  const std::vector<std::uint32_t> ids = distinct_ids(5'000, 3);
  std::vector<std::uint32_t> shuffled = ids;
  std::mt19937 rng(17);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);

  KmvSketch forward(64);
  KmvSketch permuted(64);
  for (std::uint32_t id : ids) forward.insert(id);
  for (std::uint32_t id : shuffled) permuted.insert(id);
  EXPECT_EQ(json::write(forward.serialize()), json::write(permuted.serialize()));
}

TEST(KmvSketchTest, SerializeParseRoundTrip) {
  for (std::size_t count : {std::size_t{10}, std::size_t{5'000}}) {
    KmvSketch sketch(64);
    for (std::uint32_t id : distinct_ids(count, 5)) sketch.insert(id);
    const KmvSketch reparsed = KmvSketch::parse(sketch.serialize());
    EXPECT_EQ(json::write(sketch.serialize()),
              json::write(reparsed.serialize()));
    EXPECT_EQ(sketch.saturated(), reparsed.saturated());
    EXPECT_EQ(sketch.estimate(), reparsed.estimate());
  }
}

TEST(KmvSketchTest, RejectsTinyK) { EXPECT_THROW(KmvSketch(7), ConfigError); }

TEST(KmvSketchTest, MemoryConstantAfterConstruction) {
  KmvSketch sketch(128);
  const std::size_t at_birth = sketch.memory_bytes();
  for (std::uint32_t id : distinct_ids(50'000, 9)) sketch.insert(id);
  EXPECT_EQ(sketch.memory_bytes(), at_birth);
}

}  // namespace
}  // namespace botmeter::estimators
