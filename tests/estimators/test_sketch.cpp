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

TEST(KmvSketchTest, MergeAssociativeAndCommutative) {
  const std::vector<std::uint32_t> all = distinct_ids(3'000, 11);
  const auto make = [&](std::size_t begin, std::size_t end) {
    KmvSketch s(32);
    for (std::size_t i = begin; i < end; ++i) s.insert(all[i]);
    return s;
  };
  const KmvSketch a = make(0, 1'000);
  const KmvSketch b = make(1'000, 2'000);
  const KmvSketch c = make(2'000, 3'000);

  KmvSketch ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  KmvSketch a_bc = b;
  a_bc.merge(c);
  a_bc.merge(a);
  KmvSketch single = make(0, 3'000);

  EXPECT_EQ(json::write(ab_c.serialize()), json::write(a_bc.serialize()));
  EXPECT_EQ(json::write(ab_c.serialize()), json::write(single.serialize()));
}

TEST(KmvSketchTest, ShardSplitDeterminism) {
  // Split one stream across 4 "shards" by an arbitrary rule, merge — the
  // result must be bit-identical to a single-sketch pass, at any split.
  const std::vector<std::uint32_t> all = distinct_ids(4'000, 23);
  for (std::uint32_t shards : {2u, 4u}) {
    std::vector<KmvSketch> parts(shards, KmvSketch(64));
    for (std::size_t i = 0; i < all.size(); ++i) {
      parts[(all[i] >> 3) % shards].insert(all[i]);
    }
    KmvSketch merged = parts[0];
    for (std::uint32_t s = 1; s < shards; ++s) merged.merge(parts[s]);
    KmvSketch single(64);
    for (std::uint32_t id : all) single.insert(id);
    EXPECT_EQ(json::write(merged.serialize()), json::write(single.serialize()))
        << shards << " shards";
  }
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

TEST(KmvSketchTest, MergeRejectsMismatchedK) {
  KmvSketch a(32);
  const KmvSketch b(64);
  EXPECT_THROW(a.merge(b), ConfigError);
}

TEST(KmvSketchTest, RejectsTinyK) { EXPECT_THROW(KmvSketch(7), ConfigError); }

TEST(KmvSketchTest, MemoryConstantAfterConstruction) {
  KmvSketch sketch(128);
  const std::size_t at_birth = sketch.memory_bytes();
  for (std::uint32_t id : distinct_ids(50'000, 9)) sketch.insert(id);
  EXPECT_EQ(sketch.memory_bytes(), at_birth);
}

// --- count-min ---------------------------------------------------------------

TEST(CountMinSketchTest, NeverUnderestimatesAndBoundsOverestimate) {
  CountMinSketch sketch(4, 256);
  std::vector<std::uint64_t> truth(512, 0);
  std::mt19937 rng(29);
  for (int i = 0; i < 20'000; ++i) {
    const auto item = static_cast<std::uint32_t>(rng() % truth.size());
    sketch.add(item);
    ++truth[item];
  }
  EXPECT_EQ(sketch.total(), 20'000u);
  std::size_t over_bound = 0;
  const double allowance = sketch.epsilon() * static_cast<double>(sketch.total());
  for (std::uint32_t item = 0; item < truth.size(); ++item) {
    const std::uint64_t q = sketch.query(item);
    ASSERT_GE(q, truth[item]) << "count-min underestimated item " << item;
    if (static_cast<double>(q - truth[item]) > allowance) ++over_bound;
  }
  // The epsilon bound holds per query with probability >= 1 - e^-depth
  // (~98% at depth 4); allow a small tail.
  EXPECT_LE(over_bound, truth.size() / 10);
}

TEST(CountMinSketchTest, MergeEqualsConcatenatedStream) {
  CountMinSketch a(4, 64);
  CountMinSketch b(4, 64);
  CountMinSketch whole(4, 64);
  for (std::uint32_t i = 0; i < 1'000; ++i) {
    const std::uint32_t item = i * 2654435761u;
    (i % 2 == 0 ? a : b).add(item, 1 + i % 5);
    whole.add(item, 1 + i % 5);
  }
  a.merge(b);
  EXPECT_EQ(json::write(a.serialize()), json::write(whole.serialize()));
}

TEST(CountMinSketchTest, SerializeParseRoundTrip) {
  CountMinSketch sketch(3, 32);
  for (std::uint32_t i = 0; i < 500; ++i) sketch.add(i * 7919u, i % 3 + 1);
  const CountMinSketch reparsed = CountMinSketch::parse(sketch.serialize());
  EXPECT_EQ(json::write(sketch.serialize()), json::write(reparsed.serialize()));
  EXPECT_EQ(sketch.total(), reparsed.total());
}

TEST(CountMinSketchTest, RejectsBadShape) {
  EXPECT_THROW(CountMinSketch(0, 64), ConfigError);
  EXPECT_THROW(CountMinSketch(4, 63), ConfigError);  // not a power of two
  CountMinSketch a(4, 64);
  const CountMinSketch b(4, 128);
  EXPECT_THROW(a.merge(b), ConfigError);
}

}  // namespace
}  // namespace botmeter::estimators
