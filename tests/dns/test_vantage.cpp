#include "dns/vantage.hpp"

#include <gtest/gtest.h>

namespace botmeter::dns {
namespace {

TEST(VantagePointTest, RecordsTuplesInArrivalOrder) {
  VantagePoint vantage;
  vantage.record(TimePoint{100}, ServerId{1}, "a.com");
  vantage.record(TimePoint{50}, ServerId{2}, "b.com");
  ASSERT_EQ(vantage.size(), 2u);
  EXPECT_EQ(vantage.stream()[0],
            (ForwardedLookup{TimePoint{100}, ServerId{1}, "a.com"}));
  EXPECT_EQ(vantage.stream()[1],
            (ForwardedLookup{TimePoint{50}, ServerId{2}, "b.com"}));
}

TEST(VantagePointTest, ExactTimestampsByDefault) {
  VantagePoint vantage;
  vantage.record(TimePoint{1234}, ServerId{0}, "a.com");
  EXPECT_EQ(vantage.stream()[0].timestamp.millis(), 1234);
}

TEST(VantagePointTest, GranularityQuantizesDown) {
  VantagePoint vantage{seconds(1)};
  vantage.record(TimePoint{1999}, ServerId{0}, "a.com");
  vantage.record(TimePoint{2000}, ServerId{0}, "b.com");
  EXPECT_EQ(vantage.stream()[0].timestamp.millis(), 1000);
  EXPECT_EQ(vantage.stream()[1].timestamp.millis(), 2000);
}

TEST(VantagePointTest, TakeDrainsAndResets) {
  VantagePoint vantage;
  vantage.record(TimePoint{1}, ServerId{0}, "a.com");
  auto stream = vantage.take();
  EXPECT_EQ(stream.size(), 1u);
  EXPECT_EQ(vantage.size(), 0u);
  // Recording continues to work after a drain.
  vantage.record(TimePoint{2}, ServerId{0}, "b.com");
  EXPECT_EQ(vantage.size(), 1u);
}

TEST(VantagePointTest, ClearDiscards) {
  VantagePoint vantage;
  vantage.record(TimePoint{1}, ServerId{0}, "a.com");
  vantage.clear();
  EXPECT_EQ(vantage.size(), 0u);
}

TEST(VantagePointTest, SinkReceivesQuantizedTuplesInOrderWithoutBuffering) {
  VantagePoint vantage{seconds(1)};
  std::vector<ForwardedLookup> tapped;
  vantage.set_sink([&tapped](const ForwardedLookup& l) { tapped.push_back(l); });
  EXPECT_TRUE(vantage.has_sink());

  vantage.record(TimePoint{1999}, ServerId{1}, "a.com");
  vantage.record(TimePoint{2000}, ServerId{2}, "b.com");

  // The tap sees exactly the stream a batch caller would: quantised
  // timestamps, arrival order — and nothing accumulates internally.
  ASSERT_EQ(tapped.size(), 2u);
  EXPECT_EQ(tapped[0], (ForwardedLookup{TimePoint{1000}, ServerId{1}, "a.com"}));
  EXPECT_EQ(tapped[1], (ForwardedLookup{TimePoint{2000}, ServerId{2}, "b.com"}));
  EXPECT_EQ(vantage.size(), 0u);

  // Removing the sink returns to batch buffering.
  vantage.set_sink(nullptr);
  EXPECT_FALSE(vantage.has_sink());
  vantage.record(TimePoint{3000}, ServerId{0}, "c.com");
  EXPECT_EQ(vantage.size(), 1u);
  EXPECT_EQ(tapped.size(), 2u);
}

TEST(ForwardedLookupTest, EqualityIsFieldwise) {
  const ForwardedLookup a{TimePoint{1}, ServerId{2}, "x.com"};
  EXPECT_EQ(a, (ForwardedLookup{TimePoint{1}, ServerId{2}, "x.com"}));
  EXPECT_NE(a, (ForwardedLookup{TimePoint{2}, ServerId{2}, "x.com"}));
  EXPECT_NE(a, (ForwardedLookup{TimePoint{1}, ServerId{3}, "x.com"}));
  EXPECT_NE(a, (ForwardedLookup{TimePoint{1}, ServerId{2}, "y.com"}));
}

}  // namespace
}  // namespace botmeter::dns
