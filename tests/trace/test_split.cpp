// Trace splitting: cutting a union binary border trace into per-vantage
// sub-streams must preserve tuples and order (re-framed per output), and
// must be loud about unrouted servers.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "botnet/simulator.hpp"
#include "cluster/shard_router.hpp"
#include "common/error.hpp"
#include "dga/families.hpp"
#include "trace/block.hpp"
#include "trace/split.hpp"

namespace botmeter::trace {
namespace {

constexpr std::size_t kServers = 6;

std::vector<dns::ForwardedLookup> simulate_stream(std::uint64_t seed) {
  botnet::SimulationConfig sim;
  sim.dga = dga::newgoz_config();
  sim.bot_count = 12;
  sim.server_count = kServers;
  sim.epoch_count = 2;
  sim.seed = seed;
  sim.record_raw = false;
  return botnet::simulate(sim).observable;
}

std::vector<std::vector<dns::ForwardedLookup>> route_subsets(
    std::span<const dns::ForwardedLookup> stream,
    const cluster::ShardRouter& router) {
  std::vector<std::vector<dns::ForwardedLookup>> subsets(router.shard_count());
  for (const dns::ForwardedLookup& lookup : stream) {
    subsets[router.shard_of(lookup.forwarder.value())].push_back(lookup);
  }
  return subsets;
}

TEST(TraceSplitTest, BlockSplitRoundTripsEachRoutedSubset) {
  const auto stream = simulate_stream(92);
  const cluster::ShardRouter router = cluster::ShardRouter::by_range(kServers, 2);

  std::ostringstream union_os;
  write_blocks(union_os, stream, 64);  // several small input blocks

  std::ostringstream a, b;
  std::ostream* outs[] = {&a, &b};
  std::istringstream union_is(union_os.str());
  const SplitCounts counts = split_blocks(
      union_is, outs, [&router](std::uint32_t s) { return router.shard_of(s); },
      128);

  const auto subsets = route_subsets(stream, router);
  EXPECT_EQ(counts.total(), stream.size());
  const std::ostringstream* streams[] = {&a, &b};
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(counts.tuples[i], subsets[i].size());
    std::istringstream sub(streams[i]->str());
    // Tuples and order survive the re-framing and fresh interning lineage.
    EXPECT_EQ(read_blocks(sub), subsets[i]);
  }
}

TEST(TraceSplitTest, RejectsUnroutedServersAndEmptyOutputs) {
  std::ostringstream binary_os;
  write_blocks(binary_os, simulate_stream(93));
  {
    // Route every tuple out of range.
    std::ostringstream only;
    std::ostream* one_out[] = {&only};
    std::istringstream is(binary_os.str());
    EXPECT_THROW((void)split_blocks(
                     is, one_out, [](std::uint32_t) { return std::size_t{7}; }),
                 DataError);
  }
  {
    std::istringstream is(binary_os.str());
    EXPECT_THROW((void)split_blocks(
                     is, {}, [](std::uint32_t) { return std::size_t{0}; }),
                 ConfigError);
  }
}

}  // namespace
}  // namespace botmeter::trace
