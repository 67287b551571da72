// ShardRouter: the server-ownership map must be total, balanced,
// invertible (local_index / servers_of agree), loud on every out-of-range
// query, and exactly round-trippable through the checkpoint envelope
// serialisation, which holds one form.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/shard_router.hpp"
#include "common/error.hpp"
#include "common/json.hpp"

namespace botmeter::cluster {
namespace {

TEST(ShardRouterTest, RangePartitionIsBalancedAndContiguous) {
  const ShardRouter router = ShardRouter::by_range(10, 3);
  EXPECT_EQ(router.server_count(), 10u);
  EXPECT_EQ(router.shard_count(), 3u);

  // 10 over 3: widths 4, 3, 3 — the first extra server goes to shard 0.
  EXPECT_EQ(router.servers_of(0), (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(router.servers_of(1), (std::vector<std::uint32_t>{4, 5, 6}));
  EXPECT_EQ(router.servers_of(2), (std::vector<std::uint32_t>{7, 8, 9}));

  // Every server owned by exactly one shard, addressed by its rank.
  for (std::uint32_t server = 0; server < 10; ++server) {
    const std::size_t shard = router.shard_of(server);
    const std::uint32_t local = router.local_index(server);
    EXPECT_EQ(router.servers_of(shard)[local], server);
  }
}

TEST(ShardRouterTest, SingleShardOwnsEverything) {
  const ShardRouter router = ShardRouter::by_range(5, 1);
  EXPECT_EQ(router.servers_of(0).size(), 5u);
  for (std::uint32_t s = 0; s < 5; ++s) {
    EXPECT_EQ(router.shard_of(s), 0u);
    EXPECT_EQ(router.local_index(s), s);
  }
}

TEST(ShardRouterTest, RejectsDegenerateConfigurations) {
  EXPECT_THROW((void)ShardRouter::by_range(0, 1), ConfigError);
  EXPECT_THROW((void)ShardRouter::by_range(4, 0), ConfigError);
  // More shards than servers would leave an engine with nothing to estimate.
  EXPECT_THROW((void)ShardRouter::by_range(2, 3), ConfigError);
}

TEST(ShardRouterTest, QueriesRejectOutOfRangeIds) {
  const ShardRouter router = ShardRouter::by_range(4, 2);
  EXPECT_THROW((void)router.shard_of(4), ConfigError);
  EXPECT_THROW((void)router.local_index(4), ConfigError);
  EXPECT_THROW((void)router.servers_of(2), ConfigError);
}

TEST(ShardRouterTest, JsonRoundTripIsExact) {
  const ShardRouter range = ShardRouter::by_range(11, 4);
  EXPECT_EQ(ShardRouter::from_json(range.to_json()), range);
  // Byte-stable through the canonical writer too.
  EXPECT_EQ(json::write(ShardRouter::from_json(range.to_json()).to_json()),
            json::write(range.to_json()));
  EXPECT_EQ(json::write(range.to_json()),
            R"({"mode":"range","server_count":11,"shard_count":4})");
}

TEST(ShardRouterTest, FromJsonRejectsUnknownModes) {
  // A stored router has one form; any other mode — including the
  // hand-assigned "explicit" form older documents could name — is corrupt
  // data, not a caller configuration mistake.
  for (const char* mode : {"hashed", "explicit"}) {
    SCOPED_TRACE(mode);
    json::Object broken = ShardRouter::by_range(4, 2).to_json().as_object();
    broken["mode"] = json::Value(std::string(mode));
    EXPECT_THROW((void)ShardRouter::from_json(json::Value(std::move(broken))),
                 DataError);
  }
}

TEST(ShardRouterTest, FromJsonRejectsCountsOutsideTheIdRange) {
  // A count below 1 or past the u32 id range is corrupt data, rejected
  // before any table is sized by it.
  const ShardRouter router = ShardRouter::by_range(4, 2);
  for (const char* key : {"server_count", "shard_count"}) {
    for (const double count : {-1.0, 0.0, 4294967296.0, 1e12}) {
      SCOPED_TRACE(std::string(key) + "=" + std::to_string(count));
      json::Object broken = router.to_json().as_object();
      broken[key] = json::Value(count);
      EXPECT_THROW(
          (void)ShardRouter::from_json(json::Value(std::move(broken))),
          DataError);
    }
  }
  // A router with more shards than servers is corrupt data too.
  json::Object broken = ShardRouter::by_range(4, 2).to_json().as_object();
  broken["shard_count"] = json::Value(5.0);
  EXPECT_THROW((void)ShardRouter::from_json(json::Value(std::move(broken))),
               DataError);
}

}  // namespace
}  // namespace botmeter::cluster
