// Routing of one border log's evidence onto cluster shards.
//
// BotMeter charts one landscape from one border log (§II, Fig. 2). A shard
// is a slice of that log's back-end work — the buckets, spills, closes and
// estimates of the servers it owns — not a vantage point of its own, so the
// router is a *total, static* partition of the server ids: every global
// server id belongs to exactly one shard, fixed for the lifetime of the
// cluster, so a (server, epoch) bucket accumulates on exactly one engine and
// the merged landscape is the disjoint union of per-shard landscapes — the
// property that makes an N-shard cluster byte-identical to a single engine
// over the same trace.
//
// The partition is by_range: contiguous, balanced server ranges (shard 0
// gets the first ceil(n/s) servers, ...).
//
// Within a shard, servers are addressed by their *local index* — the rank of
// the global id among the shard's servers in ascending order. Shard engines
// are sized to their owned-server count and never see a global id, which
// keeps per-shard state dense; the merger maps local cells back to global
// report slots through the same router.
//
// The router serializes into the cluster checkpoint envelope
// (botmeter.cluster_checkpoint.v1) and must round-trip exactly: a restored
// cluster with a different routing would scatter resumed traffic onto the
// wrong engines, so restore compares the stored router against the
// configured one and rejects mismatches loudly.
#pragma once

#include <cstdint>
#include <vector>

#include "common/json.hpp"

namespace botmeter::cluster {

class ShardRouter {
 public:
  /// An empty router (no shards, no servers) — a placeholder for config
  /// structs; every query on it throws. Build real routers via by_range.
  ShardRouter() = default;

  /// Balanced contiguous ranges: the first `server_count % shard_count`
  /// shards own one extra server. Throws ConfigError when either count is
  /// zero or there are more shards than servers (an empty shard would own an
  /// engine with nothing to estimate).
  [[nodiscard]] static ShardRouter by_range(std::size_t server_count,
                                            std::size_t shard_count);

  [[nodiscard]] std::size_t shard_count() const { return servers_of_.size(); }
  [[nodiscard]] std::size_t server_count() const {
    return shard_of_server_.size();
  }

  /// The shard owning global server `server`; throws ConfigError when the id
  /// is outside the routed width (a trace naming more servers than the
  /// cluster was configured for is a loud error, never a silent misroute).
  [[nodiscard]] std::size_t shard_of(std::uint32_t server) const;

  /// Rank of `server` among its shard's servers, ascending — the dense index
  /// the shard's engine addresses it by.
  [[nodiscard]] std::uint32_t local_index(std::uint32_t server) const;

  /// Global ids owned by `shard`, ascending (the inverse of local_index).
  [[nodiscard]] const std::vector<std::uint32_t>& servers_of(
      std::size_t shard) const;

  friend bool operator==(const ShardRouter&, const ShardRouter&) = default;

  // --- checkpoint envelope serialisation -----------------------------------
  /// {"mode":"range","server_count":n,"shard_count":s};
  /// from_json(to_json(r)) == r. from_json rejects any other mode, and any
  /// count outside [1, 2^32-1], as DataError.
  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] static ShardRouter from_json(const json::Value& value);

 private:
  std::vector<std::uint32_t> shard_of_server_;  // size == server_count
  std::vector<std::uint32_t> local_index_;      // size == server_count
  std::vector<std::vector<std::uint32_t>> servers_of_;  // size == shard_count
};

}  // namespace botmeter::cluster
