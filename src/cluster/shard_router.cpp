#include "cluster/shard_router.hpp"

#include <limits>
#include <string>

#include "common/error.hpp"

namespace botmeter::cluster {

namespace {

constexpr const char* kModeRange = "range";

}  // namespace

ShardRouter ShardRouter::by_range(std::size_t server_count,
                                  std::size_t shard_count) {
  if (server_count == 0 || shard_count == 0) {
    throw ConfigError("ShardRouter: server_count and shard_count must be > 0");
  }
  if (shard_count > server_count) {
    throw ConfigError("ShardRouter: " + std::to_string(shard_count) +
                      " shards over " + std::to_string(server_count) +
                      " servers would leave a shard empty");
  }
  ShardRouter router;
  router.shard_of_server_.resize(server_count);
  router.local_index_.resize(server_count);
  router.servers_of_.resize(shard_count);
  const std::size_t base = server_count / shard_count;
  const std::size_t extra = server_count % shard_count;
  std::uint32_t server = 0;
  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    const std::size_t width = base + (shard < extra ? 1 : 0);
    std::vector<std::uint32_t>& owned = router.servers_of_[shard];
    owned.reserve(width);
    for (std::size_t i = 0; i < width; ++i, ++server) {
      router.shard_of_server_[server] = static_cast<std::uint32_t>(shard);
      router.local_index_[server] = static_cast<std::uint32_t>(i);
      owned.push_back(server);
    }
  }
  return router;
}

std::size_t ShardRouter::shard_of(std::uint32_t server) const {
  if (server >= shard_of_server_.size()) {
    throw ConfigError("ShardRouter: server id " + std::to_string(server) +
                      " outside the routed width " +
                      std::to_string(shard_of_server_.size()));
  }
  return shard_of_server_[server];
}

std::uint32_t ShardRouter::local_index(std::uint32_t server) const {
  if (server >= local_index_.size()) {
    throw ConfigError("ShardRouter: server id " + std::to_string(server) +
                      " outside the routed width " +
                      std::to_string(local_index_.size()));
  }
  return local_index_[server];
}

const std::vector<std::uint32_t>& ShardRouter::servers_of(
    std::size_t shard) const {
  if (shard >= servers_of_.size()) {
    throw ConfigError("ShardRouter: shard " + std::to_string(shard) +
                      " outside the shard count " +
                      std::to_string(servers_of_.size()));
  }
  return servers_of_[shard];
}

json::Value ShardRouter::to_json() const {
  json::Object o;
  o.emplace("server_count",
            json::Value(static_cast<double>(shard_of_server_.size())));
  o.emplace("shard_count", json::Value(static_cast<double>(servers_of_.size())));
  o.emplace("mode", json::Value(std::string(kModeRange)));
  return json::Value(std::move(o));
}

ShardRouter ShardRouter::from_json(const json::Value& value) {
  const std::string mode = value.at("mode").as_string();
  if (mode != kModeRange) {
    throw DataError("ShardRouter: unknown router mode '" + mode + "'");
  }
  // Counts outside the u32 id range are corrupt data, and must be rejected
  // before by_range sizes a table by them.
  const auto stored_count = [&value](const char* key) {
    const std::int64_t count = value.at(key).as_int();
    if (count < 1 || count > std::numeric_limits<std::uint32_t>::max()) {
      throw DataError(std::string("ShardRouter: stored ") + key + " " +
                      std::to_string(count) + " outside [1, 2^32-1]");
    }
    return static_cast<std::size_t>(count);
  };
  const std::size_t server_count = stored_count("server_count");
  const std::size_t shard_count = stored_count("shard_count");
  try {
    return by_range(server_count, shard_count);
  } catch (const ConfigError& e) {
    // A structurally invalid stored router is corrupt data, not a caller
    // configuration mistake.
    throw DataError(std::string("ShardRouter: invalid stored router: ") +
                    e.what());
  }
}

}  // namespace botmeter::cluster
