// Splitting one binary border trace into per-vantage sub-streams.
//
// A multi-border cluster (src/cluster/) routes servers onto shards; its
// natural feed is one capture per vantage point, each holding exactly the
// tuples of the servers that border sees. Real archives are usually the
// other way around — one union trace — so split_blocks cuts a union block
// trace into per-vantage files by server id, re-framing each output with a
// fresh interning lineage (ids in a sub-stream are dense in that sub-stream,
// exactly as a collector at that border would have written them).
//
// Tuple order within each output is the input order restricted to that
// output — precisely the per-shard sequence the cluster's router would have
// produced from the union feed, which is what makes these splits valid
// byte-identity fixtures for the cluster determinism tests and the
// bench_cluster_throughput input setup.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <vector>

#include "trace/block.hpp"

namespace botmeter::trace {

/// Maps a server id to the index of the output it belongs to. Must return
/// an index < the output count for every server the trace names (DataError
/// otherwise — an unrouted server is a corrupt trace or a misconfigured
/// router, never a silent drop). ShardRouter::shard_of is the intended
/// implementation.
using SplitRoute = std::function<std::size_t(std::uint32_t server)>;

/// Tuples delivered to each output.
struct SplitCounts {
  std::vector<std::uint64_t> tuples;

  [[nodiscard]] std::uint64_t total() const;
};

/// Split a binary block trace across `outs` by routed server id, re-framing
/// each output as an independent botmeter.trace_block.v1 file with its own
/// interned string table. Throws DataError on malformed input, an
/// out-of-range route, or a failed write.
SplitCounts split_blocks(std::istream& is,
                         std::span<std::ostream* const> outs,
                         const SplitRoute& route,
                         std::size_t block_tuples = kDefaultBlockTuples);

}  // namespace botmeter::trace
