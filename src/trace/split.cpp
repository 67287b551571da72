#include "trace/split.hpp"

#include <memory>
#include <ostream>
#include <string>

#include "common/error.hpp"

namespace botmeter::trace {

namespace {

std::size_t route_checked(const SplitRoute& route, std::uint32_t server,
                          std::size_t out_count) {
  const std::size_t out = route(server);
  if (out >= out_count) {
    throw DataError("trace split: server " + std::to_string(server) +
                    " routed to output " + std::to_string(out) + " of only " +
                    std::to_string(out_count));
  }
  return out;
}

}  // namespace

std::uint64_t SplitCounts::total() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t n : tuples) sum += n;
  return sum;
}

SplitCounts split_blocks(std::istream& is,
                         std::span<std::ostream* const> outs,
                         const SplitRoute& route,
                         std::size_t block_tuples) {
  if (outs.empty()) throw ConfigError("split_blocks: no outputs");
  SplitCounts counts;
  counts.tuples.assign(outs.size(), 0);
  std::vector<std::unique_ptr<BlockWriter>> writers;
  writers.reserve(outs.size());
  for (std::ostream* out : outs) {
    writers.push_back(std::make_unique<BlockWriter>(*out, block_tuples));
  }
  for_each_block(is, [&](const dns::LookupColumns& columns,
                         std::span<const std::string_view> table) {
    const std::size_t n = columns.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t out =
          route_checked(route, columns.server[i], outs.size());
      // Each writer re-interns against its own table: ids in a sub-stream
      // are dense in that sub-stream, as a per-border collector would have
      // assigned them.
      writers[out]->append(TimePoint{columns.t_ms[i]},
                           dns::ServerId{columns.server[i]},
                           table[columns.domain[i]]);
      ++counts.tuples[out];
    }
  });
  for (const std::unique_ptr<BlockWriter>& writer : writers) {
    writer->finish();
  }
  return counts;
}

}  // namespace botmeter::trace
