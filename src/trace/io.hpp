// Text (de)serialisation of the raw and observable datasets.
//
// One record per line, tab-separated, millisecond timestamps:
//   raw:        <t_ms> \t <client> \t <domain> \t <A|NX>
//   observable: <t_ms> \t <server> \t <domain>
// The format is deliberately trivial — it exists so traces can be produced
// once, archived, and re-analyzed, and so external collectors can feed
// BotMeter.
#pragma once

#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "botnet/simulator.hpp"
#include "dns/vantage.hpp"

namespace botmeter::trace {

/// Serialise; flushes and throws DataError if the stream failed (a full
/// disk or closed pipe is a loud error, never a silently truncated file).
void write_raw(std::ostream& os, std::span<const botnet::RawRecord> records);
void write_observable(std::ostream& os,
                      std::span<const dns::ForwardedLookup> lookups);

/// Parse; throws DataError on malformed input. Errors carry the 1-based line
/// number and name the offending field ("non-numeric timestamp",
/// "out-of-range server id", ...) — a truncated or corrupted collector line
/// is always a loud, located failure, never a silent skip. A mid-read I/O
/// failure (stream badbit) likewise throws instead of masquerading as EOF.
/// Numeric fields accept exactly digits-with-optional-minus (no '+', no
/// whitespace), so read ∘ write is the identity on the emitted bytes.
/// Blank lines are skipped; a trailing CR (CRLF collectors) is tolerated.
[[nodiscard]] std::vector<botnet::RawRecord> read_raw(std::istream& is);
[[nodiscard]] std::vector<dns::ForwardedLookup> read_observable(std::istream& is);

/// Streaming variant of read_observable: invoke `sink` on each parsed lookup
/// without materialising the whole trace — the bounded-memory path
/// botmeter_cluster uses to replay arbitrarily long border feeds. Same
/// validation and error reporting as read_observable. Returns the number of
/// lookups delivered.
std::size_t for_each_observable(
    std::istream& is, const std::function<void(const dns::ForwardedLookup&)>& sink);

}  // namespace botmeter::trace
