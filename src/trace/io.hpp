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
#include <string_view>
#include <vector>

#include "botnet/simulator.hpp"
#include "dns/vantage.hpp"

namespace botmeter::trace {

/// Serialise; flushes and throws DataError if the stream failed (a full
/// disk or closed pipe is a loud error, never a silently truncated file).
/// A domain holding a tab or newline, or ending in a CR, is rejected before
/// its record is written (check_text_domain): read back, it would split
/// into other records or fields, or lose its CR to the CRLF rule.
void write_raw(std::ostream& os, std::span<const botnet::RawRecord> records);
void write_observable(std::ostream& os,
                      std::span<const dns::ForwardedLookup> lookups);
/// One decoded binary block (trace/block.hpp) against its string table:
/// botmeter_trace_convert's text output. `first_record` is the number of
/// records written before this block, so an error names the output line.
void write_observable(std::ostream& os, const dns::LookupColumns& block,
                      std::span<const std::string_view> domains,
                      std::uint64_t first_record);

/// Throws DataError "<what> <index>: domain '...' holds a tab or newline
/// or ends in a CR ..." (the bytes shown escaped) when `domain` would not
/// read back from a text trace as written. A CR elsewhere in a domain reads
/// back unchanged and is accepted, as the readers accept it. The text
/// writers check every record, and BlockWriter every distinct domain, so no
/// codec can carry such a domain into a text trace.
void check_text_domain(std::string_view domain, std::string_view what,
                       std::uint64_t index);

/// Parse; throws DataError on malformed input. Errors carry the 1-based line
/// number and name the offending field ("non-numeric timestamp",
/// "out-of-range server id", ...) — a truncated or corrupted collector line
/// is always a loud, located failure, never a silent skip. A mid-read I/O
/// failure (stream badbit) likewise throws "stream I/O failure after line
/// N", once every complete line before it was delivered; a torn tail is
/// never parsed as a record. Numeric fields accept exactly
/// digits-with-optional-minus (no '+', no whitespace), so read ∘ write is
/// the identity on the emitted bytes. Blank lines are skipped; a trailing CR
/// (CRLF collectors) is tolerated.
///
/// Reading is chunked: the readers copy whatever the stream already holds
/// (a blocking peek() for the first byte, then readsome() of the rest of its
/// buffer) into one reused 64 KiB buffer, grown for a longer line, and parse
/// each line in place. A live feed is never read ahead of the bytes it has
/// delivered, so each record reaches the caller as soon as its newline
/// arrives. A stream without a buffer (in_avail() == 0 after the peek, as
/// with stdio-synced std::cin) is read one std::getline at a time. A clean
/// end of input leaves the stream eofbit|failbit, as std::getline does;
/// after an exception (a parse error, an I/O failure, or one thrown by the
/// sink) the stream may have been read past the failing line.
[[nodiscard]] std::vector<botnet::RawRecord> read_raw(std::istream& is);
[[nodiscard]] std::vector<dns::ForwardedLookup> read_observable(std::istream& is);

/// Streaming variant of read_observable: invoke `sink` on each parsed lookup
/// without materialising the whole trace — the bounded-memory path
/// botmeter_cluster uses to replay arbitrarily long border feeds. Same
/// validation and error reporting as read_observable. Returns the number of
/// lookups delivered. The sink receives the same object every call, its
/// domain assigned in place (no allocation per tuple once the longest domain
/// was seen): the reference is valid only for the duration of the call, so
/// a sink that keeps the lookup copies it.
std::size_t for_each_observable(
    std::istream& is, const std::function<void(const dns::ForwardedLookup&)>& sink);

}  // namespace botmeter::trace
