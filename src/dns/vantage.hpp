// The border-server vantage point (§II-B).
//
// The vantage point sits at the border DNS server and records every lookup
// forwarded to it by lower-level servers as a tuple
// (timestamp t, forwarding server s, domain d). Client identities are NOT
// visible here — that is the central difficulty the estimators address.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "dns/ids.hpp"

namespace botmeter::dns {

/// One cache-missed lookup as seen at the border.
struct ForwardedLookup {
  TimePoint timestamp;
  ServerId forwarder;
  std::string domain;

  friend bool operator==(const ForwardedLookup&, const ForwardedLookup&) = default;
};

/// Columnar (structure-of-arrays) view of a batch of forwarded lookups —
/// the zero-copy unit of the binary hot path (trace::BlockReader,
/// stream::StreamEngine::ingest_block). The `domain` column holds interned
/// ids into a string table that travels beside the view; ids are stable for
/// the lifetime of whichever component owns the table, so consumers resolve
/// each distinct domain exactly once and replay the result per tuple. All
/// three spans have equal length and are only valid for the duration of the
/// producing call.
struct LookupColumns {
  std::span<const std::int64_t> t_ms;
  std::span<const std::uint32_t> server;
  std::span<const std::uint32_t> domain;

  [[nodiscard]] std::size_t size() const { return t_ms.size(); }
};

/// Append-only sink of forwarded lookups, with optional timestamp
/// quantisation to model the coarse collection granularity of real traces
/// (100 ms in the synthetic experiments, 1 s in the enterprise dataset).
///
/// Two consumption modes:
///   - *batch* (default): lookups accumulate into an internal vector that
///     callers read via stream() or move out via take();
///   - *tap* (set_sink): every record() is handed to a callback in arrival
///     order and nothing is buffered — the bounded-memory path long-horizon
///     monitors use to feed the streaming engine (src/stream/) without ever
///     materialising the full lookup stream.
class VantagePoint {
 public:
  using Sink = std::function<void(const ForwardedLookup&)>;

  VantagePoint() = default;
  /// `granularity` <= 0 ms means "record exact timestamps".
  explicit VantagePoint(Duration granularity) : granularity_(granularity) {}

  void record(TimePoint t, ServerId forwarder, std::string domain);

  /// Install (or, with a null sink, remove) the tap. Timestamp quantisation
  /// still applies before the callback sees a tuple, so a tapped consumer
  /// observes exactly the stream a batch caller would. Installing a sink
  /// does not disturb already-buffered lookups; take them first.
  void set_sink(Sink sink) { sink_ = std::move(sink); }
  [[nodiscard]] bool has_sink() const { return static_cast<bool>(sink_); }

  [[nodiscard]] const std::vector<ForwardedLookup>& stream() const { return stream_; }
  [[nodiscard]] std::size_t size() const { return stream_.size(); }
  void clear() { stream_.clear(); }

  /// Move the accumulated stream out (the harness drains per-epoch).
  [[nodiscard]] std::vector<ForwardedLookup> take();

 private:
  Duration granularity_{0};
  std::vector<ForwardedLookup> stream_;
  Sink sink_;
};

}  // namespace botmeter::dns
