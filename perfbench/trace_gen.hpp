// Seeded, in-memory border traces for the benchmark harness.
//
// A trace is a simulated DGA botnet (botnet::simulate, the only source of the
// DGA lookups and of the ground truth) interleaved with benign background
// lookups, reordered the way a real collector delivers it, and encoded once
// in one codec. Everything here is untimed set-up: the harness measures only
// what the pipelines do with the encoded bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dga/config.hpp"
#include "dns/vantage.hpp"

namespace botmeter::perfbench {

enum class Codec { kText, kBinary };

struct TraceSpec {
  /// A family whose pools need no history before epoch 0 (the horizon is
  /// [0, epochs)), e.g. Murofet or newGoZ.
  std::string family;
  std::uint32_t bots = 0;
  std::size_t servers = 1;
  std::int64_t epochs = 1;
  /// Benign lookups that follow every DGA lookup, each on a uniformly random
  /// server, named dga::benign_domain(k) with k ~ Zipf(s = 1) on
  /// [0, benign_ids).
  std::uint32_t benign_per_dga = 0;
  std::uint32_t benign_ids = 1;
  /// Share of all tuples that arrive up to 5 s after their timestamp — out of
  /// order, but well inside the engines' default one-epoch lateness.
  double displaced_share = 0.0;
  /// Share of mid-epoch DGA tuples that arrive right after their server's
  /// traffic crosses their epoch's close boundary: a streaming engine must
  /// drop them as late, and the batch reference never sees them.
  double late_share = 0.0;
  Codec codec = Codec::kBinary;
};

struct Trace {
  TraceSpec spec;
  dga::DgaConfig family;
  /// The encoded trace, in arrival order, ending with the horizon (lookups
  /// that spill past the last epoch are not captured, so the last two epochs
  /// always close in finish()). Binary traces start a new block at
  /// the first tuple at or after every epoch-close boundary of the default
  /// lateness, so each boundary crossing opens its own ingest call.
  std::string bytes;
  std::uint64_t tuples = 0;
  std::uint64_t dga_tuples = 0;
  std::uint64_t late_tuples = 0;
  /// Every DGA tuple except the late ones, in timestamp order: the input of
  /// the batch and stream references.
  std::vector<dns::ForwardedLookup> matched_input;
  /// Every 16th tuple of the arrival stream (capped), for the match probe.
  std::vector<dns::ForwardedLookup> probe_sample;
  /// Distinct domains of the trace, for the resolve probe.
  std::vector<std::string> domains;
  /// Simulator ground truth: active bots per [epoch][server].
  std::vector<std::vector<std::uint32_t>> truth;
  /// FNV-1a over `bytes`.
  std::uint64_t fingerprint = 0;
};

/// Build the trace for `spec` from `seed`. Deterministic: the same spec and
/// seed give byte-identical output.
[[nodiscard]] Trace make_trace(const TraceSpec& spec, std::uint64_t seed);

/// The instant the engines close `epoch` under the default lateness (one
/// epoch length): the end of the epoch after it.
[[nodiscard]] std::int64_t close_boundary_ms(const dga::DgaConfig& family,
                                             std::int64_t epoch);

}  // namespace botmeter::perfbench
