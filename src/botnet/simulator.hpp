// Epoch-level botnet + DNS simulation (§V-A "we first implement a set of
// simulators generating realistic DNS traffic according to different DGA
// models").
//
// For each epoch the simulator: builds the pool, registers the botmaster's
// valid domains with the authoritative registry, draws the activation
// instants of the bot population, expands every activation into its timed
// lookup train, merges all trains into one global time-ordered stream, and
// pushes it through the hierarchical caching network. Two artefacts come
// out:
//   - the *raw* trace (timestamp, client, domain, rcode) — ground truth,
//     visible only to the evaluation harness;
//   - the *observable* stream at the vantage point (timestamp, forwarding
//     server, domain) — the only thing BotMeter ever sees.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "botnet/activation.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "dga/config.hpp"
#include "dga/pool.hpp"
#include "dns/ids.hpp"
#include "dns/record.hpp"
#include "dns/topology.hpp"
#include "dns/vantage.hpp"
#include "obs/telemetry.hpp"

namespace botmeter::botnet {

/// One line of the raw dataset (§V-B): client identity is visible here.
struct RawRecord {
  TimePoint t;
  dns::ClientId client;
  std::string domain;
  dns::Rcode rcode = dns::Rcode::kNxDomain;

  friend bool operator==(const RawRecord&, const RawRecord&) = default;
};

/// Per-epoch ground truth: how many distinct bots were active (issued at
/// least one DGA lookup), overall and behind each local server.
struct EpochTruth {
  std::int64_t epoch = 0;
  std::uint32_t total_active = 0;
  std::vector<std::uint32_t> active_per_server;

  friend bool operator==(const EpochTruth&, const EpochTruth&) = default;
};

struct SimulationConfig {
  dga::DgaConfig dga;
  std::uint32_t bot_count = 0;        // N
  std::size_t server_count = 1;       // local DNS servers behind the border
  dns::TtlPolicy ttl;                 // positive 1 d / negative 2 h defaults
  Duration timestamp_granularity = milliseconds(100);
  std::int64_t first_epoch = 0;
  std::int64_t epoch_count = 1;       // observation window in epochs
  ActivationConfig activation;
  bool record_raw = true;             // keep the ground-truth trace
  std::uint64_t seed = 1;

  /// Worker threads for the per-epoch pipeline (query generation, sorting,
  /// and the domain-sharded cache replay). 0 = one per hardware thread.
  /// Results are bit-identical for every value: each (epoch, bot) pair owns
  /// a private collision-free RNG stream, work partitions never depend on
  /// the thread count, and all merges happen in a canonical order.
  std::size_t worker_threads = 1;

  /// Optional client placement override (default: round-robin). Lets
  /// scenarios skew the infection landscape across local servers.
  std::function<dns::ServerId(dns::ClientId)> client_assignment;

  /// Streaming tap on the vantage point: when set, every observable tuple is
  /// handed to this callback in canonical stream order (the same order the
  /// batch vector would have) and SimulationResult::observable stays empty —
  /// the bounded-memory path that feeds stream::StreamEngine on long
  /// horizons. The raw trace and truth are unaffected.
  std::function<void(const dns::ForwardedLookup&)> observable_sink;

  /// Observability sinks (see obs/telemetry.hpp); the simulator reports into
  /// `metrics` and `trace` only. With both null the run pays nothing — not
  /// even a clock read. Attaching them never changes the SimulationResult:
  /// every recorded quantity is derived from values the simulation computes
  /// anyway, flushed in bulk from the serial section of each epoch, so
  /// counter totals are also bit-identical across worker_threads values.
  /// Wall times in `trace` are the one nondeterministic output, and they
  /// feed the run report only.
  obs::Telemetry telemetry;

  /// Fraction of each epoch after which the botmaster's registered domains
  /// are taken down (sinkholed). 1.0 = live all epoch; e.g. 0.5 takes every
  /// C2 domain down mid-epoch, after which bots receive NXDOMAIN from them
  /// and keep rolling through their barrels (§I takedown dynamics).
  double takedown_after_fraction = 1.0;

  void validate() const;
};

struct SimulationResult {
  std::vector<RawRecord> raw;                    // empty if !record_raw
  std::vector<dns::ForwardedLookup> observable;  // the vantage-point stream
  std::vector<EpochTruth> truth;                 // one entry per epoch
};

/// Run the configured scenario. Deterministic given config.seed — including
/// across worker_threads values: the same seed yields the same
/// SimulationResult whether the epochs run on one thread or many.
/// `pool_model` must match config.dga (same object the matcher/estimators
/// will consult, so everyone agrees on pool contents).
[[nodiscard]] SimulationResult simulate(const SimulationConfig& config,
                                        dga::QueryPoolModel& pool_model);

/// Convenience overload constructing the pool model internally.
[[nodiscard]] SimulationResult simulate(const SimulationConfig& config);

/// Two-tier variant (see dns/tiered.hpp): `base.server_count` local
/// resolvers behind `regional_count` regional caches; the vantage stream
/// carries *regional* forwarder ids and the per-server truth is reported at
/// regional granularity. `base.ttl` is the local-tier policy;
/// `base.client_assignment` is ignored (round-robin placement at both
/// tiers).
struct TieredSimulationConfig {
  SimulationConfig base;
  std::size_t regional_count = 1;
  dns::TtlPolicy regional_ttl;  // the TTLs the vantage point "sees"
};

[[nodiscard]] SimulationResult simulate_tiered(
    const TieredSimulationConfig& config, dga::QueryPoolModel& pool_model);

}  // namespace botmeter::botnet
