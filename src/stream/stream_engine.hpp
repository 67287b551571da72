// The online BotMeter engine: incremental landscape charting over a live
// border feed.
//
// The batch pipeline (core::BotMeter::analyze) consumes the whole
// vantage-point horizon at once; a deployed monitor can't — it taps the
// border server continuously (§II, Fig. 2) and must publish estimates as
// epochs complete, with memory bounded by the *active* window rather than
// the horizon. StreamEngine is that path:
//
//   - Tuples arrive one at a time or in batches (ingest), in any order the
//     collector's quantised timestamps produce. The engine's *front* (a
//     MatchFront, see match_front.hpp) matches each immediately
//     (DomainMatcher::match_one — the same attribution the batch matcher
//     applies), tracks the watermark and decides lateness; its *back*
//     buckets the matched residue per (server, epoch). Unmatched traffic —
//     the overwhelming majority at a real border — is dropped on arrival,
//     never buffered. Both halves run on the calling thread. A back-only
//     engine (a cluster shard) skips its own front: a producer-side front
//     delivers evidence, counters and close markers (ingest_evidence).
//   - An epoch closes when the ingest watermark (max timestamp seen) passes
//     the epoch's end plus `allowed_lateness`, or when the producer closes
//     it explicitly (close_through / finish). At close, the engine sorts
//     each server's bucket, builds the same EpochObservation batch analyze
//     would, runs the active estimator (optionally sharded over servers by
//     a worker pool), frees the buckets, and emits an EpochReport.
//   - finish() closes everything outstanding and assembles the final
//     LandscapeReport from the retained per-epoch cells via the shared
//     window aggregation — **bit-identical** to core::BotMeter::analyze on
//     the concatenated stream (provided nothing was dropped as late), for
//     every estimator and any analyze_threads value.
//   - checkpoint()/restore() round-trip the mutable state through the
//     byte-stable common/json writer (schema botmeter.stream_checkpoint.v1)
//     so a monitor can restart mid-horizon without reprocessing the feed.
//
// See DESIGN.md §7 for the state layout and equivalence argument.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/time.hpp"
#include "core/botmeter.hpp"
#include "detect/matcher.hpp"
#include "dns/vantage.hpp"
#include "estimators/estimator.hpp"
#include "stream/health_monitor.hpp"
#include "stream/match_front.hpp"

namespace botmeter::stream {

struct StreamEngineConfig {
  /// The analysis configuration (family, TTL policy, estimator choice,
  /// detection window seed) — exactly what batch BotMeter takes; its
  /// analyze_threads sizes the close-time estimation pool. The engine
  /// reports into `meter.telemetry`: `stream.*` series into metrics, block
  /// and close spans into trace, and one per-server snapshot row per epoch
  /// close into history (purely observational — attaching any of them
  /// never changes the engine's reports or counters).
  core::BotMeterConfig meter;

  /// Epoch horizon [first_epoch, first_epoch + epoch_count). All pools and
  /// detection windows are prepared up front so incremental matching
  /// attributes tuples exactly as a batch matcher over the horizon would.
  std::int64_t first_epoch = 0;
  std::int64_t epoch_count = 1;

  /// Number of local DNS servers behind the border (fixes report width).
  std::size_t server_count = 1;

  /// How far the watermark must pass an epoch's end before the engine
  /// auto-closes it. Lookup trains spill past epoch boundaries and
  /// quantised collectors deliver ties out of order, so closing exactly at
  /// the boundary would drop stragglers. Default (nullopt): one epoch
  /// length — ample for every simulated family. Tuples attributed to an
  /// already-closed epoch are counted in late_dropped(), not analyzed.
  std::optional<Duration> allowed_lateness;

  /// Bounded-memory mode (DESIGN.md §13): once an open (server, epoch)
  /// bucket holds `compact_spill_threshold` matched lookups, its buffer is
  /// folded into a sketch-backed estimators::CompactCell and freed; further
  /// matched tuples stream into the cell in O(1) space. Cells below the
  /// threshold stay exact and produce byte-identical estimates; spilled
  /// cells are estimated through the active estimator's compact path (the
  /// constructor rejects estimators without one) and their statistics are
  /// flagged approximate with the sketch error propagated into the interval.
  bool compact_state = false;
  std::size_t compact_spill_threshold = 8192;
  estimators::CompactObservationConfig compact;

  void validate() const;
};

/// One matched, on-time tuple as a front attributes it: the engine-local
/// server, the pool epoch, and the lookup — the only per-tuple state an
/// engine's back ever needs.
struct Evidence {
  std::uint32_t server = 0;
  std::int64_t epoch = 0;
  detect::MatchedLookup lookup;
};

/// One delivery from a producer-side front to a back-only engine, applied in
/// this order: the counters and watermark the front attributed to the
/// engine's servers since its previous delivery, the evidence records, then
/// the close marker.
struct EvidenceBatch {
  FrontCounters counts;
  std::optional<TimePoint> watermark;
  std::vector<Evidence> records;
  /// Close every epoch through this one (the front's watermark crossed its
  /// close boundary, or the producer closed it explicitly).
  std::optional<std::int64_t> close_through;
};

/// What one epoch close produced: per-server single-epoch estimates. The
/// values are final — late tuples can no longer change them.
struct EpochReport {
  std::int64_t epoch = 0;
  std::string estimator_name;
  std::vector<core::ServerEstimate> servers;  // per_epoch has one entry each

  [[nodiscard]] double total_population() const;
  /// View as a one-epoch landscape (for viz::render_landscape etc.).
  [[nodiscard]] core::LandscapeReport as_landscape() const;
};

class StreamEngine {
 public:
  using EpochCallback = std::function<void(const EpochReport&)>;

  /// Builds and prepares its own meter for the horizon — or, when `meter`
  /// is set, shares that one, prepared for exactly the horizon (else
  /// ConfigError; a cluster prepares one meter for all its shards). A shared
  /// meter is only read: the front matches against its index and closes
  /// estimate through its const row path.
  explicit StreamEngine(StreamEngineConfig config,
                        std::shared_ptr<const core::BotMeter> meter = nullptr);

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Invoked after every epoch close, in ascending epoch order.
  void on_epoch_close(EpochCallback callback);

  /// Ingest one tuple / a batch of tuples. Throws ConfigError after
  /// finish(), and for a tuple whose server id is not below server_count
  /// (state is then what it was before that tuple). Advances the watermark
  /// and auto-closes every epoch whose close boundary it passed.
  void ingest(const dns::ForwardedLookup& lookup);
  void ingest(std::span<const dns::ForwardedLookup> batch);

  /// Zero-copy batched ingest of one columnar block (a decoded
  /// trace::BlockReader frame).
  /// `domains` is the producer's full accumulated string table, which the
  /// block's `domain` ids index. Pool membership is resolved once per
  /// newly-seen interned id and cached for the engine's lifetime, so the
  /// per-tuple path does no hashing and no allocation. Semantics — matching
  /// attribution, watermark advance, epoch closes, lateness drops, counters
  /// — are tuple-for-tuple identical to ingest() on the equivalent stream.
  ///
  /// All blocks fed to one engine must share one interning lineage (one
  /// reader / one producer): the table may only grow between calls,
  /// and ids must keep their meaning. A shrinking table throws ConfigError.
  void ingest_block(const dns::LookupColumns& block,
                    std::span<const std::string_view> domains);

  /// Back-only ingest: apply one producer-side front's delivery (see
  /// EvidenceBatch). The engine neither matches nor closes on its own
  /// watermark here; its counters, watermark and closes are the front's.
  /// Every record must be of a server below server_count and of a horizon
  /// epoch this engine has not closed.
  void ingest_evidence(const EvidenceBatch& batch);

  /// Advance the watermark without data (a quiet feed still makes time
  /// pass), closing epochs the new watermark matured.
  void advance(TimePoint watermark);

  /// Explicitly close every epoch up to and including `epoch`, regardless
  /// of the watermark — for producers that know a period is complete (e.g.
  /// a per-day batch feed). No-op for epochs already closed.
  void close_through(std::int64_t epoch);

  /// Close all remaining epochs and return the final landscape —
  /// bit-identical to batch analyze on the same stream when late_dropped()
  /// is zero. The engine is sealed afterwards (ingest throws; checkpoint
  /// and accessors still work).
  [[nodiscard]] core::LandscapeReport finish();

  // --- introspection -------------------------------------------------------
  [[nodiscard]] std::uint64_t ingested() const {
    return front_.counters().ingested;
  }
  [[nodiscard]] std::uint64_t matched() const { return front_.counters().matched; }
  [[nodiscard]] std::uint64_t unmatched() const {
    return front_.counters().unmatched;
  }
  [[nodiscard]] std::uint64_t late_dropped() const {
    return front_.counters().late_dropped;
  }
  /// Matched lookups attributed to open epochs (buffered exactly or
  /// absorbed into compact cells) — the engine's resident analysis state.
  /// Bounded by the active window, not the horizon.
  [[nodiscard]] std::size_t resident_lookups() const { return resident_; }
  [[nodiscard]] std::size_t peak_resident_lookups() const { return peak_resident_; }
  /// Heap bytes the open buckets actually hold: the *capacity* of every
  /// exact buffer (vectors over-allocate on growth, so element counts
  /// understate the real footprint) plus the constant footprint of every
  /// spilled compact cell. Maintained incrementally — O(1) to read — and
  /// the health monitor's buffer-pressure signal.
  [[nodiscard]] std::size_t open_buffer_bytes() const { return open_bytes_; }
  /// High-water mark of open_buffer_bytes() over the engine's life.
  [[nodiscard]] std::size_t peak_open_buffer_bytes() const {
    return peak_open_bytes_;
  }
  /// Open buckets that have spilled to sketch state so far (0 when the
  /// compact path is off).
  [[nodiscard]] std::uint64_t compact_spills() const { return compact_spills_; }
  /// Next epoch that will close (first_epoch + epochs_closed); one past the
  /// horizon once everything closed.
  [[nodiscard]] std::int64_t next_epoch_to_close() const;
  [[nodiscard]] std::optional<TimePoint> watermark() const {
    return front_.watermark();
  }
  [[nodiscard]] bool finished() const { return finished_; }
  /// Wall milliseconds of each epoch close so far (flush latency).
  [[nodiscard]] std::span<const double> close_latencies_ms() const {
    return close_latencies_ms_;
  }
  /// The counters above, watermark and close count as one record.
  [[nodiscard]] StreamStats stats() const;
  [[nodiscard]] const core::BotMeter& meter() const { return *meter_; }
  [[nodiscard]] const StreamEngineConfig& config() const { return config_; }
  /// Closed per-epoch cell rows so far, [epoch index][server] — the final
  /// per-cell estimates a cluster merger scatters into the global grid.
  /// Rows are immutable once closed; the span is invalidated by the next
  /// close.
  [[nodiscard]] std::span<const std::vector<estimators::EpochCell>>
  closed_rows() const {
    return closed_;
  }

  // --- checkpointing -------------------------------------------------------
  /// Serialize the engine's mutable state (schema
  /// botmeter.stream_checkpoint.v1). Derived state — pools, detection
  /// windows, the matcher index — is a pure function of the configuration
  /// and is rebuilt on restore, so checkpoints stay small: counters, the
  /// watermark, closed-epoch cells, and the open buckets.
  [[nodiscard]] json::Value checkpoint() const;

  /// Load a checkpoint into a freshly constructed engine (nothing ingested
  /// yet). The engine's configuration must match the checkpointed
  /// fingerprint (family, estimator, horizon, server count); mismatches,
  /// schema violations, an open bucket listed twice and a compact cell whose
  /// shape disagrees with this engine's spec throw DataError (the last two
  /// naming the bucket). A rejected checkpoint leaves the engine empty.
  /// After restore the engine continues exactly where the checkpointed one
  /// stopped: resumed ingestion yields bit-identical reports.
  void restore(const json::Value& checkpoint);

 private:
  /// One closed (server, epoch) cell. The estimate is immutable once the
  /// epoch closed; buckets are freed at that point.
  using Cell = estimators::EpochCell;

  /// One open (server, epoch) bucket: the exact buffer, or — after a
  /// compact-mode spill — a sketch cell (the exact buffer is then empty and
  /// freed). Appends land in whichever representation is live.
  struct OpenBucket {
    std::vector<detect::MatchedLookup> exact;
    std::unique_ptr<estimators::CompactCell> compact;
  };

  /// The front's sink: the engine's own back, on the front's thread.
  struct Back;

  /// Flush counter deltas accumulated since the previous flush into the
  /// registry, so `stream.ingested`/`stream.matched`/... advance at every
  /// epoch close (live rate gauges need moving counters) while the final
  /// totals stay exactly what finish() always published.
  void flush_counters(obs::MetricsRegistry& metrics);
  /// Append one matched lookup to its (server, epoch) bucket, maintaining
  /// the residency and byte accounting and spilling the exact buffer into a
  /// compact cell when the threshold is crossed. Precondition: `server` is
  /// below server_count and `epoch` is an open horizon epoch.
  void append_evidence(std::uint32_t server, std::int64_t epoch,
                       const detect::MatchedLookup& lookup);
  /// Fold `bucket.exact` into a freshly specced compact cell and free it.
  void spill_bucket(OpenBucket& bucket, std::int64_t epoch);
  void note_open_bytes_grew(std::size_t delta);
  void close_next_epoch();

  StreamEngineConfig config_;
  std::shared_ptr<const core::BotMeter> meter_;
  WorkerPool workers_;
  EpochCallback on_close_;

  /// The match half: resolve memo, watermark, close boundaries, lateness,
  /// counters. Passive (fed by ingest_evidence) on a back-only engine.
  MatchFront front_;

  /// Open buckets, [epoch index][server]: matched lookups awaiting their
  /// epoch's close, in append order (sorted at close). A row is sized when
  /// its epoch gets its first evidence and released when the epoch closes;
  /// rows of closed or untouched epochs are empty.
  std::vector<std::vector<OpenBucket>> open_;

  /// Closed cells, [epoch index][server]. Grows one epoch row per close;
  /// this (plus `open_`) is the entire analysis state.
  std::vector<std::vector<Cell>> closed_;

  std::size_t resident_ = 0;
  std::size_t peak_resident_ = 0;
  /// Open-bucket heap bytes (exact capacities + compact cell footprints),
  /// maintained at every growth/spill/close so the accessor is O(1).
  std::size_t open_bytes_ = 0;
  std::size_t peak_open_bytes_ = 0;
  std::uint64_t compact_spills_ = 0;
  bool finished_ = false;
  std::vector<double> close_latencies_ms_;

  /// Counter-flush cursor: how much of each total has already been added to
  /// the registry (incrementally at closes, remainder at finish()).
  FrontCounters flushed_;
};

}  // namespace botmeter::stream
