// The cluster runtime: N sharded stream engines behind one global
// landscape.
//
// BotMeter charts one landscape from one border log (§II, Fig. 2). One
// StreamEngine does that log's back-end work — buckets, spills, closes and
// estimates — on one thread, by contract, so the cluster runtime splits it
// by server: it owns one engine per shard, each a slice of the log's
// evidence (the servers the ShardRouter gives it) on its own worker thread
// behind a bounded ingest queue, and merges per-shard epoch closes into the
// global landscape through a LandscapeMerger. The merged LandscapeReport, the
// recorded landscape_series.v1 history, and the canonical landscape JSON are
// all **byte-identical** to a single engine analyzing the union trace — for
// every shard count, every per-shard worker count, and both codec paths —
// because a (server, epoch) cell is a pure function of the server's matched
// bucket, every server is owned by exactly one shard, and one front decides
// for every tuple whether it reaches a bucket.
//
// Data path. Matching happens once, at the producer. An N-shard runtime
// (N >= 2) runs one stream::MatchFront on the producer thread over one
// prepared core::BotMeter that every shard shares read-only (pools,
// detection windows, matcher index). The front resolves and matches each
// tuple against the producer's own string table, tracks the global
// watermark and decides lateness exactly as a single engine over the union
// trace would. Each shard's engine runs only the back (buckets, spill,
// close, estimate): it receives evidence records — (t, local server, epoch,
// pool position, valid) for the matched, on-time tuples of its servers —
// plus the counters and watermark the front attributed to its servers. When
// the global watermark crosses a close boundary, the front appends a close
// marker to every shard's pending batch and flushes them all, so every
// shard closes at the same point of the tuple order as a single engine.
// Benign traffic never leaves the producer; no shard keeps a string table.
// A shard's batch flushes to its queue once flush_tuples tuples were routed
// to the shard, at close markers, on advance()/flush(), and at
// checkpoint/finish barriers; a full queue blocks the producer —
// backpressure, never loss.
//
// Inline single shard. Under a one-shard router the runtime is a plain
// engine: ingest, ingest_block and advance
// call the shard's StreamEngine — front and back — directly on the caller's
// thread with the producer's own string table (under a one-shard router a
// server's local index is its id). No shard thread starts and no batch is
// formed; each engine close offers to the merger synchronously, so merge_frontier() has advanced by the time the call that
// crossed the close boundary returns, and flush() has nothing to do. With
// one shard no series can collide, so the engine and its health monitor
// keep the telemetry bundle's metrics and trace (stream.* series beside the
// cluster.* ones). The producer publishes the engine's counters after every
// call, as a shard thread does after every batch.
//
// Checkpointing generalizes the engine envelope: botmeter.cluster_checkpoint.v1
// = router + merge frontier + one botmeter.stream_checkpoint.v1 per shard.
// Each shard entry carries the counters and watermark the front attributed
// to that shard's servers; the producer front keeps no state of its own
// beyond them (its resolve memo is derived). checkpoint() drains (flushes
// every pending batch, then waits until each running shard thread has
// counted down a request sent through its queue, after every earlier item)
// and serializes the idle engines on the calling thread. restore() loads each
// shard engine, resumes the front from them (the global watermark is the
// maximum of the shard watermarks — a single engine's watermark over the
// union — and shards that closed fewer epochs than the furthest one, as in a
// document whose shards closed on their own watermarks, are closed up to it
// before ingest resumes), replays their closed rows into a fresh merger (silently — history only records
// post-restore merges, mirroring StreamEngine::restore), and cross-checks
// the stored frontier.
//
// Health. Other threads see a shard only through the atomic mirrors of its
// engine's counters (ShardStats) published after each batch. sample_health()
// evaluates every shard's StreamHealthMonitor from them on the calling
// thread, never waiting on a shard, and folds the worst shard state with the
// merge-frontier lag (a lagging shard both degrades the cluster state and
// holds the global landscape back) into one state /healthz keys on.
//
// See DESIGN.md §11 for the full architecture and equivalence argument.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <latch>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/landscape_merger.hpp"
#include "cluster/shard_router.hpp"
#include "common/json.hpp"
#include "common/time.hpp"
#include "core/botmeter.hpp"
#include "dns/vantage.hpp"
#include "stream/health_monitor.hpp"
#include "stream/match_front.hpp"
#include "stream/stream_engine.hpp"

namespace botmeter::cluster {

struct ClusterConfig {
  /// The analysis configuration every shard engine runs under. Its
  /// telemetry bundle is *cluster-level*: the runtime publishes `cluster.*`
  /// series into metrics, one row per merged epoch into history
  /// (byte-identical to a single engine's rows over the union trace when
  /// neither stamps health), per-(shard, stage) wall times into lag (built
  /// for exactly this shard count), flow spans into trace, and health
  /// transitions, epoch closes, watermark advances, checkpoint/restore,
  /// queue saturation and merge publishes into journal (shard-level events
  /// carry the shard index, cluster-level events -1; sample_health()
  /// auto-dumps it the moment the cluster turns unhealthy). Shard engines
  /// get no sinks (their series would collide across shards); a lone inline
  /// shard keeps metrics and trace. Every sink is observational only, and
  /// with no trace, journal or lag attached the ingest path reads no clock.
  /// Its analyze_threads sizes every shard engine's close-time estimation
  /// pool (bit-identical for every value).
  core::BotMeterConfig meter;

  /// Epoch horizon, as for StreamEngine.
  std::int64_t first_epoch = 0;
  std::int64_t epoch_count = 1;

  /// Server ownership map; also fixes shard count and global report width.
  ShardRouter router;

  /// Passed through to every shard engine.
  std::optional<Duration> allowed_lateness;

  /// Bounded-memory mode, passed through to every shard engine (see
  /// stream::StreamEngineConfig): open buckets past the spill threshold fold
  /// into sketch-backed compact cells, and spilled cells' estimates surface
  /// in merged landscapes/history flagged approximate with the sketch error
  /// propagated. Off ⇒ cluster output is byte-identical to the exact path.
  bool compact_state = false;
  std::size_t compact_spill_threshold = 8192;
  estimators::CompactObservationConfig compact;

  /// Bounded ingest queue depth per shard, in batches. A full queue blocks
  /// the producer (backpressure, never loss). Unused by an inline shard.
  std::size_t queue_capacity = 64;

  /// Producer-side batching: tuples routed to a shard before its pending
  /// batch is enqueued. A batch holds only the evidence records of those
  /// tuples (the matched, on-time ones) plus their counts and watermark;
  /// close markers flush earlier. Purely a throughput knob — results are
  /// bit-identical for any value because every shard applies its records
  /// and markers in order. Unused by an inline shard.
  std::size_t flush_tuples = 8192;

  /// Per-shard health thresholds. When set, the runtime samples every shard
  /// monitor on sample_health(), folds states into the cluster state, and
  /// stamps that state onto merged history rows (when unset, rows carry no
  /// health — the batch/single-engine-compatible mode determinism tests use).
  std::optional<stream::StreamHealthConfig> health;

  void validate() const;
};

/// Point-in-time per-shard counters, readable from any thread: the shard
/// engine's record as last published. The tuple counters count the tuples
/// routed to the shard's servers (the producer front classifies them; the
/// shard applies the counts with its evidence).
using ShardStats = stream::StreamStats;

class ClusterRuntime {
 public:
  explicit ClusterRuntime(ClusterConfig config);
  ~ClusterRuntime();

  ClusterRuntime(const ClusterRuntime&) = delete;
  ClusterRuntime& operator=(const ClusterRuntime&) = delete;

  // --- ingest (single producer thread; scatters across all shards) ---------
  void ingest(const dns::ForwardedLookup& lookup);
  void ingest(std::span<const dns::ForwardedLookup> batch);

  /// Columnar ingest of one producer-lineage block (server column holds
  /// global ids). The producer front resolves each distinct domain of the
  /// producer's table once, ever, and ships only the evidence.
  void ingest_block(const dns::LookupColumns& block,
                    std::span<const std::string_view> domains);

  /// Advance the global watermark (a quiet feed still makes time pass):
  /// closes what it matured on every shard and raises every shard's
  /// watermark. Flushes every pending batch. Journaled once, as a
  /// cluster-level event.
  void advance(TimePoint watermark);

  /// Enqueue all pending partial batches (none on an inline shard).
  void flush();

  /// flush(), then wait until every running shard thread has applied every
  /// batch enqueued before the call — its closes and their merger offers
  /// included — through a request on each queue. So afterwards
  /// merge_frontier() holds every epoch the front has closed, shard_stats()
  /// counts every tuple ingested so far, and each shard thread waits on its
  /// empty queue. Returns at once on an inline shard, with no thread
  /// running, or after finish(). Producers must not ingest concurrently.
  void drain();

  /// Drain queues, stop the shard threads, close every remaining epoch, and
  /// return the merged global landscape — byte-identical to a single
  /// engine's finish() over the union trace. The runtime is sealed
  /// afterwards.
  [[nodiscard]] core::LandscapeReport finish();

  // --- introspection (any thread) ------------------------------------------
  [[nodiscard]] std::size_t shard_count() const {
    return config_.router.shard_count();
  }
  [[nodiscard]] const ShardRouter& router() const { return config_.router; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] ShardStats shard_stats(std::size_t shard) const;
  /// First epoch not yet merged across every shard.
  [[nodiscard]] std::int64_t merge_frontier() const {
    return merger_.merge_frontier();
  }
  /// Close progress of the fastest shard; the gap to merge_frontier() is the
  /// frontier lag a laggard causes.
  [[nodiscard]] std::int64_t max_shard_progress() const {
    return merger_.max_shard_progress();
  }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const LandscapeMerger& merger() const { return merger_; }

  // --- health --------------------------------------------------------------
  /// Evaluate every shard's monitor from shard_stats() and fold the states
  /// plus the current frontier lag into the cluster state (a lag of 2 epochs
  /// degrades it and 8 make it unhealthy, even when every shard is
  /// individually ok: the global landscape is being held back); also publishes
  /// cluster.* gauges when a metrics registry is attached. Never waits on a
  /// shard. Call periodically with monotonic wall milliseconds, from any one
  /// thread at a time, at any shard count.
  stream::HealthState sample_health(double now_ms);
  [[nodiscard]] stream::HealthState cluster_state() const {
    return static_cast<stream::HealthState>(
        cluster_state_.load(std::memory_order_relaxed));
  }
  /// Canonical cluster health document (schema botmeter.cluster_health.v1):
  /// cluster state + frontier, plus one entry per shard with its state and
  /// signal vector. Any thread.
  [[nodiscard]] json::Value health_json() const;

  // --- checkpointing -------------------------------------------------------
  /// Serialize the whole cluster (schema botmeter.cluster_checkpoint.v1):
  /// router, merge frontier, and one per-shard stream checkpoint. Drains
  /// first (drain()), then serializes every engine on the calling thread
  /// while the shard threads wait. Producers must not ingest concurrently
  /// with checkpoint(), so the envelope is a consistent cut.
  [[nodiscard]] json::Value checkpoint();

  /// Load a cluster checkpoint into a freshly constructed runtime (no
  /// ingest or advance yet: ConfigError otherwise). The stored router must equal the
  /// configured one — a different routing would scatter resumed traffic onto
  /// the wrong engines — and the stored frontier must match the replayed
  /// merger's. Throws DataError on any mismatch; on failure the runtime may
  /// not be used further.
  void restore(const json::Value& checkpoint);

 private:
  /// One unit of shard-thread work: the front's delivery to the shard's
  /// engine (evidence records with engine-local servers, counter deltas,
  /// watermark, close marker), or a drain() request.
  struct ShardBatch {
    stream::EvidenceBatch evidence;
    /// A drain() request: counted down once every earlier item is applied.
    std::latch* drained = nullptr;

    // Lag/flow metadata, stamped only when the telemetry is timed (its clock
    // is never read otherwise). Not data: empty() ignores it.
    /// When the batch's first tuple reached the shard's pending batch.
    double formed_ms = 0.0;
    /// When the batch landed on the shard queue.
    double enqueued_ms = 0.0;
    /// Perfetto flow id linking the producer span to the shard-ingest span.
    std::uint64_t flow_id = 0;

    [[nodiscard]] bool empty() const {
      return evidence.counts.ingested == 0 && evidence.records.empty() &&
             !evidence.close_through && !evidence.watermark;
    }
  };

  /// `Shard::watermark_ms` before the engine saw a tuple.
  static constexpr std::int64_t kNoWatermark =
      std::numeric_limits<std::int64_t>::min();

  /// One shard: the producer's pending batch, the bounded queue and the
  /// back-only engine.
  struct Shard {
    std::size_t index = 0;
    std::unique_ptr<stream::StreamEngine> engine;
    std::unique_ptr<stream::StreamHealthMonitor> monitor;
    /// The batch the producer is forming.
    ShardBatch pending;

    std::mutex mu;
    std::condition_variable cv_push;   // producer waits: queue full
    std::condition_variable cv_pop;    // thread waits: queue empty
    std::deque<ShardBatch> queue;
    bool stop = false;

    // The engine's counters, published by the thread that owns it after
    // each batch (mirror_counters): the only view other threads have.
    std::atomic<std::uint64_t> ingested{0};
    std::atomic<std::uint64_t> matched{0};
    std::atomic<std::uint64_t> unmatched{0};
    std::atomic<std::uint64_t> late_dropped{0};
    std::atomic<std::int64_t> next_epoch{0};
    std::atomic<std::uint64_t> epochs_closed{0};
    std::atomic<std::int64_t> watermark_ms{kNoWatermark};
    std::atomic<std::uint64_t> open_bytes{0};
    std::atomic<std::uint64_t> peak_open_bytes{0};
    std::atomic<std::uint64_t> compact_spills{0};

    std::thread thread;
  };

  /// The front's sink on a multi-shard runtime: routes each tuple's outcome
  /// to the shard owning its server (defined in the .cpp).
  struct Scatter;

  void ensure_started();
  void shard_main(std::size_t index);
  void apply_batch(Shard& shard, ShardBatch& batch);
  /// Publish the engine's counters to the shard's atomic mirrors. Must run
  /// on the thread that currently owns the engine.
  static void mirror_counters(Shard& shard);
  void enqueue(std::size_t shard, ShardBatch batch);
  void flush_shard(std::size_t shard);
  /// The producer front, after checking the runtime is unsealed and closing
  /// every shard through catch_up_through_.
  [[nodiscard]] stream::MatchFront& live_front();
  void handle_close(std::size_t shard, std::int64_t epoch);
  void handle_merge(const MergedEpoch& merged);
  void stop_threads();
  [[nodiscard]] const obs::Telemetry& telemetry() const {
    return config_.meter.telemetry;
  }

  ClusterConfig config_;
  std::string estimator_name_;
  LandscapeMerger merger_;
  /// One-shard router: the engine runs on the caller's thread (see the
  /// header comment); the shard thread, queue, front and scatter are never
  /// used.
  bool inline_ = false;
  /// The prepared meter the front and every shard engine share (N >= 2; an
  /// inline engine prepares its own). Read-only once built.
  std::shared_ptr<const core::BotMeter> meter_;
  /// The producer front (N >= 2).
  std::unique_ptr<stream::MatchFront> front_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Set by restore() when the shards closed different epochs: the front
  /// closes every shard through this epoch before its first tuple.
  std::optional<std::int64_t> catch_up_through_;
  /// Previous health states (the sampling thread only): journal transitions.
  std::vector<int> prev_shard_state_;
  int prev_cluster_state_ = 0;
  /// The shard threads run (the producer starts them at its first enqueue).
  bool started_ = false;
  std::atomic<bool> finished_{false};
  /// Suppresses history recording while restore() replays closed rows.
  bool replaying_ = false;
  std::atomic<int> cluster_state_{0};
};

}  // namespace botmeter::cluster
