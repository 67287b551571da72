#include "cluster/cluster_runtime.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/landscape_history.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace botmeter::cluster {

namespace {

constexpr const char* kCheckpointSchema = "botmeter.cluster_checkpoint.v1";
constexpr const char* kHealthSchema = "botmeter.cluster_health.v1";

/// Merge-frontier lag, in epochs the fastest shard is ahead of the slowest,
/// at which the cluster degrades / turns unhealthy.
constexpr std::int64_t kDegradedFrontierLag = 2;
constexpr std::int64_t kUnhealthyFrontierLag = 8;

template <typename T>
json::Value number(T v) {
  return json::Value(static_cast<double>(v));
}

}  // namespace

void ClusterConfig::validate() const {
  meter.validate();
  if (epoch_count <= 0) {
    throw ConfigError("ClusterConfig: epoch_count must be > 0");
  }
  if (router.shard_count() == 0) {
    throw ConfigError("ClusterConfig: router is empty — build one via "
                      "ShardRouter::by_range");
  }
  if (queue_capacity == 0) {
    throw ConfigError("ClusterConfig: queue_capacity must be > 0");
  }
  if (flush_tuples == 0) {
    throw ConfigError("ClusterConfig: flush_tuples must be > 0");
  }
  if (health) health->validate();
  const obs::LagTracker* lag = meter.telemetry.lag;
  if (lag != nullptr && lag->shard_count() != router.shard_count()) {
    throw ConfigError("ClusterConfig: lag tracker was built for " +
                      std::to_string(lag->shard_count()) +
                      " shards, router has " +
                      std::to_string(router.shard_count()));
  }
}

// --- construction -----------------------------------------------------------

ClusterRuntime::ClusterRuntime(ClusterConfig config)
    : config_((config.validate(), std::move(config))),
      merger_(config_.router, config_.first_epoch, config_.epoch_count),
      inline_(config_.router.shard_count() == 1) {
  merger_.on_merge([this](const MergedEpoch& merged) { handle_merge(merged); });

  if (!inline_) {
    // One meter for the producer front and every shard's back, built once
    // with no sinks (shard engines' series would collide across shards; the
    // runtime records merged rows, journals and lag stages itself).
    core::BotMeterConfig shared = config_.meter;
    shared.telemetry = obs::Telemetry{};
    auto meter = std::make_shared<core::BotMeter>(std::move(shared));
    meter->prepare_epochs(config_.first_epoch, config_.epoch_count);
    meter_ = std::move(meter);
    front_ = std::make_unique<stream::MatchFront>(
        meter_->matcher(), config_.first_epoch, config_.epoch_count,
        config_.allowed_lateness);
  }

  const std::size_t n = config_.router.shard_count();
  shards_.reserve(n);
  prev_shard_state_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;

    stream::StreamEngineConfig ec;
    ec.meter = config_.meter;
    // A lone inline shard keeps metrics and trace; sharded engines publish
    // nothing themselves. No engine records history — its rows would not
    // be the merged landscape.
    ec.meter.telemetry = inline_ ? obs::Telemetry{telemetry().metrics,
                                                  telemetry().trace}
                                 : obs::Telemetry{};
    ec.first_epoch = config_.first_epoch;
    ec.epoch_count = config_.epoch_count;
    ec.server_count = config_.router.servers_of(i).size();
    ec.allowed_lateness = config_.allowed_lateness;
    ec.compact_state = config_.compact_state;
    ec.compact_spill_threshold = config_.compact_spill_threshold;
    ec.compact = config_.compact;
    shard->engine = std::make_unique<stream::StreamEngine>(std::move(ec), meter_);
    shard->engine->on_epoch_close(
        [this, i](const stream::EpochReport& report) {
          handle_close(i, report.epoch);
        });
    shard->monitor = std::make_unique<stream::StreamHealthMonitor>(
        config_.health.value_or(stream::StreamHealthConfig{}),
        inline_ ? telemetry().metrics : nullptr);
    shard->next_epoch.store(config_.first_epoch, std::memory_order_relaxed);
    shards_.push_back(std::move(shard));
  }
  estimator_name_ =
      std::string(shards_.front()->engine->meter().active_estimator().name());
}

ClusterRuntime::~ClusterRuntime() { stop_threads(); }

// --- merge / close plumbing -------------------------------------------------

void ClusterRuntime::handle_close(std::size_t shard, std::int64_t epoch) {
  // Runs on the shard's thread (or the control thread during finish()),
  // immediately after the engine appended the epoch's cell row.
  const stream::StreamEngine& engine = *shards_[shard]->engine;
  const obs::Telemetry& tel = telemetry();
  std::optional<double> closed_ms;
  std::uint64_t flow = 0;
  if (tel.timed()) {
    // The close ended now and lasted the engine's own measurement of it:
    // one reading, fanned out to the lag stage, the span, the journal and
    // the merger's record of the close's arrival.
    const double end = tel.now_ms();
    const double close_ms = engine.close_latencies_ms().back();
    flow = obs::TraceSession::next_flow_id();
    tel.record_stage(shard, obs::LagStage::kEpochClose, "cluster.epoch_close",
                     end - close_ms, end, 0, flow);
    tel.log_at(end, obs::EventKind::kEpochClose,
               static_cast<std::int32_t>(shard), epoch, close_ms);
    closed_ms = end;
  }
  const auto rows = engine.closed_rows();
  merger_.offer(shard, epoch,
                std::vector<estimators::EpochCell>(rows.back().begin(),
                                                   rows.back().end()),
                closed_ms, flow);
}

void ClusterRuntime::handle_merge(const MergedEpoch& merged) {
  // Under the merger mutex, on whichever shard thread completed the epoch.
  // Keep this short and never call back into the merger.
  if (replaying_) return;
  const obs::Telemetry& tel = telemetry();
  const bool timed = tel.timed();
  const double start = timed ? tel.now_ms() : 0.0;
  if (tel.history != nullptr) {
    obs::LandscapeEpochRecord row = core::history_row(
        merged.epoch, config_.meter.dga.name, estimator_name_, merged.cells);
    if (config_.health) {
      row.health = std::string(stream::health_state_name(cluster_state()));
    }
    tel.history->record(row);
  }
  if (!timed) return;
  // Published: the merged row is visible. That moment closes the span, is
  // the journal stamp, and ends every contributing shard's merge wait. The
  // span links from the close that completed the row.
  const double end = tel.now_ms();
  if (tel.lag != nullptr) {
    tel.lag->note_merge(merged.epoch, merged.closed_ms, end);
  }
  tel.log_at(end, obs::EventKind::kMergePublish, -1, merged.epoch,
             static_cast<double>(merged.cells.size()));
  if (tel.trace != nullptr) {
    tel.trace->record_flow_span("cluster.merge_publish", start, end - start,
                                this_thread_ordinal(), merged.flow, 0);
  }
}

// --- shard threads ----------------------------------------------------------

void ClusterRuntime::ensure_started() {
  if (started_) return;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->thread = std::thread([this, i] { shard_main(i); });
  }
  started_ = true;
}

void ClusterRuntime::shard_main(std::size_t index) {
  set_this_thread_label("cluster.shard_" + std::to_string(index));
  Shard& shard = *shards_[index];
  for (;;) {
    ShardBatch batch;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.cv_pop.wait(
          lock, [&shard] { return !shard.queue.empty() || shard.stop; });
      if (shard.queue.empty()) return;  // stopped, and drained first
      batch = std::move(shard.queue.front());
      shard.queue.pop_front();
      shard.cv_push.notify_one();
    }
    if (batch.drained == nullptr) {
      apply_batch(shard, batch);
      continue;
    }
    // Every earlier item is applied, and the engine stays untouched until
    // the next item arrives: drain()'s caller may read it.
    batch.drained->count_down();
  }
}

void ClusterRuntime::apply_batch(Shard& shard, ShardBatch& batch) {
  const obs::Telemetry& tel = telemetry();
  const bool tracked = batch.evidence.counts.ingested != 0 && tel.timed();
  const double dequeued_ms = tracked ? tel.now_ms() : 0.0;
  if (tracked) {
    tel.record_stage(shard.index, obs::LagStage::kQueueWait, nullptr,
                     batch.enqueued_ms, dequeued_ms);
  }

  shard.engine->ingest_evidence(batch.evidence);

  if (tracked) {
    tel.record_stage(shard.index, obs::LagStage::kShardIngest,
                     "cluster.shard_ingest", dequeued_ms, tel.now_ms(),
                     batch.flow_id, 0);
  }
  mirror_counters(shard);
}

void ClusterRuntime::mirror_counters(Shard& shard) {
  const stream::StreamStats stats = shard.engine->stats();
  shard.ingested.store(stats.ingested, std::memory_order_relaxed);
  shard.matched.store(stats.matched, std::memory_order_relaxed);
  shard.unmatched.store(stats.unmatched, std::memory_order_relaxed);
  // Released after matched, acquired before it (shard_stats): a reader never
  // pairs this late count with an older matched count, so no late rate it
  // derives exceeds one a single publish held.
  shard.late_dropped.store(stats.late_dropped, std::memory_order_release);
  shard.next_epoch.store(stats.next_epoch_to_close, std::memory_order_relaxed);
  shard.epochs_closed.store(stats.epochs_closed, std::memory_order_relaxed);
  shard.watermark_ms.store(
      stats.watermark ? stats.watermark->millis() : kNoWatermark,
      std::memory_order_relaxed);
  shard.open_bytes.store(stats.open_buffer_bytes, std::memory_order_relaxed);
  shard.peak_open_bytes.store(stats.peak_open_buffer_bytes,
                              std::memory_order_relaxed);
  shard.compact_spills.store(stats.compact_spills, std::memory_order_relaxed);
}

void ClusterRuntime::enqueue(std::size_t shard, ShardBatch batch) {
  ensure_started();
  const obs::Telemetry& tel = telemetry();
  const bool tracked = batch.evidence.counts.ingested != 0 && tel.timed();
  if (tracked) {
    batch.flow_id = obs::TraceSession::next_flow_id();
    tel.record_stage(shard, obs::LagStage::kProducerBatch,
                     "cluster.producer_batch", batch.formed_ms, tel.now_ms(),
                     0, batch.flow_id);
  }
  Shard& s = *shards_[shard];
  std::unique_lock<std::mutex> lock(s.mu);
  if (s.queue.size() >= config_.queue_capacity) {
    // The producer is about to block on a full queue — backpressure worth a
    // flight-recorder entry (the journal mutex is a leaf; safe under s.mu).
    tel.log(obs::EventKind::kQueueSaturation, static_cast<std::int32_t>(shard),
            obs::JournalEvent::kNoEpoch, static_cast<double>(s.queue.size()));
  }
  s.cv_push.wait(lock,
                 [&s, this] { return s.queue.size() < config_.queue_capacity; });
  // Stamp after the capacity wait: time blocked on backpressure belongs to
  // the producer, not to the batch's queue_wait stage.
  if (tracked) batch.enqueued_ms = tel.now_ms();
  s.queue.push_back(std::move(batch));
  s.cv_pop.notify_one();
}

void ClusterRuntime::stop_threads() {
  if (!started_) return;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->stop = true;
    shard->cv_pop.notify_all();
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  started_ = false;
}

// --- producer-side front ----------------------------------------------------

/// The front's sink on a multi-shard runtime: scatters each tuple's outcome
/// to the shard owning its server and closes every shard.
struct ClusterRuntime::Scatter {
  ClusterRuntime& runtime;

  [[nodiscard]] ShardBatch& pending_of(std::uint32_t server) const {
    return runtime.shards_[runtime.config_.router.shard_of(server)]->pending;
  }

  void admit(std::uint32_t server, std::int64_t t_ms) const {
    const std::size_t shard = runtime.config_.router.shard_of(server);
    ShardBatch& pending = runtime.shards_[shard]->pending;
    stream::EvidenceBatch& evidence = pending.evidence;
    // A full batch leaves when the shard's next tuple arrives, so its last
    // tuple is classified and counted in it.
    if (evidence.counts.ingested >= runtime.config_.flush_tuples) {
      runtime.flush_shard(shard);
    }
    // The clock is read once per *batch* (first tuple), and only when
    // instrumentation is on.
    if (evidence.counts.ingested++ == 0 && runtime.telemetry().timed()) {
      pending.formed_ms = runtime.telemetry().now_ms();
    }
    if (!evidence.watermark || t_ms > evidence.watermark->millis()) {
      evidence.watermark = TimePoint{t_ms};
    }
  }

  void late(std::uint32_t server) const {
    ++pending_of(server).evidence.counts.late_dropped;
  }

  void append(std::uint32_t server, std::int64_t epoch,
              const detect::MatchedLookup& lookup) const {
    stream::EvidenceBatch& evidence = pending_of(server).evidence;
    ++evidence.counts.matched;
    evidence.records.push_back(stream::Evidence{
        runtime.config_.router.local_index(server), epoch, lookup});
  }

  /// A close marker on every shard, flushed at once: each back closes the
  /// epoch right after the evidence that preceded the boundary.
  void close(std::int64_t epoch) const {
    for (std::size_t i = 0; i < runtime.shards_.size(); ++i) {
      runtime.shards_[i]->pending.evidence.close_through = epoch;
      runtime.flush_shard(i);
    }
  }
};

stream::MatchFront& ClusterRuntime::live_front() {
  if (finished_.load(std::memory_order_acquire)) {
    throw ConfigError("ClusterRuntime: ingest after finish()");
  }
  if (catch_up_through_) {
    Scatter scatter{*this};
    front_->close_through(*catch_up_through_, scatter);
    catch_up_through_.reset();
  }
  return *front_;
}

void ClusterRuntime::ingest(const dns::ForwardedLookup& lookup) {
  if (inline_) {
    // The router rejects a server past the routed width, as it does for
    // the front's scatter.
    (void)config_.router.shard_of(lookup.forwarder.value());
    // Per-tuple calls read no clock: the shard_ingest stage is timed per
    // block and per advance only.
    Shard& only = *shards_.front();
    only.engine->ingest(lookup);
    mirror_counters(only);
    return;
  }
  Scatter scatter{*this};
  live_front().ingest(lookup, scatter);
}

void ClusterRuntime::ingest(std::span<const dns::ForwardedLookup> batch) {
  for (const dns::ForwardedLookup& lookup : batch) ingest(lookup);
}

void ClusterRuntime::ingest_block(const dns::LookupColumns& block,
                                  std::span<const std::string_view> domains) {
  if (inline_) {
    // Every server belongs to the lone shard, so checking the largest id
    // checks the whole column (the engine checks its shape).
    if (!block.server.empty()) {
      (void)config_.router.shard_of(
          *std::max_element(block.server.begin(), block.server.end()));
    }
    Shard& only = *shards_.front();
    const obs::Telemetry& tel = telemetry();
    const double start_ms = tel.timed() ? tel.now_ms() : 0.0;
    try {
      only.engine->ingest_block(block, domains);
    } catch (...) {
      // A rejected block keeps the tuples before the rejected one: publish
      // them, as a shard thread publishes after every batch.
      mirror_counters(only);
      throw;
    }
    // No span: the engine's own stream.block.ingest span is this stage.
    if (tel.timed()) {
      tel.record_stage(0, obs::LagStage::kShardIngest, nullptr, start_ms,
                       tel.now_ms());
    }
    mirror_counters(only);
    return;
  }
  Scatter scatter{*this};
  live_front().ingest_block(block, domains, scatter);
}

void ClusterRuntime::flush_shard(std::size_t shard) {
  ShardBatch& pending = shards_[shard]->pending;
  if (pending.empty()) return;
  ShardBatch batch = std::move(pending);
  pending = ShardBatch{};
  stream::FrontCounters& counts = batch.evidence.counts;
  counts.unmatched = counts.ingested - counts.matched - counts.late_dropped;
  enqueue(shard, std::move(batch));
}

void ClusterRuntime::flush() {
  for (std::size_t i = 0; i < shards_.size(); ++i) flush_shard(i);
}

void ClusterRuntime::drain() {
  if (finished_.load(std::memory_order_acquire)) return;
  // Pending producer-side batches come first (this starts the shard threads
  // if nothing had ever filled a batch — small traces live entirely in
  // pending batches).
  flush();
  if (!started_) return;
  // Each running shard thread counts down after every batch enqueued before
  // the request, closes (and their merger offers) included.
  std::latch applied(static_cast<std::ptrdiff_t>(shards_.size()));
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardBatch request;
    request.drained = &applied;
    enqueue(i, std::move(request));
  }
  applied.wait();
}

void ClusterRuntime::advance(TimePoint watermark) {
  if (inline_) {
    Shard& only = *shards_.front();
    const obs::Telemetry& tel = telemetry();
    const double start_ms = tel.timed() ? tel.now_ms() : 0.0;
    only.engine->advance(watermark);
    if (tel.timed()) {
      const double end_ms = tel.now_ms();
      tel.record_stage(0, obs::LagStage::kShardIngest, nullptr, start_ms,
                       end_ms);
      tel.log_at(end_ms, obs::EventKind::kWatermarkAdvance, -1,
                 obs::JournalEvent::kNoEpoch,
                 static_cast<double>(watermark.millis()));
    }
    mirror_counters(only);
    return;
  }
  stream::MatchFront& front = live_front();
  // Every shard's pending batch carries the advance, so each one reaches its
  // shard even with no tuple behind it.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::optional<TimePoint>& mark = shard->pending.evidence.watermark;
    if (!mark || watermark > *mark) mark = watermark;
  }
  Scatter scatter{*this};
  front.advance(watermark, scatter);
  flush();
  telemetry().log(obs::EventKind::kWatermarkAdvance, -1,
                  obs::JournalEvent::kNoEpoch,
                  static_cast<double>(watermark.millis()));
}

// --- finish -----------------------------------------------------------------

core::LandscapeReport ClusterRuntime::finish() {
  if (finished_) throw ConfigError("ClusterRuntime: finish() called twice");
  flush();
  stop_threads();
  finished_ = true;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    // Closes every remaining epoch; each close offers its row to the merger
    // through the on_epoch_close wiring. The per-shard report is the merged
    // report's restriction to the shard's servers — nothing to keep.
    (void)shard.engine->finish();
    mirror_counters(shard);
  }
  core::LandscapeReport report = merger_.assemble(estimator_name_);
  if (telemetry().metrics != nullptr) {
    telemetry().metrics->gauge("cluster.population.total")
        .set(report.total_population());
  }
  return report;
}

// --- introspection / health -------------------------------------------------

ShardStats ClusterRuntime::shard_stats(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw ConfigError("ClusterRuntime: shard " + std::to_string(shard) +
                      " outside the shard count " +
                      std::to_string(shards_.size()));
  }
  const Shard& s = *shards_[shard];
  ShardStats stats;
  // late_dropped first (see mirror_counters).
  stats.late_dropped = s.late_dropped.load(std::memory_order_acquire);
  stats.ingested = s.ingested.load(std::memory_order_relaxed);
  stats.matched = s.matched.load(std::memory_order_relaxed);
  stats.unmatched = s.unmatched.load(std::memory_order_relaxed);
  stats.next_epoch_to_close = s.next_epoch.load(std::memory_order_relaxed);
  stats.epochs_closed = s.epochs_closed.load(std::memory_order_relaxed);
  if (const std::int64_t watermark =
          s.watermark_ms.load(std::memory_order_relaxed);
      watermark != kNoWatermark) {
    stats.watermark = TimePoint{watermark};
  }
  stats.open_buffer_bytes = s.open_bytes.load(std::memory_order_relaxed);
  stats.peak_open_buffer_bytes =
      s.peak_open_bytes.load(std::memory_order_relaxed);
  stats.compact_spills = s.compact_spills.load(std::memory_order_relaxed);
  return stats;
}

stream::HealthState ClusterRuntime::sample_health(double now_ms) {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  stream::HealthState worst = stream::HealthState::kOk;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    stats.push_back(shard_stats(i));
    worst = std::max(worst, shards_[i]->monitor->sample(stats[i], now_ms));
  }
  const std::int64_t frontier = merger_.merge_frontier();
  const std::int64_t lag = merger_.max_shard_progress() - frontier;
  if (lag >= kUnhealthyFrontierLag) {
    worst = std::max(worst, stream::HealthState::kUnhealthy);
  } else if (lag >= kDegradedFrontierLag) {
    worst = std::max(worst, stream::HealthState::kDegraded);
  }
  cluster_state_.store(static_cast<int>(worst), std::memory_order_relaxed);

  const obs::Telemetry& tel = telemetry();
  if (tel.journal != nullptr) {
    // Journal every state change since the previous sample (shard-level and
    // cluster-level), and flush the black box the moment one turns
    // unhealthy — by then the interesting history is already in the ring.
    const auto transition = [&tel](std::int32_t shard, int& prev,
                                   stream::HealthState now) {
      if (static_cast<int>(now) == prev) return;
      tel.log(obs::EventKind::kHealthTransition, shard,
              obs::JournalEvent::kNoEpoch, static_cast<double>(now),
              std::string(stream::health_state_name(
                  static_cast<stream::HealthState>(prev))) +
                  "->" + std::string(stream::health_state_name(now)));
      prev = static_cast<int>(now);
      if (now == stream::HealthState::kUnhealthy) {
        (void)tel.journal->auto_dump();
      }
    };
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      transition(static_cast<std::int32_t>(i), prev_shard_state_[i],
                 shards_[i]->monitor->state());
    }
    transition(-1, prev_cluster_state_, worst);
  }

  obs::MetricsRegistry* const metrics = tel.metrics;
  if (metrics != nullptr) {
    metrics->gauge("cluster.health.state").set(static_cast<double>(worst));
    metrics->gauge("cluster.merge_frontier")
        .set(static_cast<double>(frontier));
    metrics->gauge("cluster.frontier_lag").set(static_cast<double>(lag));
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const std::string label = "shard_" + std::to_string(i);
      metrics->gauge("cluster.shard.health_state", label)
          .set(static_cast<double>(shards_[i]->monitor->state()));
      metrics->gauge("cluster.shard.ingested", label)
          .set(static_cast<double>(stats[i].ingested));
      metrics->gauge("cluster.shard.matched", label)
          .set(static_cast<double>(stats[i].matched));
      metrics->gauge("cluster.shard.late_dropped", label)
          .set(static_cast<double>(stats[i].late_dropped));
      metrics->gauge("cluster.shard.next_epoch", label)
          .set(static_cast<double>(stats[i].next_epoch_to_close));
      metrics->gauge("cluster.shard.open_buffer_bytes", label)
          .set(static_cast<double>(stats[i].open_buffer_bytes));
      metrics->gauge("cluster.shard.open_buffer_bytes.peak", label)
          .set(static_cast<double>(stats[i].peak_open_buffer_bytes));
      if (config_.compact_state) {
        metrics->gauge("cluster.shard.compact_spills", label)
            .set(static_cast<double>(stats[i].compact_spills));
      }
    }
  }
  return worst;
}

json::Value ClusterRuntime::health_json() const {
  const std::int64_t frontier = merger_.merge_frontier();
  const std::int64_t progress = merger_.max_shard_progress();

  json::Array shards;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const stream::StreamHealthSignals signals =
        shards_[i]->monitor->last_signals();
    json::Object entry;
    entry.emplace("shard", number(static_cast<std::int64_t>(i)));
    entry.emplace("state",
                  json::Value(std::string(stream::health_state_name(
                      shards_[i]->monitor->state()))));
    entry.emplace("watermark_lag_ms", number(signals.watermark_lag_ms));
    entry.emplace("late_rate", number(signals.late_rate));
    entry.emplace("open_buffer_bytes", number(signals.open_buffer_bytes));
    entry.emplace("peak_open_buffer_bytes",
                  number(shards_[i]->peak_open_bytes.load(
                      std::memory_order_relaxed)));
    entry.emplace("ingested", number(signals.ingested));
    entry.emplace("matched", number(signals.matched));
    entry.emplace("late_dropped", number(signals.late_dropped));
    entry.emplace("epochs_closed", number(signals.epochs_closed));
    shards.emplace_back(std::move(entry));
  }

  json::Object root;
  root.emplace("schema", json::Value(std::string(kHealthSchema)));
  root.emplace("state", json::Value(std::string(stream::health_state_name(
                            cluster_state()))));
  root.emplace("merge_frontier", number(frontier));
  root.emplace("max_shard_progress", number(progress));
  root.emplace("frontier_lag", number(progress - frontier));
  root.emplace("shards", json::Value(std::move(shards)));
  if (telemetry().lag != nullptr) {
    // A "degraded" verdict names its suspect: the slowest pipeline stage and
    // the shard that accumulated the most wall time.
    root.emplace("lag", telemetry().lag->attribution_json());
  }
  return json::Value(std::move(root));
}

// --- checkpointing ----------------------------------------------------------

json::Value ClusterRuntime::checkpoint() {
  // Pending producer-side batches are part of the state being snapshotted.
  // Once drained, every shard thread waits on its empty queue, so the
  // engines and the frontier read below belong to one cut.
  drain();
  json::Array shards;
  shards.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shards.emplace_back(shard->engine->checkpoint());
  }
  json::Object root;
  root.emplace("schema", json::Value(std::string(kCheckpointSchema)));
  root.emplace("router", config_.router.to_json());
  root.emplace("merge_frontier", number(merger_.merge_frontier()));
  root.emplace("shards", json::Value(std::move(shards)));
  telemetry().log(obs::EventKind::kCheckpoint, -1, obs::JournalEvent::kNoEpoch,
                  static_cast<double>(merger_.merge_frontier()));
  return json::Value(std::move(root));
}

void ClusterRuntime::restore(const json::Value& checkpoint) {
  // A front holding a watermark has seen an ingest or an advance (an
  // inline shard's engine refuses a restore on the same grounds).
  if (started_ || finished_ || (front_ && front_->watermark())) {
    throw ConfigError("ClusterRuntime::restore: runtime already used");
  }
  if (merger_.merged_count() != 0) {
    throw ConfigError("ClusterRuntime::restore: merger already populated");
  }
  if (checkpoint.at("schema").as_string() != kCheckpointSchema) {
    throw DataError("ClusterRuntime::restore: unknown schema '" +
                    checkpoint.at("schema").as_string() + "'");
  }
  // Compare the stored router's shape before building it: a corrupt count
  // must not size an allocation.
  const json::Value& stored_router = checkpoint.at("router");
  const json::Value configured_router = config_.router.to_json();
  for (const char* key : {"mode", "server_count", "shard_count"}) {
    if (json::write(stored_router.at(key)) !=
        json::write(configured_router.at(key))) {
      throw DataError(std::string("ClusterRuntime::restore: checkpoint was "
                                  "taken under a different routing (router ") +
                      key + " mismatch)");
    }
  }
  const ShardRouter stored = ShardRouter::from_json(stored_router);
  if (!(stored == config_.router)) {
    throw DataError(
        "ClusterRuntime::restore: checkpoint was taken under a different "
        "routing — resumed traffic would land on the wrong shards");
  }
  const json::Array& shards = checkpoint.at("shards").as_array();
  if (shards.size() != shards_.size()) {
    throw DataError("ClusterRuntime::restore: checkpoint holds " +
                    std::to_string(shards.size()) + " shards, runtime has " +
                    std::to_string(shards_.size()));
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->engine->restore(shards[i]);
  }
  if (!inline_) {
    // The front resumes from the shard entries' union — the maximum
    // watermark and the summed counters, exactly a single engine's over the
    // union trace.
    stream::FrontCounters total;
    std::optional<TimePoint> watermark;
    std::int64_t closed_min = config_.first_epoch + config_.epoch_count;
    std::int64_t closed_max = config_.first_epoch;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      const stream::StreamEngine& engine = *shard->engine;
      total += stream::FrontCounters{engine.ingested(), engine.matched(),
                                     engine.unmatched(), engine.late_dropped()};
      watermark = std::max(watermark, engine.watermark());
      closed_min = std::min(closed_min, engine.next_epoch_to_close());
      closed_max = std::max(closed_max, engine.next_epoch_to_close());
    }
    front_->resume(total, watermark, closed_min);
    // Shards that closed different epochs (cut from a runtime whose shards
    // closed on their own watermarks) have crossed boundaries the union
    // watermark crossed too: before its next tuple or advance, the front
    // closes those epochs everywhere.
    if (closed_max > closed_min) catch_up_through_ = closed_max - 1;
  }

  // Rebuild the merger from the restored engines' closed rows. The replay is
  // silent — history records only post-restore merges, exactly as a restored
  // single engine records only post-restore closes.
  replaying_ = true;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const auto rows = shards_[i]->engine->closed_rows();
    for (std::size_t j = 0; j < rows.size(); ++j) {
      merger_.offer(i, config_.first_epoch + static_cast<std::int64_t>(j),
                    std::vector<estimators::EpochCell>(rows[j].begin(),
                                                       rows[j].end()));
    }
  }
  replaying_ = false;

  const std::int64_t stored_frontier =
      checkpoint.at("merge_frontier").as_int();
  if (stored_frontier != merger_.merge_frontier()) {
    throw DataError("ClusterRuntime::restore: stored merge frontier " +
                    std::to_string(stored_frontier) +
                    " does not match the replayed frontier " +
                    std::to_string(merger_.merge_frontier()));
  }

  for (std::size_t i = 0; i < shards_.size(); ++i) {
    mirror_counters(*shards_[i]);
  }
  telemetry().log(obs::EventKind::kRestore, -1, obs::JournalEvent::kNoEpoch,
                  static_cast<double>(merger_.merge_frontier()));
}

}  // namespace botmeter::cluster
