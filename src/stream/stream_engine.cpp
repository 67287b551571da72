#include "stream/stream_engine.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/landscape_history.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace botmeter::stream {

namespace {

constexpr const char* kCheckpointSchema = "botmeter.stream_checkpoint.v1";

template <typename T>
json::Value number(T v) {
  return json::Value(static_cast<double>(v));
}

}  // namespace

void StreamEngineConfig::validate() const {
  meter.validate();
  if (epoch_count <= 0) {
    throw ConfigError("StreamEngineConfig: epoch_count must be > 0");
  }
  if (server_count == 0) {
    throw ConfigError("StreamEngineConfig: server_count must be > 0");
  }
  if (allowed_lateness && allowed_lateness->millis() < 0) {
    throw ConfigError("StreamEngineConfig: allowed_lateness must be >= 0");
  }
  if (compact_state) {
    compact.validate();
    if (compact_spill_threshold == 0) {
      throw ConfigError(
          "StreamEngineConfig: compact_spill_threshold must be > 0");
    }
  }
}

double EpochReport::total_population() const {
  double total = 0.0;
  for (const core::ServerEstimate& s : servers) total += s.population;
  return total;
}

core::LandscapeReport EpochReport::as_landscape() const {
  core::LandscapeReport report;
  report.estimator_name = estimator_name;
  report.servers = servers;
  return report;
}

namespace {

std::shared_ptr<const core::BotMeter> prepared_meter(
    const StreamEngineConfig& config,
    std::shared_ptr<const core::BotMeter> shared) {
  if (shared == nullptr) {
    auto own = std::make_shared<core::BotMeter>(config.meter);
    own->prepare_epochs(config.first_epoch, config.epoch_count);
    return own;
  }
  // The grid holds the horizon; the matcher attributes to every prepared epoch.
  const std::span<const std::int64_t> epochs = shared->prepared_epochs();
  if (epochs.size() != static_cast<std::size_t>(config.epoch_count) ||
      epochs.front() != config.first_epoch ||
      epochs.back() != config.first_epoch + config.epoch_count - 1) {
    throw ConfigError(
        "StreamEngine: shared meter not prepared for exactly the horizon");
  }
  return shared;
}

}  // namespace

/// The engine's own back as its front's sink: evidence lands in the open
/// grid, closes close here. Admission keeps every server inside the grid.
struct StreamEngine::Back {
  StreamEngine& engine;

  void admit(std::uint32_t server, std::int64_t /*t_ms*/) {
    if (server >= engine.config_.server_count) {
      throw ConfigError("StreamEngine: server id " + std::to_string(server) +
                        " outside the configured width " +
                        std::to_string(engine.config_.server_count));
    }
  }
  void late(std::uint32_t /*server*/) {}
  void append(std::uint32_t server, std::int64_t epoch,
              const detect::MatchedLookup& lookup) {
    engine.append_evidence(server, epoch, lookup);
  }
  void close(std::int64_t /*epoch*/) { engine.close_next_epoch(); }
};

StreamEngine::StreamEngine(StreamEngineConfig config,
                           std::shared_ptr<const core::BotMeter> meter)
    : config_((config.validate(), std::move(config))),
      meter_(prepared_meter(config_, std::move(meter))),
      // kAllow: close-time estimation is bit-identical for any worker count,
      // and determinism tests pin counts above small CI machines' cores.
      workers_(config_.meter.analyze_threads,
               WorkerPool::Oversubscribe::kAllow),
      front_(meter_->matcher(), config_.first_epoch, config_.epoch_count,
             config_.allowed_lateness, config_.meter.telemetry.trace),
      open_(static_cast<std::size_t>(config_.epoch_count)) {
  if (config_.compact_state &&
      !meter_->active_estimator().compact_support().supported) {
    throw ConfigError(
        "StreamEngine: estimator '" +
        std::string(meter_->active_estimator().name()) +
        "' has no compact observation path; compact_state requires one");
  }
}

void StreamEngine::on_epoch_close(EpochCallback callback) {
  on_close_ = std::move(callback);
}

std::int64_t StreamEngine::next_epoch_to_close() const {
  return config_.first_epoch + static_cast<std::int64_t>(closed_.size());
}

StreamStats StreamEngine::stats() const {
  return {ingested(), matched(), unmatched(), late_dropped(),
          next_epoch_to_close(), close_latencies_ms_.size(), watermark(),
          open_bytes_, peak_open_bytes_, compact_spills_};
}

void StreamEngine::note_open_bytes_grew(std::size_t delta) {
  open_bytes_ += delta;
  peak_open_bytes_ = std::max(peak_open_bytes_, open_bytes_);
}

void StreamEngine::spill_bucket(OpenBucket& bucket, std::int64_t epoch) {
  bucket.compact = std::make_unique<estimators::CompactCell>(
      meter_->compact_spec_for_epoch(epoch, config_.compact));
  bucket.compact->add_all(bucket.exact);
  open_bytes_ -= bucket.exact.capacity() * sizeof(detect::MatchedLookup);
  // Free, not clear — the buffer is what the spill sheds. (`= {}` would take
  // the initializer_list assignment, which keeps the capacity allocated.)
  std::vector<detect::MatchedLookup>{}.swap(bucket.exact);
  note_open_bytes_grew(bucket.compact->memory_bytes());
  ++compact_spills_;
}

void StreamEngine::append_evidence(std::uint32_t server, std::int64_t epoch,
                                   const detect::MatchedLookup& lookup) {
  std::vector<OpenBucket>& row =
      open_[static_cast<std::size_t>(epoch - config_.first_epoch)];
  if (row.empty()) row.resize(config_.server_count);
  OpenBucket& bucket = row[server];
  ++resident_;
  peak_resident_ = std::max(peak_resident_, resident_);
  if (bucket.compact != nullptr) {
    bucket.compact->add(lookup);  // cell footprint is constant
    return;
  }
  const std::size_t before = bucket.exact.capacity();
  bucket.exact.push_back(lookup);
  if (const std::size_t after = bucket.exact.capacity(); after != before) {
    note_open_bytes_grew((after - before) * sizeof(detect::MatchedLookup));
  }
  if (config_.compact_state &&
      bucket.exact.size() >= config_.compact_spill_threshold) {
    spill_bucket(bucket, epoch);
  }
}

void StreamEngine::ingest(const dns::ForwardedLookup& lookup) {
  if (finished_) throw ConfigError("StreamEngine: ingest after finish()");
  Back back{*this};
  front_.ingest(lookup, back);
}

void StreamEngine::ingest(std::span<const dns::ForwardedLookup> batch) {
  for (const dns::ForwardedLookup& lookup : batch) ingest(lookup);
}

void StreamEngine::ingest_block(const dns::LookupColumns& block,
                                std::span<const std::string_view> domains) {
  if (finished_) throw ConfigError("StreamEngine: ingest after finish()");
  obs::ScopedTimer block_span(config_.meter.telemetry.trace,
                              "stream.block.ingest");
  Back back{*this};
  front_.ingest_block(block, domains, back);
}

void StreamEngine::ingest_evidence(const EvidenceBatch& batch) {
  if (finished_) throw ConfigError("StreamEngine: ingest after finish()");
  front_.absorb(batch.counts, batch.watermark);
  for (const Evidence& evidence : batch.records) {
    append_evidence(evidence.server, evidence.epoch, evidence.lookup);
  }
  if (batch.close_through) {
    Back back{*this};
    front_.close_through(*batch.close_through, back);
  }
}

void StreamEngine::advance(TimePoint watermark) {
  if (finished_) throw ConfigError("StreamEngine: advance after finish()");
  Back back{*this};
  front_.advance(watermark, back);
}

void StreamEngine::close_through(std::int64_t epoch) {
  if (finished_) throw ConfigError("StreamEngine: close_through after finish()");
  Back back{*this};
  front_.close_through(epoch, back);
}

void StreamEngine::close_next_epoch() {
  const std::int64_t epoch = next_epoch_to_close();
  const auto wall_start = std::chrono::steady_clock::now();

  // Take this epoch's row of the grid, releasing it (one bucket per server;
  // servers with no matched traffic get an empty bucket — a population-0
  // statement, exactly as in batch analyze).
  std::vector<OpenBucket> row = std::exchange(
      open_[static_cast<std::size_t>(epoch - config_.first_epoch)], {});
  std::vector<std::vector<detect::MatchedLookup>> buckets(config_.server_count);
  std::vector<std::unique_ptr<estimators::CompactCell>> compact_cells;
  if (config_.compact_state) compact_cells.resize(config_.server_count);
  std::uint64_t epoch_matched = 0;
  for (std::size_t s = 0; s < row.size(); ++s) {
    OpenBucket& bucket = row[s];
    open_bytes_ -= bucket.exact.capacity() * sizeof(detect::MatchedLookup);
    if (bucket.compact != nullptr) {
      open_bytes_ -= bucket.compact->memory_bytes();
      epoch_matched += bucket.compact->matched();
      compact_cells[s] = std::move(bucket.compact);
    } else {
      epoch_matched += bucket.exact.size();
      buckets[s] = std::move(bucket.exact);
    }
  }
  resident_ -= static_cast<std::size_t>(epoch_matched);

  // Per-server estimation through the meter's shared row path — the same
  // code batch analyze runs per prepared epoch (worker sharding, shared
  // per-epoch EstimationContext, canonical bucket sort), which is what keeps
  // streaming closes bit-identical to the batch pipeline.
  const estimators::Estimator& estimator = meter_->active_estimator();
  closed_.push_back(meter_->estimate_epoch_row(epoch, std::move(buckets),
                                              std::move(compact_cells),
                                              &workers_, "stream.close.server"));

  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                wall_start)
          .count();
  close_latencies_ms_.push_back(wall_ms);

  const obs::Telemetry& telemetry = config_.meter.telemetry;
  obs::MetricsRegistry* const metrics = telemetry.metrics;
  if (metrics != nullptr) {
    const std::string label = "epoch_" + std::to_string(epoch);
    metrics->counter("stream.closed_epochs").add(1);
    metrics->counter("stream.matched.per_epoch", label).add(epoch_matched);
    // 0.25 ms .. ~512 ms, doubling: sub-millisecond closes on small horizons
    // up to flushes that threaten a one-second epoch cadence.
    static const std::vector<double> kCloseLatencyBounds =
        obs::exponential_bounds(0.25, 2.0, 12);
    metrics->histogram("stream.epoch_close_latency_ms", kCloseLatencyBounds)
        .observe(wall_ms);
    metrics->gauge("stream.resident_lookups").set(static_cast<double>(resident_));
    metrics->gauge("stream.resident_lookups.peak")
        .set(static_cast<double>(peak_resident_));
    metrics->gauge("stream.open_buffer_bytes")
        .set(static_cast<double>(open_bytes_));
    metrics->gauge("stream.open_buffer_bytes.peak")
        .set(static_cast<double>(peak_open_bytes_));
    if (config_.compact_state) {
      metrics->gauge("stream.compact_spills")
          .set(static_cast<double>(compact_spills_));
    }
    flush_counters(*metrics);
  }
  if (telemetry.trace != nullptr) {
    telemetry.trace->record("stream.epoch_close", wall_ms);
  }
  if (telemetry.history != nullptr) {
    telemetry.history->record(core::history_row(epoch, config_.meter.dga.name,
                                                std::string(estimator.name()),
                                                closed_.back()));
  }

  if (on_close_) {
    const std::vector<Cell>& cells = closed_.back();
    EpochReport report;
    report.epoch = epoch;
    report.estimator_name = std::string(estimator.name());
    report.servers.reserve(config_.server_count);
    for (std::uint32_t s = 0; s < config_.server_count; ++s) {
      core::ServerEstimate estimate;
      estimate.server = dns::ServerId{s};
      estimate.population = cells[s].estimate.value;
      estimate.per_epoch.emplace_back(epoch, cells[s].estimate.value);
      estimate.matched_lookups = cells[s].matched;
      estimate.interval90 = cells[s].estimate.interval;
      estimate.approximate = cells[s].estimate.approximate;
      estimate.sketch_rse = cells[s].estimate.sketch_rse;
      report.servers.push_back(std::move(estimate));
    }
    on_close_(report);
  }
}

core::LandscapeReport StreamEngine::finish() {
  if (finished_) throw ConfigError("StreamEngine: finish() called twice");
  close_through(config_.first_epoch + config_.epoch_count - 1);
  finished_ = true;

  // The shared assembly batch analyze runs, over the same cells in the same
  // epoch order — hence bit-identical totals.
  core::LandscapeReport report = core::assemble_landscape(
      std::string(meter_->active_estimator().name()), closed_,
      config_.server_count);

  obs::MetricsRegistry* const metrics = config_.meter.telemetry.metrics;
  if (metrics != nullptr) {
    flush_counters(*metrics);
    metrics->gauge("stream.population.total").set(report.total_population());
  }
  return report;
}

void StreamEngine::flush_counters(obs::MetricsRegistry& metrics) {
  const FrontCounters& now = front_.counters();
  metrics.counter("stream.ingested").add(now.ingested - flushed_.ingested);
  metrics.counter("stream.matched").add(now.matched - flushed_.matched);
  metrics.counter("stream.unmatched").add(now.unmatched - flushed_.unmatched);
  metrics.counter("stream.late_dropped")
      .add(now.late_dropped - flushed_.late_dropped);
  flushed_ = now;
}

// --- checkpointing ---------------------------------------------------------

json::Value StreamEngine::checkpoint() const {
  json::Object fingerprint;
  fingerprint.emplace("family", json::Value(config_.meter.dga.name));
  fingerprint.emplace("dga_seed", number(config_.meter.dga.seed));
  fingerprint.emplace("estimator", json::Value(config_.meter.estimator));
  fingerprint.emplace("window_seed", number(config_.meter.seed));
  fingerprint.emplace("detection_miss_rate",
                      number(config_.meter.detection_miss_rate));
  fingerprint.emplace("first_epoch", number(config_.first_epoch));
  fingerprint.emplace("epoch_count", number(config_.epoch_count));
  fingerprint.emplace("server_count", number(config_.server_count));
  fingerprint.emplace("neg_ttl_ms", number(config_.meter.ttl.negative.millis()));
  // Compact-mode fields appear only when the mode is on, so exact engines'
  // checkpoints stay byte-identical to their pre-compact form.
  if (config_.compact_state) {
    fingerprint.emplace("compact_state", json::Value(true));
    fingerprint.emplace("compact_spill_threshold",
                        number(config_.compact_spill_threshold));
    fingerprint.emplace("compact_kmv_k", number(config_.compact.kmv_k));
  }

  json::Array closed;
  for (std::size_t i = 0; i < closed_.size(); ++i) {
    const std::vector<Cell>& row = closed_[i];
    json::Array value, matched, lo, hi;
    bool any_approximate = false;
    for (const Cell& cell : row) {
      value.push_back(number(cell.estimate.value));
      matched.push_back(number(cell.matched));
      if (cell.estimate.interval) {
        lo.push_back(number(cell.estimate.interval->first));
        hi.push_back(number(cell.estimate.interval->second));
      } else {
        lo.emplace_back(nullptr);
        hi.emplace_back(nullptr);
      }
      any_approximate = any_approximate || cell.estimate.approximate;
    }
    json::Object row_obj;
    row_obj.emplace("epoch",
                    number(config_.first_epoch + static_cast<std::int64_t>(i)));
    row_obj.emplace("value", json::Value(std::move(value)));
    row_obj.emplace("matched", json::Value(std::move(matched)));
    row_obj.emplace("lo", json::Value(std::move(lo)));
    row_obj.emplace("hi", json::Value(std::move(hi)));
    if (any_approximate) {
      // Emitted only when some cell is sketch-approximate, keeping exact
      // rows byte-identical to the v1 layout.
      json::Array approx, rse;
      for (const Cell& cell : row) {
        approx.push_back(
            number(static_cast<std::int64_t>(cell.estimate.approximate ? 1 : 0)));
        rse.push_back(number(cell.estimate.sketch_rse));
      }
      row_obj.emplace("approx", json::Value(std::move(approx)));
      row_obj.emplace("rse", json::Value(std::move(rse)));
    }
    closed.emplace_back(std::move(row_obj));
  }

  // Every bucket holding evidence, in (server, epoch) order.
  json::Array open;
  for (std::size_t server = 0; server < config_.server_count; ++server) {
    for (std::size_t row = 0; row < open_.size(); ++row) {
      if (open_[row].empty()) continue;
      const OpenBucket& bucket = open_[row][server];
      if (bucket.exact.empty() && bucket.compact == nullptr) continue;
      json::Array t, pos, valid;
      for (const detect::MatchedLookup& lookup : bucket.exact) {
        t.push_back(number(lookup.t.millis()));
        pos.push_back(number(static_cast<std::int64_t>(lookup.pool_position)));
        valid.push_back(number(static_cast<std::int64_t>(
            lookup.is_valid_domain ? 1 : 0)));
      }
      json::Object bucket_obj;
      bucket_obj.emplace("server", number(server));
      bucket_obj.emplace(
          "epoch", number(config_.first_epoch + static_cast<std::int64_t>(row)));
      bucket_obj.emplace("t", json::Value(std::move(t)));
      bucket_obj.emplace("pos", json::Value(std::move(pos)));
      bucket_obj.emplace("valid", json::Value(std::move(valid)));
      if (bucket.compact != nullptr) {
        // A spilled bucket: the sketch cell is the state (`exact` is empty).
        bucket_obj.emplace("compact", bucket.compact->serialize());
      }
      open.emplace_back(std::move(bucket_obj));
    }
  }

  json::Object root;
  root.emplace("schema", json::Value(std::string(kCheckpointSchema)));
  root.emplace("config", json::Value(std::move(fingerprint)));
  const std::optional<TimePoint> watermark = front_.watermark();
  root.emplace("watermark_ms", watermark ? number(watermark->millis())
                                         : json::Value(nullptr));
  root.emplace("ingested", number(ingested()));
  root.emplace("matched", number(matched()));
  root.emplace("unmatched", number(unmatched()));
  root.emplace("late_dropped", number(late_dropped()));
  root.emplace("peak_resident", number(peak_resident_));
  // Only compact engines carry a spill counter, keeping exact checkpoints
  // byte-identical to their pre-compact form.
  if (config_.compact_state) {
    root.emplace("compact_spills", number(compact_spills_));
  }
  root.emplace("finished", json::Value(finished_));
  root.emplace("closed", json::Value(std::move(closed)));
  root.emplace("open", json::Value(std::move(open)));
  return json::Value(std::move(root));
}

void StreamEngine::restore(const json::Value& checkpoint) {
  // An advance alone leaves only a watermark behind; restoring over it
  // would silently move time backwards.
  if (ingested() != 0 || watermark() || !closed_.empty() || resident_ != 0 ||
      finished_) {
    throw ConfigError("StreamEngine::restore: engine already used");
  }
  if (checkpoint.at("schema").as_string() != kCheckpointSchema) {
    throw DataError("StreamEngine::restore: unknown schema '" +
                    checkpoint.at("schema").as_string() + "'");
  }

  const json::Value& fp = checkpoint.at("config");
  auto require = [&fp](const std::string& key, auto actual) {
    const double stored = fp.at(key).as_double();
    if (stored != static_cast<double>(actual)) {
      throw DataError("StreamEngine::restore: checkpoint was taken under a "
                      "different configuration (" + key + " mismatch)");
    }
  };
  if (fp.at("family").as_string() != config_.meter.dga.name) {
    throw DataError(
        "StreamEngine::restore: checkpoint was taken under a different "
        "configuration (family mismatch)");
  }
  if (fp.at("estimator").as_string() != config_.meter.estimator) {
    throw DataError(
        "StreamEngine::restore: checkpoint was taken under a different "
        "configuration (estimator mismatch)");
  }
  require("dga_seed", config_.meter.dga.seed);
  require("window_seed", config_.meter.seed);
  require("detection_miss_rate", config_.meter.detection_miss_rate);
  require("first_epoch", config_.first_epoch);
  require("epoch_count", config_.epoch_count);
  require("server_count", config_.server_count);
  require("neg_ttl_ms", config_.meter.ttl.negative.millis());
  const bool checkpoint_compact = fp.find("compact_state") != nullptr;
  if (checkpoint_compact && !config_.compact_state) {
    // Sketch state cannot be expanded back into exact buffers; a compact
    // checkpoint only restores into a compact engine.
    throw DataError(
        "StreamEngine::restore: compact-state checkpoint into an exact "
        "engine (enable compact_state to resume it)");
  }
  if (checkpoint_compact) {
    // Sketch parameters shape the live cells; resuming under different ones
    // would silently mix error regimes. Keys of since-removed knobs (the
    // count-min shape and switch, the slot cap) are ignored; each stored
    // cell's shape is still checked against this engine's spec below.
    require("compact_spill_threshold", config_.compact_spill_threshold);
    require("compact_kmv_k", config_.compact.kmv_k);
  }
  // An exact checkpoint *is* restorable into a compact engine: the exact
  // buckets load verbatim and any at or past the spill threshold are spilled
  // below, exactly as if the threshold had been crossed live (cells are
  // insertion-order invariant, so the result is identical).

  // Parse the entire payload into locals first and commit members only once
  // every field validated. A checkpoint rejected mid-parse (truncated row,
  // out-of-range bucket, misaligned arrays) must leave the engine exactly as
  // constructed — empty and usable — not with a half-loaded watermark and
  // counters that a retry or fallback ingest would silently build on.
  std::optional<TimePoint> new_watermark;
  const json::Value& watermark = checkpoint.at("watermark_ms");
  if (!watermark.is_null()) new_watermark = TimePoint{watermark.as_int()};
  FrontCounters new_counters;
  new_counters.ingested =
      static_cast<std::uint64_t>(checkpoint.at("ingested").as_int());
  new_counters.matched =
      static_cast<std::uint64_t>(checkpoint.at("matched").as_int());
  new_counters.unmatched =
      static_cast<std::uint64_t>(checkpoint.at("unmatched").as_int());
  new_counters.late_dropped =
      static_cast<std::uint64_t>(checkpoint.at("late_dropped").as_int());
  auto new_peak_resident =
      static_cast<std::size_t>(checkpoint.at("peak_resident").as_int());
  // Absent in exact checkpoints; spills-on-load below add on top.
  std::uint64_t new_compact_spills = 0;
  if (const json::Value* spills = checkpoint.find("compact_spills");
      spills != nullptr) {
    new_compact_spills = static_cast<std::uint64_t>(spills->as_int());
  }
  const bool new_finished = checkpoint.at("finished").as_bool();

  std::vector<std::vector<Cell>> new_closed;
  const json::Array& closed = checkpoint.at("closed").as_array();
  if (closed.size() > static_cast<std::size_t>(config_.epoch_count)) {
    throw DataError("StreamEngine::restore: more closed epochs than the horizon");
  }
  for (std::size_t i = 0; i < closed.size(); ++i) {
    const json::Value& row_obj = closed[i];
    if (row_obj.at("epoch").as_int() !=
        config_.first_epoch + static_cast<std::int64_t>(i)) {
      throw DataError("StreamEngine::restore: closed epochs not contiguous");
    }
    const json::Array& value = row_obj.at("value").as_array();
    const json::Array& matched = row_obj.at("matched").as_array();
    const json::Array& lo = row_obj.at("lo").as_array();
    const json::Array& hi = row_obj.at("hi").as_array();
    if (value.size() != config_.server_count ||
        matched.size() != config_.server_count ||
        lo.size() != config_.server_count || hi.size() != config_.server_count) {
      throw DataError("StreamEngine::restore: closed row width mismatch");
    }
    const json::Value* approx = row_obj.find("approx");
    const json::Value* rse = row_obj.find("rse");
    if ((approx == nullptr) != (rse == nullptr)) {
      throw DataError("StreamEngine::restore: approx/rse arrays misaligned");
    }
    if (approx != nullptr &&
        (approx->as_array().size() != config_.server_count ||
         rse->as_array().size() != config_.server_count)) {
      throw DataError("StreamEngine::restore: closed row width mismatch");
    }
    std::vector<Cell> row(config_.server_count);
    for (std::size_t s = 0; s < config_.server_count; ++s) {
      row[s].epoch = row_obj.at("epoch").as_int();
      row[s].estimate.value = value[s].as_double();
      row[s].matched = static_cast<std::uint64_t>(matched[s].as_int());
      if (!lo[s].is_null() != !hi[s].is_null()) {
        throw DataError("StreamEngine::restore: half-open interval in cell");
      }
      if (!lo[s].is_null()) {
        row[s].estimate.interval = {lo[s].as_double(), hi[s].as_double()};
      }
      if (approx != nullptr) {
        row[s].estimate.approximate = approx->as_array()[s].as_int() != 0;
        row[s].estimate.sketch_rse = rse->as_array()[s].as_double();
      }
    }
    new_closed.push_back(std::move(row));
  }

  std::vector<std::vector<OpenBucket>> new_open(open_.size());
  std::set<std::pair<std::int64_t, std::int64_t>> listed;  // (server, epoch)
  std::size_t new_resident = 0;
  std::size_t new_open_bytes = 0;
  const std::int64_t open_floor =
      config_.first_epoch + static_cast<std::int64_t>(new_closed.size());
  for (const json::Value& bucket_obj : checkpoint.at("open").as_array()) {
    const std::int64_t epoch = bucket_obj.at("epoch").as_int();
    const std::int64_t server = bucket_obj.at("server").as_int();
    if (epoch < open_floor ||
        epoch >= config_.first_epoch + config_.epoch_count) {
      throw DataError("StreamEngine::restore: open bucket outside the horizon");
    }
    if (server < 0 || static_cast<std::size_t>(server) >= config_.server_count) {
      throw DataError("StreamEngine::restore: open bucket server out of range");
    }
    const json::Array& t = bucket_obj.at("t").as_array();
    const json::Array& pos = bucket_obj.at("pos").as_array();
    const json::Array& valid = bucket_obj.at("valid").as_array();
    if (t.size() != pos.size() || t.size() != valid.size()) {
      throw DataError("StreamEngine::restore: open bucket arrays misaligned");
    }
    const std::string bucket_name =
        "StreamEngine::restore: open bucket (server " + std::to_string(server) +
        ", epoch " + std::to_string(epoch) + ")";
    if (!listed.emplace(server, epoch).second) {
      throw DataError(bucket_name + " listed twice");
    }
    std::vector<OpenBucket>& row =
        new_open[static_cast<std::size_t>(epoch - config_.first_epoch)];
    if (row.empty()) row.resize(config_.server_count);
    OpenBucket& bucket = row[static_cast<std::size_t>(server)];
    if (const json::Value* compact = bucket_obj.find("compact");
        compact != nullptr) {
      if (!config_.compact_state) {
        throw DataError(
            "StreamEngine::restore: compact-state checkpoint into an exact "
            "engine (enable compact_state to resume it)");
      }
      if (!t.empty()) {
        throw DataError(
            "StreamEngine::restore: spilled bucket with exact residue");
      }
      // The stored spec is compared with this engine's before the cell is
      // built, so a tampered slot count or KMV size fails here instead of
      // sizing the cell's arrays; parse checks the KMV's own k likewise.
      std::unique_ptr<estimators::CompactCell> cell;
      try {
        if (!(estimators::CompactCellSpec::parse(compact->at("spec")) ==
              meter_->compact_spec_for_epoch(epoch, config_.compact))) {
          throw DataError(
              "compact cell spec disagrees with the engine's configuration");
        }
        cell = std::make_unique<estimators::CompactCell>(
            estimators::CompactCell::parse(*compact));
      } catch (const DataError& e) {
        throw DataError(bucket_name + ": " + e.what());
      }
      new_resident += cell->matched();
      new_open_bytes += cell->memory_bytes();
      bucket.compact = std::move(cell);
      continue;
    }
    bucket.exact.reserve(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
      bucket.exact.push_back(detect::MatchedLookup{
          TimePoint{t[i].as_int()},
          static_cast<std::uint32_t>(pos[i].as_int()),
          valid[i].as_int() != 0});
    }
    new_resident += bucket.exact.size();
    new_open_bytes += bucket.exact.capacity() * sizeof(detect::MatchedLookup);
  }
  new_peak_resident = std::max(new_peak_resident, new_resident);

  // Commit — nothing below throws (spill_bucket only allocates fixed-size
  // cells whose specs this configuration already produced above).
  front_.resume(new_counters, new_watermark, open_floor);
  finished_ = new_finished;
  closed_ = std::move(new_closed);
  open_ = std::move(new_open);
  resident_ = new_resident;
  peak_resident_ = new_peak_resident;
  open_bytes_ = new_open_bytes;
  compact_spills_ = new_compact_spills;

  // Apply the spill policy to exact buckets already past the threshold, in
  // (server, epoch) order — an exact checkpoint resumed by a compact engine
  // spills on load, and cells are insertion-order invariant, so the state
  // matches a live-spilled run.
  if (config_.compact_state) {
    for (std::size_t server = 0; server < config_.server_count; ++server) {
      for (std::size_t row = 0; row < open_.size(); ++row) {
        if (open_[row].empty()) continue;
        OpenBucket& bucket = open_[row][server];
        if (bucket.compact == nullptr &&
            bucket.exact.size() >= config_.compact_spill_threshold) {
          spill_bucket(bucket,
                       config_.first_epoch + static_cast<std::int64_t>(row));
        }
      }
    }
  }
  peak_open_bytes_ = std::max(peak_open_bytes_, open_bytes_);
}

}  // namespace botmeter::stream
