#include "core/botmeter.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "estimators/context.hpp"
#include "estimators/observation.hpp"
#include "obs/landscape_history.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace botmeter::core {

void BotMeterConfig::validate() const {
  dga.validate();
  ttl.validate();
  if (detection_miss_rate < 0.0 || detection_miss_rate > 1.0) {
    throw ConfigError("BotMeterConfig: detection_miss_rate must be in [0,1]");
  }
  if (assumed_miss_rate &&
      (*assumed_miss_rate < 0.0 || *assumed_miss_rate >= 1.0)) {
    throw ConfigError("BotMeterConfig: assumed_miss_rate must be in [0,1)");
  }
}

double LandscapeReport::total_population() const {
  double total = 0.0;
  for (const ServerEstimate& s : servers) total += s.population;
  return total;
}

json::Value landscape_to_json(const LandscapeReport& report) {
  json::Array servers;
  for (const ServerEstimate& s : report.servers) {
    json::Array per_epoch;
    for (const auto& [epoch, value] : s.per_epoch) {
      json::Array pair;
      pair.emplace_back(static_cast<double>(epoch));
      pair.emplace_back(value);
      per_epoch.emplace_back(std::move(pair));
    }
    json::Object server;
    server.emplace("server", json::Value(static_cast<double>(s.server.value())));
    server.emplace("population", json::Value(s.population));
    server.emplace("matched_lookups",
                   json::Value(static_cast<double>(s.matched_lookups)));
    server.emplace("per_epoch", json::Value(std::move(per_epoch)));
    server.emplace("interval90_lo", s.interval90
                                        ? json::Value(s.interval90->first)
                                        : json::Value(nullptr));
    server.emplace("interval90_hi", s.interval90
                                        ? json::Value(s.interval90->second)
                                        : json::Value(nullptr));
    // Emitted only for sketch-approximate estimates so exact pipelines stay
    // byte-identical to their pre-compact output.
    if (s.approximate) {
      server.emplace("approximate", json::Value(true));
      server.emplace("sketch_rse", json::Value(s.sketch_rse));
    }
    servers.emplace_back(std::move(server));
  }
  json::Object root;
  root.emplace("estimator", json::Value(report.estimator_name));
  root.emplace("servers", json::Value(std::move(servers)));
  return json::Value(std::move(root));
}

LandscapeReport assemble_landscape(
    std::string estimator_name,
    std::span<const std::vector<estimators::EpochCell>> rows,
    std::size_t server_count) {
  LandscapeReport report;
  report.estimator_name = std::move(estimator_name);
  report.servers.reserve(server_count);
  std::vector<estimators::EpochCell> column(rows.size());
  for (std::uint32_t s = 0; s < server_count; ++s) {
    ServerEstimate estimate;
    estimate.server = dns::ServerId{s};
    for (std::size_t i = 0; i < rows.size(); ++i) {
      column[i] = rows[i][s];
      estimate.per_epoch.emplace_back(column[i].epoch,
                                      column[i].estimate.value);
    }
    const estimators::WindowAggregate aggregate =
        estimators::aggregate_cells(column);
    estimate.population = aggregate.population;
    estimate.interval90 = aggregate.interval;
    estimate.matched_lookups = aggregate.matched;
    estimate.approximate = aggregate.approximate;
    estimate.sketch_rse = aggregate.sketch_rse;
    report.servers.push_back(std::move(estimate));
  }
  return report;
}

obs::LandscapeEpochRecord history_row(
    std::int64_t epoch, std::string family, std::string estimator,
    std::span<const estimators::EpochCell> cells) {
  obs::LandscapeEpochRecord row;
  row.epoch = epoch;
  row.family = std::move(family);
  row.estimator = std::move(estimator);
  row.servers.reserve(cells.size());
  for (const estimators::EpochCell& cell : cells) {
    obs::LandscapeCell snapshot;
    snapshot.population = cell.estimate.value;
    snapshot.interval90 = cell.estimate.interval;
    snapshot.matched = cell.matched;
    snapshot.approximate = cell.estimate.approximate;
    snapshot.sketch_rse = cell.estimate.sketch_rse;
    row.servers.push_back(std::move(snapshot));
  }
  return row;
}

BotMeter::BotMeter(BotMeterConfig config) : config_(std::move(config)) {
  config_.validate();
  pool_model_ = dga::make_pool_model(config_.dga);
  matcher_ = std::make_unique<detect::DomainMatcher>(config_.dga.epoch);
  if (!config_.estimator.empty()) {
    (void)library_.get(config_.estimator);  // fail fast on unknown names
  }
}

const estimators::Estimator& BotMeter::active_estimator() const {
  return config_.estimator.empty() ? library_.recommended(config_.dga)
                                   : library_.get(config_.estimator);
}

void BotMeter::prepare_epochs(std::int64_t first_epoch, std::int64_t epoch_count) {
  if (epoch_count <= 0) throw ConfigError("prepare_epochs: epoch_count must be > 0");
  for (std::int64_t e = first_epoch; e < first_epoch + epoch_count; ++e) {
    if (epoch_states_.contains(e)) continue;
    const dga::EpochPool& pool = pool_model_->epoch_pool(e);
    // Each epoch samples its window from its own (seed, epoch) substream, so
    // the windows depend only on the configuration — never on how the
    // preparation calls were batched ([0,10) vs [0,5)+[5,10) are identical).
    Rng window_rng{stream_seed(config_.seed, static_cast<std::uint64_t>(e))};
    detect::DetectionWindow window =
        detect::make_detection_window(pool, config_.detection_miss_rate, window_rng);
    matcher_->add_epoch(pool, window);
    epoch_states_.emplace(e, EpochState{&pool, std::move(window)});
    prepared_epochs_.insert(
        std::upper_bound(prepared_epochs_.begin(), prepared_epochs_.end(), e), e);
  }
}

const BotMeter::EpochState& BotMeter::epoch_state(std::int64_t epoch) const {
  const auto it = epoch_states_.find(epoch);
  if (it == epoch_states_.end()) {
    throw ConfigError("window_for_epoch: epoch not prepared");
  }
  return it->second;
}

const detect::DetectionWindow& BotMeter::window_for_epoch(std::int64_t epoch) const {
  return epoch_state(epoch).window;
}

estimators::EpochObservation BotMeter::make_observation(
    std::int64_t epoch, std::vector<detect::MatchedLookup> lookups) const {
  const EpochState& state = epoch_state(epoch);
  estimators::EpochObservation obs;
  obs.lookups = std::move(lookups);
  obs.config = &config_.dga;
  obs.pool = state.pool;
  obs.window = &state.window;
  obs.ttl = config_.ttl;
  obs.window_start = TimePoint{epoch * config_.dga.epoch.millis()};
  obs.window_length = config_.dga.epoch;
  obs.assumed_miss_rate = config_.assumed_miss_rate;
  return obs;
}

estimators::CompactObservation BotMeter::make_compact_observation(
    std::int64_t epoch, const estimators::CompactCell& cell) const {
  const EpochState& state = epoch_state(epoch);
  estimators::CompactObservation obs;
  obs.cell = &cell;
  obs.config = &config_.dga;
  obs.pool = state.pool;
  obs.window = &state.window;
  obs.ttl = config_.ttl;
  obs.window_start = TimePoint{epoch * config_.dga.epoch.millis()};
  obs.window_length = config_.dga.epoch;
  obs.assumed_miss_rate = config_.assumed_miss_rate;
  return obs;
}

estimators::CompactCellSpec BotMeter::compact_spec_for_epoch(
    std::int64_t epoch,
    const estimators::CompactObservationConfig& compact) const {
  const estimators::CompactSupport support =
      active_estimator().compact_support();
  if (!support.supported) {
    throw ConfigError("BotMeter: estimator '" +
                      std::string(active_estimator().name()) +
                      "' has no compact observation path");
  }
  return estimators::make_compact_spec(
      compact, support, TimePoint{epoch * config_.dga.epoch.millis()},
      config_.dga.epoch, config_.ttl);
}

std::vector<estimators::EpochCell> BotMeter::estimate_epoch_row(
    std::int64_t epoch, std::vector<std::vector<detect::MatchedLookup>> buckets,
    WorkerPool* workers, const char* span_name) const {
  return estimate_epoch_row(epoch, std::move(buckets), {}, workers, span_name);
}

std::vector<estimators::EpochCell> BotMeter::estimate_epoch_row(
    std::int64_t epoch, std::vector<std::vector<detect::MatchedLookup>> buckets,
    std::vector<std::unique_ptr<estimators::CompactCell>> compact_cells,
    WorkerPool* workers, const char* span_name) const {
  if (!compact_cells.empty() && compact_cells.size() != buckets.size()) {
    throw ConfigError("estimate_epoch_row: compact_cells width mismatch");
  }
  const estimators::Estimator& estimator = active_estimator();
  estimators::EstimationContext context;
  estimators::EstimationContext* const shared =
      config_.share_estimation_context ? &context : nullptr;
  std::vector<estimators::EpochCell> cells(buckets.size());
  const auto estimate_one = [&](std::size_t s) {
    obs::ScopedTimer server_timer(config_.telemetry.trace, span_name);
    estimators::EpochCell& cell = cells[s];
    cell.epoch = epoch;
    if (!compact_cells.empty() && compact_cells[s] != nullptr) {
      const estimators::CompactCell& compact = *compact_cells[s];
      estimators::CompactObservation obs =
          make_compact_observation(epoch, compact);
      obs.context = shared;
      cell.estimate = estimator.estimate_with_interval(obs, 0.9);
      cell.matched = compact.matched();
      return;
    }
    std::vector<detect::MatchedLookup>& bucket = buckets[s];
    detect::sort_matched(bucket);
    const std::uint64_t count = bucket.size();
    estimators::EpochObservation obs = make_observation(epoch, std::move(bucket));
    obs.context = shared;
    cell.estimate = estimator.estimate_with_interval(obs, 0.9);
    cell.matched = count;
  };
  if (workers != nullptr) {
    workers->parallel_for(buckets.size(), estimate_one);
  } else {
    for (std::size_t s = 0; s < buckets.size(); ++s) estimate_one(s);
  }
  return cells;
}

LandscapeReport BotMeter::analyze(std::span<const dns::ForwardedLookup> stream,
                                  std::size_t server_count) const {
  if (prepared_epochs_.empty()) {
    throw ConfigError("BotMeter::analyze: no epochs prepared");
  }
  if (server_count == 0) {
    throw ConfigError("BotMeter::analyze: server_count must be > 0");
  }

  obs::MetricsRegistry* const metrics = config_.telemetry.metrics;
  obs::TraceSession* const trace = config_.telemetry.trace;

  // One pool for the whole call: matcher sharding and every epoch row. With
  // analyze_threads == 1 no threads are spawned and everything below runs
  // as a plain loop. kAllow: determinism tests pin specific counts and the
  // output never depends on the count, so honoring it exactly is safe.
  WorkerPool workers(config_.analyze_threads,
                     WorkerPool::Oversubscribe::kAllow);

  obs::ScopedTimer match_timer(trace, "analyze.match");
  detect::MatchStats match_stats;  // tallied always; flushed when a registry is attached
  detect::MatchedStreams matched = matcher_->match(stream, &match_stats, &workers);
  match_timer.stop();
  // A server past the report width would fall out of the landscape unseen.
  if (match_stats.server_width > server_count) {
    throw ConfigError("BotMeter::analyze: server id " +
                      std::to_string(match_stats.server_width - 1) +
                      " outside the configured width " +
                      std::to_string(server_count));
  }
  if (metrics != nullptr) {
    metrics->counter("analyze.matcher.stream").add(match_stats.stream_size);
    metrics->counter("analyze.matcher.matched").add(match_stats.matched);
    metrics->counter("analyze.matcher.unmatched").add(match_stats.unmatched);
    metrics->counter("analyze.matcher.valid_domain")
        .add(match_stats.valid_domain);
    metrics->counter("analyze.matcher.nxd").add(match_stats.nxd);
    metrics->counter("analyze.servers").add(server_count);
    metrics->counter("analyze.epochs").add(prepared_epochs_.size());
  }

  const estimators::Estimator& estimator = active_estimator();
  obs::ScopedTimer estimate_timer(trace, "analyze.estimate");

  // Epoch-major: each epoch's row shares one EstimationContext (tables and
  // memoized inversions are per-epoch state) and shards its servers over the
  // pool. Rows land in pre-sized slots; every cell is an independent pure
  // function of its bucket, so the landscape is bit-identical to the
  // server-major serial loop for any analyze_threads.
  std::vector<std::vector<estimators::EpochCell>> rows;
  rows.reserve(prepared_epochs_.size());
  for (std::int64_t e : prepared_epochs_) {
    std::vector<std::vector<detect::MatchedLookup>> buckets(server_count);
    for (std::uint32_t s = 0; s < server_count; ++s) {
      const auto it = matched.find(detect::StreamKey{dns::ServerId{s}, e});
      if (it != matched.end()) buckets[s] = std::move(it->second);
    }
    rows.push_back(estimate_epoch_row(e, std::move(buckets), &workers,
                                      "analyze.estimate.server"));
    if (config_.telemetry.history != nullptr) {
      // The same per-epoch row the streaming engine appends at its watermark
      // close for this epoch. Batch rows carry no health annotation (there
      // is no feed to monitor).
      config_.telemetry.history->record(history_row(
          e, config_.dga.name, std::string(estimator.name()), rows.back()));
    }
  }

  LandscapeReport report =
      assemble_landscape(std::string(estimator.name()), rows, server_count);
  if (metrics != nullptr) {
    for (const ServerEstimate& server_estimate : report.servers) {
      const std::string label =
          "server_" + std::to_string(server_estimate.server.value());
      metrics->counter("analyze.matched_lookups.per_server", label)
          .add(server_estimate.matched_lookups);
      metrics->gauge("analyze.population.per_server", label)
          .set(server_estimate.population);
    }
  }
  estimate_timer.stop();
  if (metrics != nullptr) {
    metrics->gauge("analyze.population.total").set(report.total_population());
  }
  return report;
}

}  // namespace botmeter::core
