#include "estimators/estimator.hpp"

#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace botmeter::estimators {

void check_level(double level) {
  if (!(level > 0.0 && level < 1.0)) {
    throw ConfigError("estimate_with_interval: level must be in (0,1)");
  }
}

IntervalEstimate Estimator::estimate_with_interval(const CompactObservation&,
                                                   double) const {
  throw ConfigError(std::string(name()) +
                    ": no compact observation path (compact_support() is "
                    "false for this model)");
}

std::size_t count_distinct_nxds(const EpochObservation& obs) {
  std::vector<std::uint64_t> seen((std::size_t{obs.pool->size()} + 63) / 64);
  std::size_t distinct = 0;
  for (const detect::MatchedLookup& lookup : obs.lookups) {
    if (lookup.is_valid_domain) continue;
    const std::size_t word = lookup.pool_position / 64;
    // Positions come from this epoch's pool; a hand-built observation may
    // still name one past it, which grows the bitmap instead of overrunning.
    if (word >= seen.size()) seen.resize(word + 1);
    const std::uint64_t bit = std::uint64_t{1} << (lookup.pool_position % 64);
    if ((seen[word] & bit) == 0) ++distinct;
    seen[word] |= bit;
  }
  return distinct;
}

void ObservationContext::validate(std::string_view what) const {
  const auto error = [what](const char* problem) {
    return ConfigError(std::string(what) + ": " + problem);
  };
  if (config == nullptr) throw error("config missing");
  if (pool == nullptr) throw error("pool missing");
  if (window == nullptr) throw error("detection window missing");
  if (window->detected.size() != pool->domains.size()) {
    throw error("window/pool size mismatch");
  }
  if (window_length.millis() <= 0) {
    throw error("window length must be positive");
  }
  if (assumed_miss_rate &&
      (*assumed_miss_rate < 0.0 || *assumed_miss_rate >= 1.0)) {
    throw error("assumed_miss_rate must be in [0,1)");
  }
}

void EpochObservation::validate() const {
  ObservationContext::validate("EpochObservation");
  for (std::size_t i = 1; i < lookups.size(); ++i) {
    if (lookups[i].t < lookups[i - 1].t) {
      throw DataError("EpochObservation: lookups must be time-sorted");
    }
  }
}

double estimate_window(const Estimator& estimator,
                       std::span<const EpochObservation> epochs,
                       obs::MetricsRegistry* metrics) {
  if (epochs.empty()) throw ConfigError("estimate_window: no epochs");
  double sum = 0.0;
  std::uint64_t lookups = 0;
  for (const EpochObservation& obs : epochs) {
    sum += estimator.estimate(obs);
    lookups += obs.lookups.size();
  }
  const double value = sum / static_cast<double>(epochs.size());
  if (metrics != nullptr) {
    const std::string prefix = "estimator." + std::string(estimator.name());
    metrics->counter(prefix + ".windows").add(1);
    metrics->counter(prefix + ".epochs").add(epochs.size());
    metrics->counter(prefix + ".lookups").add(lookups);
    metrics->gauge(prefix + ".last_estimate").set(value);
  }
  return value;
}

WindowAggregate aggregate_cells(std::span<const EpochCell> cells) {
  if (cells.empty()) throw ConfigError("aggregate_cells: no cells");
  double sum = 0.0, lo_sum = 0.0, hi_sum = 0.0;
  bool all_intervals = true;
  WindowAggregate out;
  for (const EpochCell& cell : cells) {
    sum += cell.estimate.value;
    if (cell.estimate.interval) {
      lo_sum += cell.estimate.interval->first;
      hi_sum += cell.estimate.interval->second;
    } else {
      all_intervals = false;
    }
    out.matched += cell.matched;
    if (cell.estimate.approximate) {
      out.approximate = true;
      if (cell.estimate.sketch_rse > out.sketch_rse) {
        out.sketch_rse = cell.estimate.sketch_rse;
      }
    }
  }
  const auto n = static_cast<double>(cells.size());
  out.population = sum / n;
  if (all_intervals) out.interval = {lo_sum / n, hi_sum / n};
  return out;
}

}  // namespace botmeter::estimators
