// Test support: the compact (sketch-backed) twin of an exact observation.
#pragma once

#include "estimators/compact_observation.hpp"
#include "estimators/observation.hpp"

namespace botmeter::testing {

/// Derive the cell spec for an estimator's needs from the exact cell's
/// window geometry, fold every matched lookup in, and share the exact cell's
/// analyst-side context (pointers included).
struct CompactTwin {
  CompactTwin(const estimators::EpochObservation& exact,
              const estimators::CompactSupport& support,
              const estimators::CompactObservationConfig& config)
      : cell(estimators::make_compact_spec(config, support, exact.window_start,
                                           exact.window_length, exact.ttl)) {
    cell.add_all(exact.lookups);
    obs.cell = &cell;
    obs.config = exact.config;
    obs.pool = exact.pool;
    obs.window = exact.window;
    obs.ttl = exact.ttl;
    obs.window_start = exact.window_start;
    obs.window_length = exact.window_length;
    obs.assumed_miss_rate = exact.assumed_miss_rate;
    obs.context = exact.context;
  }

  CompactTwin(const CompactTwin&) = delete;
  CompactTwin& operator=(const CompactTwin&) = delete;

  estimators::CompactCell cell;
  estimators::CompactObservation obs;
};

}  // namespace botmeter::testing
