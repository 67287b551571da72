// Input to the analytical models (architecture steps 4-6 of Fig. 2).
//
// One observation bundles everything an estimator may legitimately know
// about one (local server, epoch) cell: the cell's evidence, the family's
// public parameters (theta_0, theta_E, theta_q, delta_i — reverse-engineering
// knowledge), the pool structure the analyst has (detection window), and the
// network's TTL policy. Ground truth (client identities, actual bot count) is
// deliberately absent. The evidence comes in two forms: the matched lookups
// themselves (`EpochObservation`) or a sketch-backed compact cell
// (`CompactObservation`, compact_observation.hpp); both carry the same
// `ObservationContext`.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "detect/detection_window.hpp"
#include "detect/matcher.hpp"
#include "dga/config.hpp"
#include "dga/pool.hpp"
#include "dns/record.hpp"

namespace botmeter::estimators {

class EstimationContext;

/// The analyst-side context of one cell, whatever form its evidence takes.
struct ObservationContext {
  /// Family parameters (analyst configuration, step 6 of Fig. 2).
  const dga::DgaConfig* config = nullptr;

  /// Pool structure for this epoch. Valid positions are analyst knowledge
  /// (confirmed C2); NXD contents are only trustworthy where the detection
  /// window covers them.
  const dga::EpochPool* pool = nullptr;

  /// What the D3 algorithm actually knows of the pool.
  const detect::DetectionWindow* window = nullptr;

  /// Caching policy of the local servers.
  dns::TtlPolicy ttl;

  /// Observation window for this epoch.
  TimePoint window_start;
  Duration window_length = days(1);

  /// If the analyst has calibrated the D3 miss rate, estimators may correct
  /// for it (extension; the paper's models run uncorrected).
  std::optional<double> assumed_miss_rate;

  /// Optional shared per-(epoch, configuration) cache (see context.hpp).
  /// When set, estimators may reuse tables and memoized pure results across
  /// the servers of this epoch; results are bit-identical either way. Null
  /// means "no sharing" — the exact pre-context computation path.
  EstimationContext* context = nullptr;

  /// Throws ConfigError, naming `what`, if a required field is missing or
  /// inconsistent.
  void validate(std::string_view what) const;
};

struct EpochObservation : ObservationContext {
  /// Matched lookups for one server and one epoch, sorted by timestamp.
  std::vector<detect::MatchedLookup> lookups;

  /// The context's checks, then DataError unless `lookups` is time-sorted.
  void validate() const;
};

/// Number of distinct NXD pool positions among `obs.lookups` — the coverage
/// statistic of the Bernoulli and sampling-coverage models. Counted over a
/// bitmap of one bit per pool position, so the cost is one pass over the
/// lookups plus P/8 bytes, never a heap node per distinct position.
/// Requires `obs.pool`.
[[nodiscard]] std::size_t count_distinct_nxds(const EpochObservation& obs);

}  // namespace botmeter::estimators
