// The estimator interface and window-level helpers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>

#include "estimators/compact_observation.hpp"
#include "estimators/observation.hpp"

namespace botmeter::obs {
class MetricsRegistry;
}  // namespace botmeter::obs

namespace botmeter::estimators {

/// A population estimate with an optional confidence interval. Models that
/// can quantify their uncertainty (Poisson via the exact chi-square rate
/// interval, Bernoulli via a parametric bootstrap of its statistic) fill
/// `interval`; others return the point alone.
///
/// Estimates produced from compact (sketch-backed) observations additionally
/// say whether any input statistic was approximate: when `approximate` is
/// true the interval has been widened by the sketch's error contribution and
/// `sketch_rse` records the relative standard error of the dominant sketch
/// input. Exact-path estimates always report `approximate == false`.
struct IntervalEstimate {
  double value = 0.0;
  std::optional<std::pair<double, double>> interval;  // [lo, hi]
  double level = 0.9;                                 // confidence level
  bool approximate = false;
  double sketch_rse = 0.0;
};

/// Throws ConfigError unless `level` is in (0, 1); NaN is refused too. Every
/// `estimate_with_interval` checks its level here first.
void check_level(double level);

/// A bot-population estimation model (one entry of the analytic model
/// library, step 5 of Fig. 2).
class Estimator {
 public:
  virtual ~Estimator() = default;

  Estimator() = default;
  Estimator(const Estimator&) = delete;
  Estimator& operator=(const Estimator&) = delete;

  /// Short identifier, e.g. "timing", "poisson", "bernoulli".
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Whether the model's assumptions hold for this family (e.g. the Poisson
  /// estimator requires the uniform barrel, the Bernoulli estimator the
  /// randomcut barrel). The Timing estimator applies everywhere.
  [[nodiscard]] virtual bool applicable(const dga::DgaConfig& config) const = 0;

  /// Estimate the active-bot population behind one server for one epoch.
  /// Returns a non-negative real (fractional estimates are meaningful:
  /// they are expectations).
  [[nodiscard]] virtual double estimate(const EpochObservation& obs) const = 0;

  /// Estimate with a confidence interval at the given level, which must be
  /// in (0, 1) (`check_level`). The default returns the point estimate with
  /// no interval; models that can quantify uncertainty override it.
  [[nodiscard]] virtual IntervalEstimate estimate_with_interval(
      const EpochObservation& obs, double level = 0.9) const {
    check_level(level);
    return IntervalEstimate{estimate(obs), std::nullopt, level};
  }

  /// Whether (and how) this model can consume sketch-backed compact cells.
  /// The default — no support — covers models that genuinely need individual
  /// lookup timestamps/positions (timing, Bernoulli segment expectation).
  [[nodiscard]] virtual CompactSupport compact_support() const { return {}; }

  /// Estimate from a compact observation. Only valid when
  /// `compact_support().supported`; the default throws ConfigError. While a
  /// cell's sketches are still exact (below the KMV saturation point and,
  /// for slotted models, exactly reconstructible), compact-capable models
  /// return bit-identical results to the exact path and leave
  /// `approximate` false; past that point they flag the estimate and widen
  /// the interval by the propagated sketch error.
  [[nodiscard]] virtual IntervalEstimate estimate_with_interval(
      const CompactObservation& obs, double level = 0.9) const;
};

/// Multi-epoch observation window (§V-A, Fig. 6(b)): per-epoch estimates are
/// averaged over the number of epochs. With a non-null `metrics` the call
/// records its inputs/outputs under `estimator.<name>.*` (windows, epochs,
/// matched lookups consumed, last window estimate); null is a strict no-op.
[[nodiscard]] double estimate_window(const Estimator& estimator,
                                     std::span<const EpochObservation> epochs,
                                     obs::MetricsRegistry* metrics = nullptr);

/// One (server, epoch) cell: the per-epoch interval estimate plus the number
/// of matched lookups it consumed. Cells are what the streaming engine keeps
/// after an epoch closes — the estimate is final, the lookups are freed.
struct EpochCell {
  std::int64_t epoch = 0;
  IntervalEstimate estimate;
  std::uint64_t matched = 0;
};

/// The multi-epoch window aggregate for one server.
struct WindowAggregate {
  double population = 0.0;  // mean of the per-epoch point estimates
  /// Mean of the per-epoch bounds, present only when every cell carries an
  /// interval (conservative; epoch estimates are close to independent).
  std::optional<std::pair<double, double>> interval;
  std::uint64_t matched = 0;  // total matched lookups across the cells
  /// True when any contributing epoch estimate was sketch-approximate; the
  /// largest per-epoch sketch relative error is carried alongside.
  bool approximate = false;
  double sketch_rse = 0.0;
};

/// Aggregate per-epoch cells into the window estimate, summing in the given
/// order. This is the single definition of the window aggregation: batch
/// `BotMeter::analyze` and the streaming engine both call it with cells in
/// ascending epoch order, which is what makes their floating-point totals
/// bit-identical. Throws ConfigError on an empty span.
[[nodiscard]] WindowAggregate aggregate_cells(std::span<const EpochCell> cells);

}  // namespace botmeter::estimators
