#include "estimators/poisson.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "common/error.hpp"
#include "common/logmath.hpp"
#include "estimators/context.hpp"

namespace botmeter::estimators {

namespace {

/// Gap above which two NXD lookups are considered to belong to different
/// visible activations. Within a train, gaps equal delta_i (or the jitter
/// bound); across visible activations they are at least roughly the
/// negative TTL. Any threshold strictly between works; we leave generous
/// headroom on the train side while staying under half the TTL.
Duration burst_gap_threshold(const dga::DgaConfig& config,
                             const dns::TtlPolicy& ttl) {
  const Duration step = config.query_interval.millis() > 0
                            ? config.query_interval
                            : config.jitter_max;
  const Duration lower = std::max(step * 4, seconds(5));
  const Duration upper = Duration{std::max<std::int64_t>(ttl.negative.millis() / 2,
                                                         step.millis() + 1)};
  return std::min(lower, upper);
}

/// Sum of the waiting gaps Delta_i of Fig. 4. Delta_1 runs from the window
/// start; subsequent gaps run from the end of the previous TTL window.
/// Clamp at zero: with coarse timestamps a new activation can appear to
/// start marginally before the previous TTL lapsed.
double waiting_gap_sum_ms(const std::vector<TimePoint>& activations,
                          TimePoint window_start, Duration delta_l) {
  double sum_gaps_ms = 0.0;
  TimePoint previous_ttl_end = window_start;
  for (const TimePoint& v : activations) {
    const std::int64_t gap = (v - previous_ttl_end).millis();
    sum_gaps_ms += static_cast<double>(std::max<std::int64_t>(gap, 0));
    previous_ttl_end = v + delta_l;
  }
  return sum_gaps_ms;
}

/// The two-stage clustering of one cell's NXD timestamps, which
/// `for_each_nxd_time(visit)` hands to `visit` in time order. Stage one
/// starts a burst wherever the gap to the previous lookup passes the burst
/// threshold. Stage two enforces the visibility model of Fig. 4: under the
/// uniform barrel a genuinely new activation can only become visible once
/// the previous window's negative TTL has lapsed. Bursts starting earlier
/// are boundary leakage — jittered per-bot query offsets let a handful of
/// tail lookups slip past entries that expire a few seconds apart — and
/// belong to the previous window. The slack bounds that jitter
/// accumulation.
template <typename ForEachNxdTime>
std::vector<TimePoint> cluster_activations(const ObservationContext& context,
                                           ForEachNxdTime for_each_nxd_time) {
  const Duration threshold = burst_gap_threshold(*context.config, context.ttl);
  const Duration delta_l = context.ttl.negative;
  const Duration slack = std::min(seconds(60), Duration{delta_l.millis() / 4});
  std::vector<TimePoint> kept;
  std::optional<TimePoint> last_lookup;
  for_each_nxd_time([&](TimePoint t) {
    const bool starts_burst = !last_lookup || (t - *last_lookup) > threshold;
    last_lookup = t;
    if (starts_burst && (kept.empty() || t - kept.back() >= delta_l - slack)) {
      kept.push_back(t);
    }
  });
  return kept;
}

}  // namespace

std::vector<TimePoint> PoissonEstimator::visible_activations(
    const EpochObservation& obs) {
  return cluster_activations(obs, [&obs](const auto& visit) {
    for (const detect::MatchedLookup& lookup : obs.lookups) {
      // Only negative caching drives the visibility argument; valid-domain
      // lookups live under the (much longer) positive TTL.
      if (!lookup.is_valid_domain) visit(lookup.t);
    }
  });
}

std::vector<TimePoint> PoissonEstimator::visible_activations(
    const CompactObservation& obs) {
  // The slot minima are a time-ordered subsample of the NXD stream: the
  // first lookup of every kept activation survives (kept activations are at
  // least two slot widths apart, so no earlier lookup can share its slot),
  // while intra-burst lookups mostly collapse. The same two-stage clustering
  // then reproduces the exact path's activation sequence up to slot-width
  // timestamp error.
  return cluster_activations(obs, [&obs](const auto& visit) {
    const std::span<const std::uint32_t> counts = obs.cell->slot_counts();
    const std::span<const std::int64_t> mins = obs.cell->slot_min_ms();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] > 0) visit(TimePoint{mins[i]});
    }
  });
}

IntervalEstimate PoissonEstimator::fit(
    const std::vector<TimePoint>& activations,
    const ObservationContext& context, double slot_w_ms,
    std::optional<double> level) {
  IntervalEstimate result;
  if (level) result.level = *level;
  const auto n = static_cast<double>(activations.size());

  // The paper's Eqn (1) uses the rate MLE n / sum(Delta), whose small-sample
  // moments are unbounded: a single activation landing just after the window
  // start makes Delta_1 ~ 0 and the estimate arbitrarily large (the heavy
  // tails visible in Table II's M_P stddevs). We use the unbiased exponential
  // rate estimator (n-1) / sum(Delta) instead — identical at scale
  // (E[(n-1)/sum] = lambda exactly), and with a single visible activation it
  // honestly reports "one bot" rather than inverting an unmeasurable rate
  // (and has no band).
  if (n < 2.0) {
    result.value = n;
    return result;
  }
  const double delta_l_ms = static_cast<double>(context.ttl.negative.millis());
  double sum_gaps_ms = waiting_gap_sum_ms(activations, context.window_start,
                                          context.ttl.negative);
  if (sum_gaps_ms <= 0.0) {
    // Every waiting gap was zero: the TTL windows were saturated
    // back-to-back, which the model can only bound from below. Treat the
    // sum as one timestamp quantum to keep the estimate finite.
    sum_gaps_ms = 1.0;
  }
  const double lambda =
      (n - 1.0) / sum_gaps_ms;  // activations per ms of waiting time
  result.value = lambda * (sum_gaps_ms + n * delta_l_ms);
  if (!level) return result;

  // Slot-width error on the gap sum: every activation timestamp may sit up
  // to one slot width before the true burst start, so the sum is trusted
  // only within +/- n * w (w = 0 on an exact cell, where both bounds are the
  // sum itself). The estimate is decreasing in the gap sum, so the band is
  // evaluated at the perturbed sums — low at sum + n * w, high at
  // max(sum - n * w, 1).
  const double sum_hi = sum_gaps_ms + n * slot_w_ms;
  const double sum_lo = std::max(sum_gaps_ms - n * slot_w_ms, 1.0);
  result.sketch_rse = n * slot_w_ms / sum_gaps_ms;

  // Exact pivot: 2 * lambda * sum(Delta) ~ chi^2(2n); the rate bounds map
  // through E(N) = lambda * (sum(Delta) + n * delta_l). The quantile is a
  // pure function of (p, dof) and dof is quantised (2 * activation count),
  // so a shared context memoizes it across the epoch's servers.
  const double alpha = 1.0 - *level;
  const auto quantile = [&](double p, double dof) {
    if (context.context != nullptr) {
      return context.context->memoized(
          "poisson.chi_square_quantile", p, dof,
          [&] { return chi_square_quantile(p, dof); });
    }
    return chi_square_quantile(p, dof);
  };
  const double q_lo = quantile(alpha / 2.0, 2.0 * n);
  const double q_hi = quantile(1.0 - alpha / 2.0, 2.0 * n);
  const double lo = q_lo / (2.0 * sum_hi) * (sum_hi + n * delta_l_ms);
  const double hi = q_hi / (2.0 * sum_lo) * (sum_lo + n * delta_l_ms);
  // The n visible activations are a hard lower bound on the population.
  result.interval = {std::max(lo, n), hi};
  return result;
}

double PoissonEstimator::estimate(const EpochObservation& obs) const {
  obs.validate();
  return fit(visible_activations(obs), obs, 0.0, std::nullopt).value;
}

IntervalEstimate PoissonEstimator::estimate_with_interval(
    const EpochObservation& obs, double level) const {
  check_level(level);
  obs.validate();
  return fit(visible_activations(obs), obs, 0.0, level);
}

CompactSupport PoissonEstimator::compact_support() const {
  CompactSupport support;
  support.supported = true;
  support.needs_time_slots = true;
  return support;
}

IntervalEstimate PoissonEstimator::estimate_with_interval(
    const CompactObservation& obs, double level) const {
  check_level(level);
  obs.validate();
  if (obs.cell->spec().slot_count == 0) {
    throw ConfigError("PoissonEstimator: compact cell lacks time slots");
  }
  IntervalEstimate result =
      fit(visible_activations(obs), obs,
          static_cast<double>(obs.cell->slot_width().millis()), level);
  // Always approximate: even when the slot minima happen to equal the exact
  // burst starts, the cell cannot prove it — each gap is only known to
  // within one slot width.
  result.approximate = true;
  return result;
}

}  // namespace botmeter::estimators
