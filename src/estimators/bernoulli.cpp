#include "estimators/bernoulli.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/logmath.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "estimators/context.hpp"
#include "estimators/segments.hpp"

namespace botmeter::estimators {

namespace {

/// Fraction of the (detected) NXD ceiling beyond which the coverage count is
/// considered saturated and the adaptive method switches to the
/// forwarded-count statistic.
constexpr double kSaturationFraction = 0.7;

/// Histogram of "how many start positions cover this NXD" — min(a_d,
/// theta_q) — over all NXD positions of the pool. The coverage expectation
/// only depends on these weights, so the histogram collapses the O(P) sum
/// to O(distinct weights).
std::map<std::uint32_t, std::uint32_t> coverage_weight_histogram(
    const dga::EpochPool& pool, const dga::DgaConfig& config) {
  std::map<std::uint32_t, std::uint32_t> histogram;
  const std::uint32_t size = pool.size();
  const auto& valid = pool.valid_positions;
  if (valid.empty()) throw ConfigError("BernoulliEstimator: pool has no arcs");

  // Walk each arc once: depths run 1..arc_len, so weights are
  // min(1..arc_len, theta_q).
  for (std::size_t i = 0; i < valid.size(); ++i) {
    const std::uint32_t boundary = valid[i];
    const std::uint32_t next = valid[(i + 1) % valid.size()];
    const std::uint32_t arc_len =
        (next + size - boundary) % size == 0
            ? size - 1  // single valid position: one arc spanning the rest
            : (next + size - boundary) % size - 1;
    if (arc_len == 0) continue;
    const std::uint32_t capped = std::min(arc_len, config.barrel_size);
    // Depths 1..capped each appear once; depths capped+1..arc_len all share
    // weight theta_q (== barrel_size, but never more than `capped`).
    for (std::uint32_t depth = 1; depth <= capped; ++depth) {
      ++histogram[depth];
    }
    if (arc_len > capped) {
      histogram[config.barrel_size] += arc_len - capped;
    }
  }
  return histogram;
}

/// Count of observed (forwarded) NXD lookups, duplicates included.
double observed_nxd_lookups(const EpochObservation& obs) {
  std::uint64_t count = 0;
  for (const detect::MatchedLookup& lookup : obs.lookups) {
    if (!lookup.is_valid_domain) ++count;
  }
  return static_cast<double>(count);
}

/// Cap of every inversion. A statistic the model cannot reach at any
/// population — a forwarded count past the renewal ceiling (an analyst TTL
/// longer than the network's), or a coverage count past its detected
/// ceiling (an assumed miss rate the data contradicts) — inverts to this
/// instead of diverging; the cell is then *saturated*.
constexpr double kMaxPopulation = 1e8;

/// Generic increasing-function inversion by doubling + bisection, capped.
template <typename F>
double invert_increasing(F&& expectation, double observed) {
  if (observed <= 0.0) return 0.0;
  double lo = 0.0;
  double hi = 1.0;
  while (expectation(hi) < observed) {
    hi *= 2.0;
    if (hi >= kMaxPopulation) return kMaxPopulation;  // saturated statistic
  }
  for (int iter = 0; iter < 200 && (hi - lo) > 1e-9 * std::max(hi, 1.0);
       ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (expectation(mid) < observed) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

using WeightHistogram = std::map<std::uint32_t, std::uint32_t>;

/// Flattened, precomputed form of the coverage-weight histogram. Entries
/// keep the histogram's ascending-weight order so sums accumulate in exactly
/// the order the map-based code used, and the precomputed members are the
/// same subexpressions that code evaluated — `log1p(-(weight / pool_size))`
/// never interacts with the bisection's `n`, so hoisting it out of the
/// expectation is bit-exact. The histogram walk is O(pool); a bisection
/// evaluates the expectation a few hundred times, so building the table once
/// (per call, or once per epoch via EstimationContext) is the dominant win.
struct CoverageTables {
  struct Entry {
    double weight;       // min(a_d, theta_q)
    double count;        // positions sharing this weight
    double log1p_neg_p;  // log1p(-(weight / pool_size))
  };
  std::vector<Entry> entries;
  double pool_size = 0.0;
};

CoverageTables build_coverage_tables(const dga::EpochPool& pool,
                                     const dga::DgaConfig& config) {
  CoverageTables tables;
  tables.pool_size = pool.size();
  const WeightHistogram histogram = coverage_weight_histogram(pool, config);
  tables.entries.reserve(histogram.size());
  for (const auto& [weight, count] : histogram) {
    const double w = static_cast<double>(weight);
    tables.entries.push_back(
        {w, static_cast<double>(count), std::log1p(-(w / tables.pool_size))});
  }
  return tables;
}

/// Precomputed renewal horizons `1 - (k-1) * ttl_fraction` — the fraction of
/// the epoch within which the k-th forward of one NXD can still happen.
/// Capped: past the cap (only reachable when the TTL is a vanishing fraction
/// of the epoch) horizons are computed on the fly with the same expression.
struct RenewalTable {
  double ttl_fraction = 0.0;
  std::vector<double> horizons;
};

RenewalTable build_renewal_table(double ttl_fraction) {
  constexpr std::size_t kMaxHorizons = 1u << 16;
  RenewalTable table;
  table.ttl_fraction = ttl_fraction;
  for (std::int64_t k = 1; table.horizons.size() < kMaxHorizons; ++k) {
    const double horizon = 1.0 - static_cast<double>(k - 1) * ttl_fraction;
    if (horizon <= 0.0) break;
    table.horizons.push_back(horizon);
  }
  return table;
}

double expected_coverage_from_tables(const CoverageTables& tables, double n,
                                     double keep) {
  double expected = 0.0;
  for (const CoverageTables::Entry& e : tables.entries) {
    // (1-p)^n for real n via exp/log; p < 1 because weight < pool size.
    const double miss_all = std::exp(n * e.log1p_neg_p);
    expected += e.count * (1.0 - miss_all) * keep;
  }
  return expected;
}

/// Lookups of NXD d arrive (across the population, activations uniform over
/// the epoch) as an approximately Poisson stream with mean m = n * p_d per
/// epoch. Negative caching turns the forwarded sub-stream into a renewal
/// process: the k-th forward happens at (k-1) TTL blocks plus a
/// Gamma(k, rate) wait, so over the normalised epoch [0, 1]
///   E[forwards] = sum_k P(Gamma(k) <= 1 - (k-1) f)
///               = sum_k P(Poisson(m (1 - (k-1) f)) >= k),  f = TTL/epoch —
/// exact at every TTL, including the short-TTL regime with many windows.
double renewal_count(const RenewalTable& renewal, double mean_queries) {
  double total = 0.0;
  for (std::size_t i = 0;; ++i) {
    const auto k = static_cast<std::int64_t>(i) + 1;
    const double horizon =
        i < renewal.horizons.size()
            ? renewal.horizons[i]
            : 1.0 - static_cast<double>(k - 1) * renewal.ttl_fraction;
    if (horizon <= 0.0) break;
    const double tail = poisson_tail(mean_queries * horizon, k);
    total += tail;
    if (tail < 1e-12 && static_cast<double>(k) > mean_queries) break;
  }
  return total;
}

double expected_forwards_from_tables(const CoverageTables& tables,
                                     const RenewalTable& renewal, double n,
                                     double keep) {
  double expected = 0.0;
  for (const CoverageTables::Entry& e : tables.entries) {
    const double mean_queries = n * e.weight / tables.pool_size;
    expected += e.count * keep * renewal_count(renewal, mean_queries);
  }
  return expected;
}

/// Invert the coverage expectation, memoizing the bisection per observed
/// statistic when a context is attached. The solve is a pure function of
/// (observed, keep) given the tables, so a memo hit returns exactly the bits
/// a fresh bisection would compute.
double invert_coverage_tables(const CoverageTables& tables, double observed,
                              double keep, EstimationContext* ctx) {
  const auto solve = [&] {
    return invert_increasing(
        [&](double n) {
          return expected_coverage_from_tables(tables, n, keep);
        },
        observed);
  };
  if (ctx != nullptr) {
    return ctx->memoized("bernoulli.invert_coverage", observed, keep, solve);
  }
  return solve();
}

double invert_forwards_tables(const CoverageTables& tables,
                              const RenewalTable& renewal, double observed,
                              double keep, EstimationContext* ctx) {
  const auto solve = [&] {
    return invert_increasing(
        [&](double n) {
          return expected_forwards_from_tables(tables, renewal, n, keep);
        },
        observed);
  };
  if (ctx != nullptr) {
    return ctx->memoized("bernoulli.invert_forwards", observed, keep, solve);
  }
  return solve();
}

/// Coverage tables for this problem: shared via the context when one is
/// attached, otherwise built locally into `local`.
const CoverageTables& coverage_tables_for(EstimationContext* ctx,
                                          const dga::EpochPool& pool,
                                          const dga::DgaConfig& config,
                                          std::unique_ptr<CoverageTables>& local) {
  if (ctx != nullptr) {
    return ctx->table<CoverageTables>("bernoulli.coverage", [&] {
      return std::make_unique<CoverageTables>(
          build_coverage_tables(pool, config));
    });
  }
  local = std::make_unique<CoverageTables>(build_coverage_tables(pool, config));
  return *local;
}

const RenewalTable& renewal_table_for(EstimationContext* ctx,
                                      double ttl_fraction,
                                      std::unique_ptr<RenewalTable>& local) {
  if (ctx != nullptr) {
    return ctx->table<RenewalTable>("bernoulli.renewal", [&] {
      return std::make_unique<RenewalTable>(build_renewal_table(ttl_fraction));
    });
  }
  local = std::make_unique<RenewalTable>(build_renewal_table(ttl_fraction));
  return *local;
}

double ttl_fraction_for(Duration negative_ttl, Duration window_length,
                        const char* where) {
  if (negative_ttl.millis() <= 0 || window_length.millis() <= 0) {
    throw ConfigError(std::string(where) + ": TTL and epoch must be positive");
  }
  return static_cast<double>(negative_ttl.millis()) /
         static_cast<double>(window_length.millis());
}

/// The sufficient statistic of the coverage/forward methods, producible from
/// either observation form. From an exact observation every field is exact;
/// from a compact cell the distinct count comes from the KMV sketch —
/// integer-exact until saturation, flagged approximate with its relative
/// standard error afterwards.
struct BernoulliStats {
  double distinct = 0.0;
  double nxd_lookups = 0.0;
  std::uint64_t total_lookups = 0;  // bootstrap-seed ingredient
  bool approximate = false;
  double distinct_rse = 0.0;
};

BernoulliStats stats_of(const EpochObservation& obs) {
  BernoulliStats stats;
  stats.distinct = static_cast<double>(count_distinct_nxds(obs));
  stats.nxd_lookups = observed_nxd_lookups(obs);
  stats.total_lookups = obs.lookups.size();
  return stats;
}

BernoulliStats stats_of(const CompactObservation& obs) {
  const KmvSketch* kmv = obs.cell->distinct_nxd();
  if (kmv == nullptr) {
    throw ConfigError(
        "BernoulliEstimator: compact cell lacks the distinct-NXD sketch");
  }
  BernoulliStats stats;
  stats.distinct = kmv->estimate();
  stats.nxd_lookups = static_cast<double>(obs.cell->nxd_lookups());
  stats.total_lookups = obs.cell->matched();
  stats.approximate = kmv->saturated();
  stats.distinct_rse = kmv->relative_error();
  return stats;
}

/// Everything else an evaluation needs, identical across observation forms.
struct BernoulliProblem {
  const dga::EpochPool* pool = nullptr;
  const dga::DgaConfig* config = nullptr;
  dns::TtlPolicy ttl;
  Duration window_length;
  std::optional<double> assumed_miss_rate;
  EstimationContext* context = nullptr;
};

BernoulliProblem problem_of(const EpochObservation& obs) {
  return {obs.pool, obs.config, obs.ttl, obs.window_length,
          obs.assumed_miss_rate, obs.context};
}

BernoulliProblem problem_of(const CompactObservation& obs) {
  return {obs.pool, obs.config, obs.ttl, obs.window_length,
          obs.assumed_miss_rate, obs.context};
}

/// The shared point-estimate core of the coverage/adaptive methods. Exact
/// and compact paths both land here; identical stats give identical bits.
double estimate_core(const BernoulliProblem& p, const BernoulliStats& stats,
                     BernoulliMethod method) {
  std::unique_ptr<CoverageTables> local_tables;
  const CoverageTables& tables =
      coverage_tables_for(p.context, *p.pool, *p.config, local_tables);
  const double keep = p.assumed_miss_rate ? (1.0 - *p.assumed_miss_rate) : 1.0;

  const double coverage_estimate =
      invert_coverage_tables(tables, stats.distinct, keep, p.context);
  if (method == BernoulliMethod::kCoverageInversion) {
    return coverage_estimate;
  }

  // Adaptive: the coverage count is the cleaner statistic (no temporal
  // assumptions at all) while it still has slope; past saturation it stops
  // resolving N and the forwarded-count renewal statistic takes over.
  const double ceiling = static_cast<double>(p.pool->nxd_count()) * keep;
  if (stats.distinct < kSaturationFraction * ceiling) {
    return coverage_estimate;
  }
  const double ttl_fraction =
      ttl_fraction_for(p.ttl.negative, p.window_length, "invert_forward_count");
  std::unique_ptr<RenewalTable> local_renewal;
  const RenewalTable& renewal =
      renewal_table_for(p.context, ttl_fraction, local_renewal);
  return invert_forwards_tables(tables, renewal, stats.nxd_lookups, keep,
                                p.context);
}

/// The shared interval core: point estimate plus the parametric bootstrap of
/// the active statistic, pushed back through the inversion. For approximate
/// stats the coverage band additionally carries the KMV standard error
/// (variances add: the bootstrap spread and the sketch error are
/// independent); the guard keeps the exact path's arithmetic untouched.
IntervalEstimate interval_core(const BernoulliProblem& p,
                               const BernoulliStats& stats,
                               BernoulliMethod method, double level) {
  IntervalEstimate result;
  result.value = estimate_core(p, stats, method);
  result.level = level;
  result.approximate = stats.approximate;
  result.sketch_rse = stats.distinct_rse;
  // A saturated cell's point only says "more than any population the model
  // resolves", and a bootstrap at the cap would re-simulate millions of bots
  // (the forward branch alone would hold ~2.5e9 arrival times). Publish the
  // point with no band.
  if (result.value <= 0.0 || result.value >= kMaxPopulation) return result;

  const dga::EpochPool& pool = *p.pool;
  const dga::DgaConfig& config = *p.config;
  const double keep = p.assumed_miss_rate ? (1.0 - *p.assumed_miss_rate) : 1.0;
  const double distinct = stats.distinct;
  const bool use_forward_statistic =
      method == BernoulliMethod::kAdaptive &&
      distinct >=
          kSaturationFraction * static_cast<double>(pool.nxd_count()) * keep;

  std::unique_ptr<CoverageTables> local_tables;
  const CoverageTables& tables =
      coverage_tables_for(p.context, pool, config, local_tables);

  // Parametric bootstrap under the point estimate. Deterministic: the seed
  // depends only on the observation, not on global state.
  Rng rng{mix64(0xB0075742ULL ^ static_cast<std::uint64_t>(pool.epoch) ^
                (static_cast<std::uint64_t>(stats.total_lookups) << 20))};
  constexpr int kResamples = 32;
  const auto n_hat =
      static_cast<std::uint32_t>(std::min(result.value + 0.5, 5e6));
  RunningStats statistic;

  if (!use_forward_statistic) {
    // Re-simulate the distinct-coverage statistic: N bots, random starts,
    // runs to the boundary or theta_q, thinned by the detection keep rate.
    // A run is one interval of the pool circle, from its start to the first
    // valid position at or after it (wrapping), capped at theta_q. Each
    // resample sorts the runs and sweeps their union, so it costs per bot
    // and, when keep < 1, per covered position — not per pool slot. The
    // keep trials are drawn in ascending position order over the union;
    // that order is part of the pinned bootstrap bits. Runs are stored
    // unrolled (end may pass the pool size); each is shorter than the pool,
    // so every wrapped tail starts at 0 and their union is [0, wrapped_end).
    struct Run {
      std::uint32_t begin;
      std::uint32_t end;
    };
    const std::uint32_t size = pool.size();
    const std::vector<std::uint32_t>& valid = pool.valid_positions;
    std::vector<Run> runs;
    runs.reserve(n_hat);
    for (int r = 0; r < kResamples; ++r) {
      runs.clear();
      std::uint32_t wrapped_end = 0;
      for (std::uint32_t b = 0; b < n_hat; ++b) {
        const auto start = static_cast<std::uint32_t>(rng.uniform(size));
        const auto next = std::lower_bound(valid.begin(), valid.end(), start);
        const std::uint32_t boundary =
            next != valid.end() ? *next : valid.front() + size;
        const std::uint32_t end =
            start + std::min(boundary - start, config.barrel_size);
        if (end == start) continue;  // started on a valid position
        runs.push_back({start, end});
        if (end > size) wrapped_end = std::max(wrapped_end, end - size);
      }
      std::sort(runs.begin(), runs.end(),
                [](const Run& a, const Run& b) { return a.begin < b.begin; });

      double count = 0.0;
      const auto take = [&](std::uint32_t begin, std::uint32_t end) {
        if (keep >= 1.0) {
          count += static_cast<double>(end - begin);
          return;
        }
        for (std::uint32_t d = begin; d < end; ++d) {
          if (rng.bernoulli(keep)) count += 1.0;
        }
      };
      std::uint32_t open_begin = 0;
      std::uint32_t open_end = wrapped_end;
      for (const Run& run : runs) {
        const std::uint32_t end = std::min(run.end, size);
        if (run.begin > open_end) {
          take(open_begin, open_end);
          open_begin = run.begin;
        }
        open_end = std::max(open_end, end);
      }
      take(open_begin, open_end);
      statistic.add(count);
    }
  } else {
    // Re-simulate the forwarded-count statistic at the *bot* level: one
    // bot's run touches up to theta_q consecutive domains at nearly the
    // same time, so per-domain arrival processes are strongly correlated —
    // a per-domain Poisson bootstrap would understate the variance badly.
    const double ttl_fraction =
        static_cast<double>(p.ttl.negative.millis()) /
        static_cast<double>(p.window_length.millis());
    const Duration step = config.query_interval.millis() > 0
                              ? config.query_interval
                              : (config.jitter_min + config.jitter_max) / 2;
    const double step_fraction =
        static_cast<double>(step.millis()) /
        static_cast<double>(p.window_length.millis());
    std::vector<std::vector<double>> arrival_times(pool.size());
    for (int r = 0; r < kResamples; ++r) {
      for (auto& times : arrival_times) times.clear();
      for (std::uint32_t b = 0; b < n_hat; ++b) {
        auto pos = static_cast<std::uint32_t>(rng.uniform(pool.size()));
        const double t0 = rng.uniform01();
        for (std::uint32_t s = 0; s < config.barrel_size; ++s) {
          if (pool.is_valid_position(pos)) break;
          arrival_times[pos].push_back(t0 + s * step_fraction);
          pos = (pos + 1) % pool.size();
        }
      }
      double forwards = 0.0;
      for (auto& times : arrival_times) {
        if (times.empty()) continue;
        std::sort(times.begin(), times.end());
        double blocked_until = -1.0;
        for (double t : times) {
          if (t >= 1.0) break;  // spilled past the window
          if (t >= blocked_until) {
            if (keep >= 1.0 || rng.bernoulli(keep)) forwards += 1.0;
            blocked_until = t + ttl_fraction;
          }
        }
      }
      statistic.add(forwards);
    }
  }

  const double z = normal_quantile(0.5 + level / 2.0);
  double spread = statistic.stddev();
  if (stats.approximate && !use_forward_statistic) {
    // The coverage statistic itself is sketch-estimated: its standard error
    // distinct * rse adds in quadrature to the bootstrap spread. (The
    // forwarded count stays exact in compact cells, so the forward band
    // needs no widening.) Guarded so exact stats keep their exact bits.
    const double sketch_sd = distinct * stats.distinct_rse;
    spread = std::sqrt(spread * spread + sketch_sd * sketch_sd);
  }
  const double observed_statistic =
      use_forward_statistic ? stats.nxd_lookups : distinct;
  const double lo_stat = std::max(observed_statistic - z * spread, 0.0);
  const double hi_stat = observed_statistic + z * spread;
  std::unique_ptr<RenewalTable> local_renewal;
  const RenewalTable* renewal = nullptr;
  if (use_forward_statistic) {
    renewal = &renewal_table_for(
        p.context,
        ttl_fraction_for(p.ttl.negative, p.window_length,
                         "invert_forward_count"),
        local_renewal);
  }
  const auto invert = [&](double s) {
    return use_forward_statistic
               ? invert_forwards_tables(tables, *renewal, s, keep, p.context)
               : invert_coverage_tables(tables, s, keep, p.context);
  };
  result.interval = {invert(lo_stat), invert(hi_stat)};
  return result;
}

}  // namespace

BernoulliEstimator::BernoulliEstimator(BernoulliMethod method)
    : method_(method) {}

std::string_view BernoulliEstimator::name() const {
  switch (method_) {
    case BernoulliMethod::kAdaptive:
      return "bernoulli";
    case BernoulliMethod::kCoverageInversion:
      return "bernoulli-coverage";
    case BernoulliMethod::kSegmentExpectation:
      return "bernoulli-segment";
  }
  return "bernoulli";
}

double BernoulliEstimator::expected_coverage(const dga::EpochPool& pool,
                                             const dga::DgaConfig& config,
                                             double n,
                                             std::optional<double> miss_rate) {
  if (n < 0.0) throw ConfigError("expected_coverage: n must be >= 0");
  return expected_coverage_from_tables(build_coverage_tables(pool, config), n,
                                       miss_rate ? (1.0 - *miss_rate) : 1.0);
}

double BernoulliEstimator::invert_coverage(const dga::EpochPool& pool,
                                           const dga::DgaConfig& config,
                                           double observed,
                                           std::optional<double> miss_rate) {
  // Build the tables once; the bisection evaluates the expectation a few
  // hundred times.
  const CoverageTables tables = build_coverage_tables(pool, config);
  return invert_coverage_tables(tables, observed,
                                miss_rate ? (1.0 - *miss_rate) : 1.0, nullptr);
}

double BernoulliEstimator::expected_forward_count(
    const dga::EpochPool& pool, const dga::DgaConfig& config, double n,
    Duration negative_ttl, Duration epoch_length,
    std::optional<double> miss_rate) {
  if (n < 0.0) throw ConfigError("expected_forward_count: n must be >= 0");
  if (negative_ttl.millis() <= 0 || epoch_length.millis() <= 0) {
    throw ConfigError("expected_forward_count: TTL and epoch must be positive");
  }
  const double ttl_fraction = static_cast<double>(negative_ttl.millis()) /
                              static_cast<double>(epoch_length.millis());
  return expected_forwards_from_tables(
      build_coverage_tables(pool, config), build_renewal_table(ttl_fraction), n,
      miss_rate ? (1.0 - *miss_rate) : 1.0);
}

double BernoulliEstimator::invert_forward_count(
    const dga::EpochPool& pool, const dga::DgaConfig& config, double observed,
    Duration negative_ttl, Duration epoch_length,
    std::optional<double> miss_rate) {
  if (negative_ttl.millis() <= 0 || epoch_length.millis() <= 0) {
    throw ConfigError("invert_forward_count: TTL and epoch must be positive");
  }
  const CoverageTables tables = build_coverage_tables(pool, config);
  const double ttl_fraction = static_cast<double>(negative_ttl.millis()) /
                              static_cast<double>(epoch_length.millis());
  return invert_forwards_tables(tables, build_renewal_table(ttl_fraction),
                                observed, miss_rate ? (1.0 - *miss_rate) : 1.0,
                                nullptr);
}

double BernoulliEstimator::estimate(const EpochObservation& obs) const {
  obs.validate();
  if (!applicable(*obs.config)) {
    throw ConfigError("BernoulliEstimator: requires the randomcut barrel (A_R)");
  }
  if (method_ == BernoulliMethod::kSegmentExpectation) {
    return estimate_by_segments(obs);
  }
  return estimate_core(problem_of(obs), stats_of(obs), method_);
}

IntervalEstimate BernoulliEstimator::estimate_with_interval(
    const EpochObservation& obs, double level) const {
  if (!(level > 0.0 && level < 1.0)) {
    throw ConfigError("estimate_with_interval: level must be in (0,1)");
  }

  if (method_ == BernoulliMethod::kSegmentExpectation) {
    return IntervalEstimate{estimate(obs), std::nullopt, level};
  }
  obs.validate();
  if (!applicable(*obs.config)) {
    throw ConfigError("BernoulliEstimator: requires the randomcut barrel (A_R)");
  }

  const BernoulliStats stats = stats_of(obs);
  const BernoulliProblem problem = problem_of(obs);
  const auto compute = [&] {
    return interval_core(problem, stats, method_, level);
  };

  // Within one (epoch, configuration) scope the whole result — point
  // estimate, bootstrap (its seed uses only pool.epoch and the lookup
  // count), and pushed-back interval — is a pure function of the sufficient
  // statistic below, so a shared context can memoize the entire call. The
  // segment method reads actual positions and is excluded.
  if (obs.context != nullptr) {
    return obs.context->memoized_interval(
        std::string("bernoulli.interval.") + std::string(name()),
        {stats.distinct, stats.nxd_lookups,
         static_cast<double>(stats.total_lookups), level},
        compute);
  }
  return compute();
}

CompactSupport BernoulliEstimator::compact_support() const {
  if (method_ == BernoulliMethod::kSegmentExpectation) return {};
  CompactSupport support;
  support.supported = true;
  support.needs_distinct = true;
  return support;
}

IntervalEstimate BernoulliEstimator::estimate_with_interval(
    const CompactObservation& obs, double level) const {
  if (!(level > 0.0 && level < 1.0)) {
    throw ConfigError("estimate_with_interval: level must be in (0,1)");
  }
  if (method_ == BernoulliMethod::kSegmentExpectation) {
    return Estimator::estimate_with_interval(obs, level);  // throws
  }
  obs.validate();
  if (!applicable(*obs.config)) {
    throw ConfigError("BernoulliEstimator: requires the randomcut barrel (A_R)");
  }

  const BernoulliStats stats = stats_of(obs);
  const BernoulliProblem problem = problem_of(obs);
  const auto compute = [&] {
    return interval_core(problem, stats, method_, level);
  };
  if (obs.context != nullptr) {
    // Exact-regime compact stats coincide with the exact path's sufficient
    // statistic, so sharing its memo key returns the exact path's bits.
    // Saturated stats use their own key space: the saturated estimate is a
    // continuous value that must never collide with an exact entry.
    const std::string key =
        (stats.approximate ? std::string("bernoulli.compact_interval.")
                           : std::string("bernoulli.interval.")) +
        std::string(name());
    return obs.context->memoized_interval(
        key,
        {stats.distinct, stats.nxd_lookups,
         static_cast<double>(stats.total_lookups), level},
        compute);
  }
  return compute();
}

double BernoulliEstimator::estimate_by_segments(
    const EpochObservation& obs) const {
  const dga::EpochPool& pool = *obs.pool;
  const dga::DgaConfig& config = *obs.config;

  std::vector<std::uint32_t> positions;
  positions.reserve(obs.lookups.size());
  for (const detect::MatchedLookup& lookup : obs.lookups) {
    if (!lookup.is_valid_domain) positions.push_back(lookup.pool_position);
  }
  const std::vector<Segment> segments = extract_segments(pool, positions);
  if (segments.empty()) return 0.0;

  const double pool_size = static_cast<double>(pool.size());
  const double theta_q = static_cast<double>(config.barrel_size);

  // E[N_L | mu]: expected bots required to cover one segment, with bot
  // starts Poissonized at intensity mu per position. A b-segment is the run
  // of its leftmost bot (1 start observed at the left end, plus interior
  // starts at rate mu); an m-segment of length l > theta_q pins both the
  // leftmost and rightmost start of a window of l - theta_q + 1 positions.
  const auto segment_expectation = [&](const Segment& s, double mu) {
    const double l = static_cast<double>(s.length);
    if (s.kind == SegmentKind::kBoundary) {
      return 1.0 + mu * std::max(l - 1.0, 0.0);
    }
    if (l <= theta_q) return 1.0;  // a single (possibly truncated) run
    const double window = l - theta_q + 1.0;
    return 2.0 + mu * std::max(window - 2.0, 0.0);
  };

  // Fixed point on the population (contraction: the slope in mu is
  // sum(l)/P < 1).
  double n_hat = static_cast<double>(segments.size());
  for (int iter = 0; iter < 100; ++iter) {
    const double mu = n_hat / pool_size;
    double next = 0.0;
    for (const Segment& s : segments) next += segment_expectation(s, mu);
    if (std::abs(next - n_hat) < 1e-9) {
      n_hat = next;
      break;
    }
    n_hat = next;
  }
  return n_hat;
}

}  // namespace botmeter::estimators
