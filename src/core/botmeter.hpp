// The BotMeter pipeline (Fig. 2).
//
// Tap the border vantage point (1), describe the target DGA (2), match the
// forwarded stream against the detection window (3), feed the matching
// results (4) to the analytical model selected from the library (5) under
// the analyst's parameter specification (6), and report the estimated bot
// population behind every local DNS server (7) — the botnet landscape.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "detect/detection_window.hpp"
#include "detect/matcher.hpp"
#include "dga/config.hpp"
#include "dga/pool.hpp"
#include "dns/ids.hpp"
#include "dns/record.hpp"
#include "dns/vantage.hpp"
#include "estimators/estimator.hpp"
#include "estimators/library.hpp"
#include "obs/telemetry.hpp"

namespace botmeter {
class WorkerPool;
}

namespace botmeter::obs {
struct LandscapeEpochRecord;
}  // namespace botmeter::obs

namespace botmeter::core {

struct BotMeterConfig {
  /// The target DGA family (step 2: algorithmic pattern / plain list source).
  dga::DgaConfig dga;

  /// Caching policy of the network's local servers (analyst knowledge).
  dns::TtlPolicy ttl;

  /// Fraction of pool NXDs the deployed D3 algorithm misses (§II-B). The
  /// matcher can only recognise detected domains.
  double detection_miss_rate = 0.0;

  /// If set, estimators correct their statistics for the miss rate
  /// (extension; leave unset for paper-faithful behaviour).
  std::optional<double> assumed_miss_rate;

  /// Estimator name from the model library; empty selects the paper's
  /// recommendation for the family's barrel model.
  std::string estimator;

  /// Seed for the detection-window sampling.
  std::uint64_t seed = 7;

  /// Total parallelism of analyze() — matcher sharding plus the
  /// per-(server, epoch) estimation loop — and of a stream engine's closes.
  /// 1 = serial (the default), 0 = hardware concurrency. The LandscapeReport
  /// is bit-identical for every value: matched streams merge in canonical
  /// order and every estimate is an independent pure function of its cell.
  std::size_t analyze_threads = 1;

  /// Share one EstimationContext per epoch across the servers of that epoch
  /// (tables built once, duplicate observations memoized). Disabling exists
  /// only for A/B verification — results are bit-identical either way, the
  /// cache just recomputes everything.
  bool share_estimation_context = true;

  /// Observability sinks (see obs/telemetry.hpp), each optional and never
  /// changing a result. analyze() reports matcher tallies and
  /// estimator inputs/outputs into `metrics`, per-stage wall times into
  /// `trace`, and one per-server snapshot row per prepared epoch into
  /// `history` — the rows the streaming engine records at its closes, so
  /// both pipelines emit identical series documents for the same trace.
  obs::Telemetry telemetry;

  void validate() const;
};

/// Estimated population behind one local DNS server.
struct ServerEstimate {
  dns::ServerId server;
  double population = 0.0;  // mean over the prepared epochs
  std::vector<std::pair<std::int64_t, double>> per_epoch;
  std::uint64_t matched_lookups = 0;

  /// 90% confidence band, present when the active estimator quantifies its
  /// uncertainty in every prepared epoch (Poisson: exact chi-square rate
  /// interval; Bernoulli: parametric bootstrap). Multi-epoch windows use the
  /// mean of the per-epoch bounds — conservative, since epoch estimates are
  /// close to independent.
  std::optional<std::pair<double, double>> interval90;

  /// True when any contributing epoch estimate came from saturated sketch
  /// state (compact observation path): the interval has been widened by the
  /// propagated sketch error and `sketch_rse` carries the largest per-epoch
  /// sketch relative standard error. Exact pipelines always report false.
  bool approximate = false;
  double sketch_rse = 0.0;
};

/// The charted landscape (step 7).
struct LandscapeReport {
  std::string estimator_name;
  std::vector<ServerEstimate> servers;  // sorted by server id

  [[nodiscard]] double total_population() const;
};

/// Canonical JSON form of a landscape. Serialized through the byte-stable
/// common/json writer, two reports render identically iff every field —
/// every double bit included — is equal, which is how the thread-count and
/// memo-cache determinism regressions compare runs.
[[nodiscard]] json::Value landscape_to_json(const LandscapeReport& report);

/// Assemble the landscape from closed cell rows, [epoch index][server] in
/// ascending epoch order: per server, the per-epoch series plus the shared
/// estimators::aggregate_cells window walk. Batch analyze, the stream
/// engine's finish() and the cluster merger all assemble through here —
/// which is what makes their reports bit-identical for the same cells.
[[nodiscard]] LandscapeReport assemble_landscape(
    std::string estimator_name,
    std::span<const std::vector<estimators::EpochCell>> rows,
    std::size_t server_count);

/// One landscape_series.v1 history row (no health stamp) from an epoch's
/// per-server cells — the row every pipeline records for that epoch.
[[nodiscard]] obs::LandscapeEpochRecord history_row(
    std::int64_t epoch, std::string family, std::string estimator,
    std::span<const estimators::EpochCell> cells);

class BotMeter {
 public:
  explicit BotMeter(BotMeterConfig config);

  BotMeter(const BotMeter&) = delete;
  BotMeter& operator=(const BotMeter&) = delete;

  /// Build pools, detection windows, and the matcher index for epochs
  /// [first_epoch, first_epoch + epoch_count). Must be called before
  /// analyze(); may be called again to extend the window.
  void prepare_epochs(std::int64_t first_epoch, std::int64_t epoch_count);

  /// Chart the landscape from a vantage-point stream. `server_count` fixes
  /// the report size so that servers with zero matched lookups still appear
  /// (population 0 is a statement, not an omission); a tuple whose server
  /// id is not below it is a ConfigError.
  [[nodiscard]] LandscapeReport analyze(
      std::span<const dns::ForwardedLookup> stream,
      std::size_t server_count) const;

  /// Bundle the matched lookups of one (server, epoch) cell into the
  /// estimator input. `lookups` must already be sorted by (t, pool_position)
  /// — the order match() emits. Shared by analyze() and the streaming
  /// engine so both hand the estimator byte-identical observations.
  [[nodiscard]] estimators::EpochObservation make_observation(
      std::int64_t epoch, std::vector<detect::MatchedLookup> lookups) const;

  /// Compact counterpart of make_observation: bundle a sketch-backed cell
  /// with the same per-epoch context. `cell` must outlive the observation.
  [[nodiscard]] estimators::CompactObservation make_compact_observation(
      std::int64_t epoch, const estimators::CompactCell& cell) const;

  /// The cell shape for one epoch under this meter's configuration and the
  /// active estimator's compact support.
  [[nodiscard]] estimators::CompactCellSpec compact_spec_for_epoch(
      std::int64_t epoch,
      const estimators::CompactObservationConfig& compact) const;

  /// Estimate one epoch's row of the landscape: cell s from buckets[s], the
  /// matched lookups of server s in any order, put in canonical order here by
  /// detect::sort_matched (a linear check when already sorted, a sort of only
  /// the out-of-order lookups otherwise). The
  /// per-server estimations run over `workers` (caller participates; null or
  /// single-threaded pool = plain loop) and share one EstimationContext when
  /// config().share_estimation_context is set. Each cell is an independent
  /// pure function of its bucket written to its own pre-sized slot, so the
  /// row is bit-identical for any worker count. analyze() runs this for
  /// every prepared epoch; the streaming engine runs it at each epoch close
  /// — the shared path that keeps the two pipelines equivalent. Per-server
  /// wall time lands on `span_name` spans of the telemetry trace
  /// (observability only).
  [[nodiscard]] std::vector<estimators::EpochCell> estimate_epoch_row(
      std::int64_t epoch,
      std::vector<std::vector<detect::MatchedLookup>> buckets,
      WorkerPool* workers, const char* span_name) const;

  /// Mixed-state variant for the compact streaming path: cell s comes from
  /// `compact_cells[s]` when non-null (a spilled sketch cell), otherwise
  /// from `buckets[s]` exactly as above. `compact_cells` must be empty or
  /// the same width as `buckets`. The exact overload forwards here with no
  /// compact cells, so both pipelines share one estimation path.
  [[nodiscard]] std::vector<estimators::EpochCell> estimate_epoch_row(
      std::int64_t epoch,
      std::vector<std::vector<detect::MatchedLookup>> buckets,
      std::vector<std::unique_ptr<estimators::CompactCell>> compact_cells,
      WorkerPool* workers, const char* span_name) const;

  [[nodiscard]] const dga::QueryPoolModel& pool_model() const { return *pool_model_; }
  [[nodiscard]] const estimators::ModelLibrary& library() const { return library_; }
  [[nodiscard]] const estimators::Estimator& active_estimator() const;
  [[nodiscard]] const detect::DetectionWindow& window_for_epoch(
      std::int64_t epoch) const;
  [[nodiscard]] const detect::DomainMatcher& matcher() const { return *matcher_; }
  /// Epochs prepared so far, ascending.
  [[nodiscard]] std::span<const std::int64_t> prepared_epochs() const {
    return prepared_epochs_;
  }
  [[nodiscard]] const BotMeterConfig& config() const { return config_; }

 private:
  /// Everything analyze() needs per prepared epoch, resolved once at
  /// preparation time: the (heap-stable) pool and the detection window.
  /// Keyed by epoch so the per-cell lookups the estimation loop does are
  /// O(log epochs) instead of a linear scan per (server, epoch).
  struct EpochState {
    const dga::EpochPool* pool = nullptr;
    detect::DetectionWindow window;
  };

  [[nodiscard]] const EpochState& epoch_state(std::int64_t epoch) const;

  BotMeterConfig config_;
  estimators::ModelLibrary library_;
  std::unique_ptr<dga::QueryPoolModel> pool_model_;
  std::unique_ptr<detect::DomainMatcher> matcher_;
  std::map<std::int64_t, EpochState> epoch_states_;
  std::vector<std::int64_t> prepared_epochs_;  // sorted
};

}  // namespace botmeter::core
