// The bounded-memory observation path (DESIGN.md §13).
//
// A `CompactCell` is the sketch-backed replacement for a buffered
// per-(server, epoch) lookup vector: exact scalar tallies (matched counts,
// first/last timestamps), a KMV sketch of the distinct detected-NXD pool
// positions (M_B), and a fixed grid of time slots holding {NXD count,
// earliest timestamp} (M_P's activations) — everything the compact-capable
// estimators consume, in O(k + slots) bytes regardless of traffic volume.
// `CompactObservation` then plays the role of `EpochObservation` for the
// compact path: the cell plus the same family / pool / window / TTL context,
// handed to `Estimator::estimate_with_interval`.
//
// Cells are insertion-order invariant, so spilling an exact buffer into a
// cell mid-stream or restoring one from a checkpoint reproduces the cell a
// single pass would have built. Every server has one owning shard, so cells
// never merge; the cluster merges closed estimates.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/json.hpp"
#include "common/time.hpp"
#include "detect/detection_window.hpp"
#include "detect/matcher.hpp"
#include "dga/config.hpp"
#include "dga/pool.hpp"
#include "dns/record.hpp"
#include "estimators/sketch.hpp"

namespace botmeter::estimators {

class EstimationContext;

/// What a given estimator can do with compact state. `supported` false means
/// the model needs individual lookups (timing, Bernoulli segments) and the
/// compact path must not be enabled for it; the `needs_*` flags size the
/// cell — structures no model asked for are simply absent.
struct CompactSupport {
  bool supported = false;
  bool needs_distinct = false;    // KMV over detected-NXD positions
  bool needs_time_slots = false;  // slotted NXD timestamps (Poisson)
};

/// Tuning for the compact path; one config serves every cell of a run.
struct CompactObservationConfig {
  /// KMV size: cells stay exact below this many distinct NXD positions;
  /// saturated relative error is 1/sqrt(kmv_k - 2) (~3.2% at 1024).
  std::uint32_t kmv_k = 1024;

  void validate() const;
};

/// Upper bound on time slots per cell; the actual count is derived from the
/// window length and the negative-TTL activation spacing.
inline constexpr std::uint32_t kMaxTimeSlots = 4096;

/// The concrete shape of one cell, derived from config + estimator support +
/// the epoch's window geometry. A zero count/size means the structure is
/// absent. Cells serialize their spec; parse ignores keys it does not know.
struct CompactCellSpec {
  std::int64_t window_start_ms = 0;
  std::int64_t window_ms = 0;
  std::uint32_t slot_count = 0;
  std::uint32_t kmv_k = 0;

  friend bool operator==(const CompactCellSpec&, const CompactCellSpec&) = default;

  [[nodiscard]] json::Value serialize() const;
  [[nodiscard]] static CompactCellSpec parse(const json::Value& value);
};

/// Derive the cell shape for one epoch. The slot width is chosen so that
/// consecutive kept activations (spaced at least delta_l - slack apart, the
/// Poisson estimator's filter) land in distinct slots: half that spacing,
/// clamped to [1 ms, window] and to at most `kMaxTimeSlots` slots.
[[nodiscard]] CompactCellSpec make_compact_spec(
    const CompactObservationConfig& config, const CompactSupport& support,
    TimePoint window_start, Duration window_length, const dns::TtlPolicy& ttl);

/// Bounded sketch state for one (server, epoch) cell. All allocation happens
/// in the constructor, so `memory_bytes()` is constant over the cell's life.
class CompactCell {
 public:
  explicit CompactCell(const CompactCellSpec& spec);

  /// Fold one matched lookup into the cell. Order-invariant.
  void add(const detect::MatchedLookup& lookup);

  /// Fold a whole buffer (the spill path).
  void add_all(std::span<const detect::MatchedLookup> lookups);

  [[nodiscard]] const CompactCellSpec& spec() const { return spec_; }

  /// Exact scalars.
  [[nodiscard]] std::uint64_t matched() const { return matched_; }
  [[nodiscard]] std::uint64_t nxd_lookups() const { return nxd_lookups_; }
  [[nodiscard]] std::uint64_t valid_lookups() const { return valid_lookups_; }
  [[nodiscard]] std::optional<TimePoint> first_t() const;
  [[nodiscard]] std::optional<TimePoint> last_t() const;

  /// The distinct-NXD sketch; null when the spec excluded it.
  [[nodiscard]] const KmvSketch* distinct_nxd() const { return kmv_ ? &*kmv_ : nullptr; }

  /// Time-slot grid (empty spans when slot_count == 0). `slot_min_ms()[i]`
  /// is meaningful only where `slot_counts()[i] > 0`.
  [[nodiscard]] std::span<const std::uint32_t> slot_counts() const {
    return slot_counts_;
  }
  [[nodiscard]] std::span<const std::int64_t> slot_min_ms() const {
    return slot_min_ms_;
  }
  [[nodiscard]] Duration slot_width() const;

  /// Heap + inline footprint; constant after construction.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Deterministic JSON state (spec included; parse is self-contained and
  /// checks the stored KMV's k against the spec before sizing the sketch).
  [[nodiscard]] json::Value serialize() const;
  [[nodiscard]] static CompactCell parse(const json::Value& value);

 private:
  CompactCellSpec spec_;
  std::uint64_t matched_ = 0;
  std::uint64_t nxd_lookups_ = 0;
  std::uint64_t valid_lookups_ = 0;
  std::int64_t first_ms_ = 0;  // valid iff matched_ > 0
  std::int64_t last_ms_ = 0;
  std::optional<KmvSketch> kmv_;
  std::vector<std::uint32_t> slot_counts_;
  std::vector<std::int64_t> slot_min_ms_;
};

/// The compact counterpart of `EpochObservation`: one cell plus the same
/// analyst-side context. Estimators whose `compact_support().supported` is
/// true accept this via `estimate_with_interval(const CompactObservation&)`
/// and flag which reported statistics became approximate.
struct CompactObservation {
  const CompactCell* cell = nullptr;

  const dga::DgaConfig* config = nullptr;
  const dga::EpochPool* pool = nullptr;
  const detect::DetectionWindow* window = nullptr;
  dns::TtlPolicy ttl;
  TimePoint window_start;
  Duration window_length = days(1);
  std::optional<double> assumed_miss_rate;
  EstimationContext* context = nullptr;

  /// Throws ConfigError if a required field is missing/inconsistent or the
  /// cell's spec disagrees with the stated window geometry.
  void validate() const;
};

}  // namespace botmeter::estimators
