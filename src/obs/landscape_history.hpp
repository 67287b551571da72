// Landscape time-series history: the queryable record of how a DGA-botnet
// landscape evolves across epochs.
//
// The paper's deliverable is *charting* landscapes, yet a monitor that only
// emits a final LandscapeReport (or instantaneous /metrics counters) cannot
// answer "how did server 12's Murofet population move over the last week?".
// `LandscapeHistory` is that record: every epoch close (streaming) or every
// analyzed epoch row (batch) appends one per-server snapshot — population
// estimate, 90% confidence interval, and the matched-lookup count that is the
// estimate's recorded sufficient statistic — plus the health-monitor state at
// close time when a monitor is attached.
//
// Retention is bounded and two-tiered so thousands of epochs stay cheap:
//   - the most recent `retain_recent` epochs are kept at full resolution,
//     *delta-encoded*: each entry stores only the cells that changed against
//     the previous epoch (sparse landscapes — few infected servers in a large
//     network — collapse to a handful of cells per epoch);
//   - epochs evicted from the recent ring are *coarsened*: only epochs
//     divisible by kCoarseStride survive, as sparse full rows, up to
//     kRetainCoarse of them. Older history keeps its shape at reduced
//     temporal resolution instead of vanishing.
//
// Serialization is the canonical `botmeter.landscape_series.v1` document via
// the byte-stable common/json writer: the document is a pure function of the
// recorded row sequence and the retention configuration, so the streaming and
// batch pipelines — which hand over bit-identical rows — produce byte-equal
// files for the same trace (provided neither or both record health states).
//
// The documents are the read path: `to_json`, `latest_json`, `window_json`
// and `summary_json` are what `/landscape*` serves and `--history-out`
// writes, and `parse_landscape_series` is their one typed view.
//
// Thread-safety: every public method takes the internal mutex once and
// builds its document under it, so the ingest thread may `record()` while
// the HTTP exporter thread serves `/landscape*` queries — the
// copy-under-mutex contract the exporter's handler rules require. Attaching
// a history never changes pipeline results: it only observes rows the
// pipelines already computed.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace botmeter::obs {

/// One (family, server) cell of a snapshot: the per-epoch interval estimate
/// and the matched-lookup count it consumed (the observation's recorded
/// sufficient statistic). A default-constructed cell — population 0, no
/// interval, nothing matched — is what an unrecorded server means, which is
/// what makes sparse encodings lossless.
struct LandscapeCell {
  double population = 0.0;
  std::optional<std::pair<double, double>> interval90;
  std::uint64_t matched = 0;

  /// True when the estimate came from saturated sketch state (the compact
  /// observation path); `sketch_rse` then carries the sketch relative
  /// standard error propagated into the interval. Serialized only when set,
  /// so exact pipelines' documents are unchanged.
  bool approximate = false;
  double sketch_rse = 0.0;

  friend bool operator==(const LandscapeCell&, const LandscapeCell&) = default;
};

/// What a pipeline hands to record(): one epoch's full landscape row. The
/// family/estimator identify the series (fixed after the first record);
/// `health` is the stream health state word at close time, absent when no
/// monitor is attached (always absent for batch analyze).
struct LandscapeEpochRecord {
  std::int64_t epoch = 0;
  std::string family;
  std::string estimator;
  std::vector<LandscapeCell> servers;
  std::optional<std::string> health;
};

/// Coarsened older epochs retained beyond the recent ring.
inline constexpr std::size_t kRetainCoarse = 512;
/// Only epochs divisible by this stride survive coarsening.
inline constexpr std::int64_t kCoarseStride = 16;

struct LandscapeHistoryConfig {
  /// Full-resolution epochs retained (the delta-encoded recent ring).
  std::size_t retain_recent = 4096;

  void validate() const;
};

/// One fully reconstructed epoch snapshot of a parsed series document.
struct LandscapeSnapshot {
  std::int64_t epoch = 0;
  /// "recent" (full-resolution ring) or "coarse" (survived coarsening).
  std::string tier;
  std::vector<LandscapeCell> servers;
  std::optional<std::string> health;

  friend bool operator==(const LandscapeSnapshot&,
                         const LandscapeSnapshot&) = default;
};

/// The parsed form of a botmeter.landscape_series.v1 document: every entry
/// reconstructed to a full row, ascending by epoch.
struct LandscapeSeries {
  std::string family;
  std::string estimator;
  std::size_t server_count = 0;
  std::uint64_t epochs_recorded = 0;
  std::vector<LandscapeSnapshot> snapshots;
};

class LandscapeHistory {
 public:
  explicit LandscapeHistory(LandscapeHistoryConfig config = {});

  LandscapeHistory(const LandscapeHistory&) = delete;
  LandscapeHistory& operator=(const LandscapeHistory&) = delete;

  /// Append one epoch row. Epochs must be strictly increasing; the first
  /// record fixes the series' family, estimator, and server width, and every
  /// later record must match them (ConfigError otherwise).
  void record(const LandscapeEpochRecord& row);

  [[nodiscard]] std::uint64_t epochs_recorded() const;

  // --- canonical JSON (schema botmeter.landscape_series.v1) ----------------
  /// The full retained history: coarse entries as sparse full rows, the
  /// recent ring with its delta encoding (first recent entry materialized).
  /// Byte-stable: a pure function of the recorded rows and the retention
  /// configuration.
  [[nodiscard]] json::Value to_json() const;

  /// A one-entry series document holding only the latest snapshot (the
  /// `/landscape` route body). Before the first record: an entry-less
  /// document (schema + empty entries).
  [[nodiscard]] json::Value latest_json() const;

  /// A windowed series document: every retained entry in [from, to],
  /// ascending (coarse tier first — coarse epochs always precede recent
  /// ones), materialized as full sparse rows; with `server` set, rows are
  /// narrowed to that one server's cell (the `/landscape/history` route
  /// body). Throws ConfigError when `server` is outside the recorded width.
  [[nodiscard]] json::Value window_json(std::optional<std::uint32_t> server,
                                        std::int64_t from,
                                        std::int64_t to) const;

  /// The summary document (schema botmeter.landscape_summary.v1, the
  /// `/landscape/summary` route body): the retained window's extent and
  /// delta-encoding cost (`stored_cells` against the dense
  /// epochs_retained x server_count), plus the latest row's totals, health,
  /// interval coverage (share of servers with a band) and mean band width.
  [[nodiscard]] json::Value summary_json() const;

 private:
  /// One recent-ring entry: the cells that differ from the previous epoch's
  /// row. The first entry's predecessor is `base_` (the reconstruction
  /// anchor — the full row state just before the ring).
  struct Entry {
    std::int64_t epoch = 0;
    std::optional<std::string> health;
    std::vector<std::pair<std::uint32_t, LandscapeCell>> cells;  // ascending id
  };

  void evict_locked();
  [[nodiscard]] json::Value series_header_locked() const;

  LandscapeHistoryConfig config_;

  mutable std::mutex mu_;
  std::string family_;
  std::string estimator_;
  std::size_t server_count_ = 0;
  std::uint64_t epochs_recorded_ = 0;

  /// Reconstruction anchor: the full row state immediately before
  /// `recent_.front()` (all-default until the first eviction).
  std::vector<LandscapeCell> base_;
  std::deque<Entry> recent_;
  /// Latest full row (base_ with every recent delta applied), maintained
  /// incrementally so record() diffs in O(changed).
  std::vector<LandscapeCell> last_;
  std::optional<std::string> last_health_;
  /// Coarsened tier: sparse full rows (cells differing from default).
  std::deque<Entry> coarse_;
};

/// Parse a botmeter.landscape_series.v1 document (as produced by to_json /
/// latest_json / window_json) back into fully reconstructed snapshots.
/// Throws DataError on schema or structural violations.
[[nodiscard]] LandscapeSeries parse_landscape_series(const json::Value& doc);

}  // namespace botmeter::obs
