// The match half of the online engine: everything that happens to a border
// tuple before it becomes evidence.
//
// BotMeter charts the landscape from the matched residue of the border feed
// alone (Fig. 2, steps 3-4); at a real border nine lookups in ten are benign
// and never reach an estimator. MatchFront is the stage that decides, per
// tuple, which (server, epoch) bucket it feeds — if any:
//
//   - Matching. Single tuples go through DomainMatcher::match_one. Columnar
//     blocks resolve each producer-table domain id once (resolve_many over
//     the table's new tail) and memoise the last (nominal epoch ->
//     attribution) answer per id, so most tuples cost one indexed load.
//   - The watermark (max timestamp seen) and close-boundary detection: an
//     epoch closes once the watermark passes its end plus the allowed
//     lateness, or when the producer closes it explicitly.
//   - The late decision: a matched tuple of an epoch the front already
//     closed is dropped and counted, never delivered.
//   - The counters: ingested / matched / unmatched / late_dropped.
//
// The front owns no buckets. It reports each decision to a *sink*, a
// compile-time parameter so the per-tuple calls inline away:
//
//   admit(server, t_ms)           every tuple, before it is classified
//   late(server)                  a matched tuple of an already-closed epoch
//   append(server, epoch, lookup) a matched, on-time tuple — the evidence
//   close(epoch)                  close `epoch` (ascending, each exactly once)
//
// StreamEngine runs a front and its own buckets (the *back*) on one thread.
// An N-shard ClusterRuntime runs one front on the producer thread and sends
// each shard only evidence records and close markers, so every shard closes
// at the same point of the tuple order a single engine would.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/prefetch.hpp"
#include "common/time.hpp"
#include "detect/matcher.hpp"
#include "dns/vantage.hpp"

namespace botmeter::obs {
class TraceSession;
}  // namespace botmeter::obs

namespace botmeter::stream {

/// Tallies of a front's per-tuple decisions.
struct FrontCounters {
  std::uint64_t ingested = 0;
  std::uint64_t matched = 0;
  std::uint64_t unmatched = 0;
  std::uint64_t late_dropped = 0;

  FrontCounters& operator+=(const FrontCounters& other) {
    ingested += other.ingested;
    matched += other.matched;
    unmatched += other.unmatched;
    late_dropped += other.late_dropped;
    return *this;
  }
};

class MatchFront {
 public:
  /// `matcher` must hold the whole horizon [first_epoch, first_epoch +
  /// epoch_count) and outlive the front. `allowed_lateness` defaults to one
  /// epoch length. `trace`, when set, receives one span per table-tail
  /// resolve.
  MatchFront(const detect::DomainMatcher& matcher, std::int64_t first_epoch,
             std::int64_t epoch_count, std::optional<Duration> allowed_lateness,
             obs::TraceSession* trace = nullptr);

  /// Classify one tuple, then close every epoch its timestamp matured.
  template <typename Sink>
  void ingest(const dns::ForwardedLookup& lookup, Sink& sink);

  /// Classify one columnar block, tuple for tuple as ingest() would.
  /// `domains` is the producer's full accumulated string table; all blocks
  /// fed to one front must share one interning lineage (the table may only
  /// grow, ids keep their meaning). A shrinking table throws ConfigError.
  template <typename Sink>
  void ingest_block(const dns::LookupColumns& block,
                    std::span<const std::string_view> domains, Sink& sink);

  /// Advance the watermark without data, closing what it matured.
  template <typename Sink>
  void advance(TimePoint watermark, Sink& sink);

  /// Close every epoch up to and including `epoch` regardless of the
  /// watermark; no-op for epochs already closed.
  template <typename Sink>
  void close_through(std::int64_t epoch, Sink& sink);

  [[nodiscard]] const FrontCounters& counters() const { return counters_; }
  [[nodiscard]] std::optional<TimePoint> watermark() const { return watermark_; }
  /// The next epoch the front will close: matched tuples of earlier epochs
  /// are late. One past the horizon once everything closed.
  [[nodiscard]] std::int64_t next_epoch_to_close() const { return next_close_; }

  /// A back-only engine's front: fold in what a producer-side front decided
  /// for this engine's servers. Closes nothing — closes arrive as markers.
  void absorb(const FrontCounters& delta, std::optional<TimePoint> watermark);

  /// Restart from checkpointed state. The resolve memo is derived state and
  /// rebuilds as blocks arrive.
  void resume(const FrontCounters& counters, std::optional<TimePoint> watermark,
              std::int64_t next_epoch_to_close);

 private:
  /// Per-interned-domain-id cache entry of the block path: pool membership,
  /// resolved once per id, plus a one-slot memo of the last attribution.
  /// The matcher's (epoch, pool_position, is_valid) answer depends only on
  /// (domain, nominal epoch), and lookup trains repeat a domain many times
  /// within one epoch, so the memo turns most tuples into a single indexed
  /// load with no occurrence scan.
  struct BlockDomain {
    detect::DomainMatcher::Resolved resolved;
    std::int64_t memo_nominal = std::numeric_limits<std::int64_t>::min();
    std::int64_t memo_epoch = 0;
    std::uint32_t memo_position = 0;
    bool memo_valid = false;
  };

  /// Resolve pool membership for the table's new tail: one hash per distinct
  /// domain per front, ever — batched so the index's cache misses overlap.
  void resolve_tail(std::span<const std::string_view> domains);

  /// Close boundary of the next epoch to close (max once the horizon is
  /// closed): the watermark at or past it closes that epoch.
  [[nodiscard]] std::int64_t next_boundary_ms() const;

  template <typename Sink>
  void close_matured(Sink& sink);

  const detect::DomainMatcher* matcher_;
  std::int64_t end_epoch_;
  std::int64_t epoch_ms_;
  std::int64_t lateness_ms_;
  obs::TraceSession* trace_;

  /// Indexed by the producer's table ids. Derived state (a pure function of
  /// the matcher and the table) — never checkpointed, rebuilt as blocks
  /// arrive.
  std::vector<BlockDomain> resolved_;
  /// Reused landing strip for resolve_many over the table's new tail.
  std::vector<detect::DomainMatcher::Resolved> resolve_scratch_;

  FrontCounters counters_;
  std::optional<TimePoint> watermark_;
  std::int64_t next_close_;
};

// --- template definitions ----------------------------------------------------

template <typename Sink>
void MatchFront::close_matured(Sink& sink) {
  while (next_close_ < end_epoch_ && watermark_->millis() >= next_boundary_ms()) {
    sink.close(next_close_);
    ++next_close_;
  }
}

template <typename Sink>
void MatchFront::close_through(std::int64_t epoch, Sink& sink) {
  while (next_close_ < end_epoch_ && next_close_ <= epoch) {
    sink.close(next_close_);
    ++next_close_;
  }
}

template <typename Sink>
void MatchFront::advance(TimePoint watermark, Sink& sink) {
  if (!watermark_ || watermark > *watermark_) {
    watermark_ = watermark;
    close_matured(sink);
  }
}

template <typename Sink>
void MatchFront::ingest(const dns::ForwardedLookup& lookup, Sink& sink) {
  const std::uint32_t server = lookup.forwarder.value();
  sink.admit(server, lookup.timestamp.millis());
  ++counters_.ingested;
  const std::optional<detect::DomainMatcher::MatchOutcome> outcome =
      matcher_->match_one(lookup);
  if (!outcome) {
    ++counters_.unmatched;
  } else if (outcome->key.epoch < next_close_) {
    ++counters_.late_dropped;
    sink.late(server);
  } else {
    ++counters_.matched;
    sink.append(server, outcome->key.epoch, outcome->lookup);
  }
  if (!watermark_ || lookup.timestamp > *watermark_) {
    watermark_ = lookup.timestamp;
    close_matured(sink);
  }
}

template <typename Sink>
void MatchFront::ingest_block(const dns::LookupColumns& block,
                              std::span<const std::string_view> domains,
                              Sink& sink) {
  if (block.server.size() != block.size() ||
      block.domain.size() != block.size()) {
    throw DataError("ingest_block: ragged columns");
  }
  if (domains.size() < resolved_.size()) {
    throw ConfigError(
        "ingest_block: domain table shrank — blocks from a different "
        "interning lineage");
  }
  if (domains.size() > resolved_.size()) resolve_tail(domains);

  // The per-tuple loop keeps its bookkeeping in locals and commits on exit
  // (including the throw paths), so the compiler needn't reload members
  // around every append. Committed state is identical to the per-tuple
  // ingest() path's at every observable point: before each epoch close and
  // whenever control leaves this function.
  const detect::DomainMatcher& matcher = *matcher_;
  std::int64_t nominal = 0;
  std::int64_t nominal_start = 1;  // empty range: first tuple recomputes
  std::int64_t nominal_end = 0;
  bool have_wm = watermark_.has_value();
  std::int64_t wm = have_wm ? watermark_->millis()
                            : std::numeric_limits<std::int64_t>::min();
  std::int64_t open_floor = next_close_;
  std::int64_t next_boundary = next_boundary_ms();
  std::uint64_t ingested = 0, matched = 0, unmatched = 0, late = 0;
  const auto commit = [&] {
    counters_.ingested += ingested;
    counters_.matched += matched;
    counters_.unmatched += unmatched;
    counters_.late_dropped += late;
    ingested = matched = unmatched = late = 0;
    if (have_wm) watermark_ = TimePoint{wm};
  };

  const std::size_t n = block.size();
  try {
    for (std::size_t i = 0; i < n; ++i) {
      if (const std::size_t ahead = i + 16; ahead < n) {
        const std::uint32_t pid = block.domain[ahead];
        if (pid < resolved_.size()) prefetch_ro(resolved_.data() + pid);
      }
      const std::int64_t t_ms = block.t_ms[i];
      const std::uint32_t server = block.server[i];
      sink.admit(server, t_ms);
      ++ingested;
      const std::uint32_t id = block.domain[i];
      if (id >= resolved_.size()) {
        throw DataError("ingest_block: domain id " + std::to_string(id) +
                        " outside the table");
      }
      BlockDomain& entry = resolved_[id];
      if (entry.resolved) {
        if (t_ms < nominal_start || t_ms >= nominal_end) {
          nominal = matcher.nominal_epoch(TimePoint{t_ms});
          nominal_start = nominal * epoch_ms_;
          nominal_end = nominal_start + epoch_ms_;
        }
        if (entry.memo_nominal != nominal) {
          const detect::DomainMatcher::MatchOutcome outcome =
              matcher.match_resolved(entry.resolved, TimePoint{t_ms},
                                     dns::ServerId{server}, nominal);
          entry.memo_nominal = nominal;
          entry.memo_epoch = outcome.key.epoch;
          entry.memo_position = outcome.lookup.pool_position;
          entry.memo_valid = outcome.lookup.is_valid_domain;
        }
        if (entry.memo_epoch < open_floor) {
          ++late;
          sink.late(server);
        } else {
          ++matched;
          sink.append(server, entry.memo_epoch,
                      detect::MatchedLookup{TimePoint{t_ms}, entry.memo_position,
                                            entry.memo_valid});
        }
      } else {
        ++unmatched;
      }
      if (!have_wm || t_ms > wm) {
        wm = t_ms;
        have_wm = true;
        if (wm >= next_boundary) {
          commit();
          close_matured(sink);
          open_floor = next_close_;
          next_boundary = next_boundary_ms();
        }
      }
    }
  } catch (...) {
    commit();
    throw;
  }
  commit();
}

}  // namespace botmeter::stream
