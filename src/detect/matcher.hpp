// The DGA-domain matcher (architecture step 3 of Fig. 2).
//
// The matcher consumes the vantage-point stream and keeps the lookups whose
// domain falls inside a registered detection window, grouping them by
// (forwarding server, pool epoch) — exactly the matching results handed to
// the analytical models in step 4. Domains are registered from plain lists
// (detection windows over known pools). `AlgorithmicPattern` below is a
// standalone structural recogniser (§ "algorithmic patterns (or plain
// lists)") that no pipeline calls.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "detect/detection_window.hpp"
#include "dga/pool.hpp"
#include "dns/ids.hpp"
#include "dns/vantage.hpp"

namespace botmeter {
class WorkerPool;
}

namespace botmeter::detect {

/// One matched, cache-filtered lookup. `pool_position` indexes the epoch's
/// pool; `is_valid_domain` says whether that position is registered C2.
struct MatchedLookup {
  TimePoint t;
  std::uint32_t pool_position = 0;
  bool is_valid_domain = false;

  friend bool operator==(const MatchedLookup&, const MatchedLookup&) = default;
};

/// Canonical order of a matched (server, epoch) stream. Ties are benign:
/// within one epoch a pool position determines the domain, so two lookups
/// comparing equal are byte-identical elements and even an unstable sort
/// yields one canonical sequence.
inline bool matched_lookup_less(const MatchedLookup& a,
                                const MatchedLookup& b) {
  if (a.t != b.t) return a.t < b.t;
  return a.pool_position < b.pool_position;
}

/// Sort `lookups` into the canonical order, in O(n + k log k) for k lookups
/// out of place. Buckets arrive almost in order (a border feed is
/// near-sorted), so: return at once when already sorted; otherwise keep the
/// lookups that continue a non-decreasing run, move the other k aside, sort
/// only those and merge them back. The result equals
/// std::sort(…, matched_lookup_less) element for element: ties are
/// byte-identical elements, so the canonical order is unique.
void sort_matched(std::vector<MatchedLookup>& lookups);

/// Grouping key for matched streams.
struct StreamKey {
  dns::ServerId server;
  std::int64_t epoch = 0;

  friend auto operator<=>(const StreamKey&, const StreamKey&) = default;
};

/// Matched lookups per (server, epoch), each stream sorted by timestamp.
using MatchedStreams = std::map<StreamKey, std::vector<MatchedLookup>>;

/// Tallies of one match() pass (observability): how much of the vantage
/// stream the detection window recognised, split by registered C2 vs
/// detected-NXD hits, and how many servers the stream names.
struct MatchStats {
  std::uint64_t stream_size = 0;  // lookups examined
  std::uint64_t matched = 0;      // fell inside a detection window
  std::uint64_t unmatched = 0;    // benign traffic / missed NXDs
  std::uint64_t valid_domain = 0; // matched, registered C2 position
  std::uint64_t nxd = 0;          // matched, detected NXD position
  std::uint64_t server_width = 0; // largest forwarder id + 1 (0: no lookups)

  MatchStats& operator+=(const MatchStats& other) {
    stream_size += other.stream_size;
    matched += other.matched;
    unmatched += other.unmatched;
    valid_domain += other.valid_domain;
    nxd += other.nxd;
    if (other.server_width > server_width) server_width = other.server_width;
    return *this;
  }

  friend bool operator==(const MatchStats&, const MatchStats&) = default;
};

class DomainMatcher {
 public:
  /// `epoch_length` maps timestamps to nominal epochs when a domain string
  /// belongs to several epochs' pools (sliding-window families).
  explicit DomainMatcher(Duration epoch_length);

  /// Register one epoch's pool and its detection window. Only detected
  /// positions become matchable.
  void add_epoch(const dga::EpochPool& pool, const DetectionWindow& window);

  /// Match a vantage-point stream. Unmatched lookups (benign traffic,
  /// missed NXDs) are dropped; pass `stats` to learn how many.
  [[nodiscard]] MatchedStreams match(
      std::span<const dns::ForwardedLookup> stream) const {
    return match(stream, nullptr);
  }
  [[nodiscard]] MatchedStreams match(
      std::span<const dns::ForwardedLookup> stream, MatchStats* stats) const {
    return match(stream, stats, nullptr);
  }

  /// Parallel variant: shards the stream into contiguous ranges over
  /// `workers` and merges the per-shard results serially in shard order.
  /// Matching is stateless per lookup and per-key concatenation in shard
  /// order reproduces the exact stream order, so the output (and `stats`)
  /// is bit-identical to the serial overloads for any worker count. A null
  /// or single-threaded pool degrades to the serial loop.
  [[nodiscard]] MatchedStreams match(std::span<const dns::ForwardedLookup> stream,
                                     MatchStats* stats,
                                     WorkerPool* workers) const;

  /// One matched lookup with its (server, epoch) attribution.
  struct MatchOutcome {
    StreamKey key;
    MatchedLookup lookup;
  };

  /// Match a single lookup — the incremental entry point the streaming
  /// engine uses. Attribution is identical to match(): the batch path
  /// resolves chunks of kMatchChunk tuples through resolve_many and
  /// attributes each hit with match_resolved, and resolve_many returns what
  /// resolve does for every domain. So a tuple matches the same way whether
  /// it arrives in a replayed vector or one at a time off a live feed.
  [[nodiscard]] std::optional<MatchOutcome> match_one(
      const dns::ForwardedLookup& lookup) const;

  /// Tuples per resolve_many call in match(): enough to keep the prefetch
  /// pipeline full, small enough for the chunk's views and handles to live
  /// on the stack.
  static constexpr std::size_t kMatchChunk = 256;

  /// Pre-resolved pool membership of one domain string — the per-interned-id
  /// cache entry of the batched block path. Falsy means the domain is not in
  /// any detection window (the overwhelming majority of border traffic).
  /// Valid as long as the matcher lives and no further add_epoch() happens.
  class Resolved {
   public:
    Resolved() = default;
    [[nodiscard]] explicit operator bool() const { return entry_ != nullptr; }

   private:
    friend class DomainMatcher;
    const void* entry_ = nullptr;
  };

  /// One string hash per *distinct* domain: resolve the membership once
  /// (per interned id per trace file / vantage table), then replay the
  /// handle per tuple via match_resolved — no hashing, no allocation.
  [[nodiscard]] Resolved resolve(std::string_view domain) const;

  /// Batched resolve: `out[i] == resolve(domains[i])` for every i
  /// (`out.size() == domains.size()`). Probes the same table as resolve
  /// with a software-prefetch pipeline, so the dependent cache misses of
  /// tens of thousands of lookups against a large table overlap instead of
  /// serialising — the block path resolves a whole freshly interned table
  /// tail per call.
  void resolve_many(std::span<const std::string_view> domains,
                    std::span<Resolved> out) const;

  /// Attribute one tuple of a pre-resolved domain. Precondition: `resolved`
  /// is truthy and came from this matcher. Attribution is byte-identical to
  /// match_one on the equivalent (t, server, domain) tuple — match_one is
  /// resolve + match_resolved.
  [[nodiscard]] MatchOutcome match_resolved(Resolved resolved, TimePoint t,
                                            dns::ServerId forwarder) const;

  /// The nominal pool epoch containing `t` — the reference point of
  /// match_resolved's closest-epoch attribution. Exposed so batched callers
  /// can hoist the per-tuple division out of their hot loop: timestamps
  /// arrive almost sorted, so one epoch's range answers long runs of tuples.
  [[nodiscard]] std::int64_t nominal_epoch(TimePoint t) const;

  /// match_resolved with the nominal epoch precomputed. Precondition on top
  /// of match_resolved's: `nominal == nominal_epoch(t)`. The outcome's
  /// (epoch, pool_position, is_valid_domain) depend only on the domain and
  /// `nominal` — t and forwarder pass through — so callers may additionally
  /// memoise the attribution per (domain, nominal) pair.
  [[nodiscard]] MatchOutcome match_resolved(Resolved resolved, TimePoint t,
                                            dns::ServerId forwarder,
                                            std::int64_t nominal) const;

  [[nodiscard]] Duration epoch_length() const { return epoch_length_; }

  /// Registered occurrences: one per detected position of every added pool.
  [[nodiscard]] std::uint64_t matchable_domain_count() const {
    return occurrence_count_;
  }

 private:
  struct Occurrence {
    std::int64_t epoch;
    std::uint32_t pool_position;
    bool is_valid;
  };

  /// One registered domain and its occurrences in registration order
  /// (attribution ties go to the first).
  struct Entry {
    std::string domain;
    std::vector<Occurrence> occurrences;
  };

  /// One probe slot: the domain's hash and its entry (null = empty slot).
  struct Slot {
    std::uint64_t hash = 0;
    Entry* entry = nullptr;
  };

  /// Index of the slot holding `domain`, or of the empty slot that ends its
  /// probe chain.
  [[nodiscard]] std::size_t slot_of(std::uint64_t hash,
                                    std::string_view domain) const;

  void match_range(std::span<const dns::ForwardedLookup> stream,
                   MatchedStreams& out, MatchStats& stats) const;

  Duration epoch_length_;

  /// The domain index: a linear-probe table (power-of-two size, load ≤ 1/2)
  /// over entries that never move — a deque grows without relocating or
  /// copying them, and Resolved handles point into them.
  std::deque<Entry> entries_;
  std::vector<Slot> slots_;
  std::uint64_t occurrence_count_ = 0;
};

/// Structural recognition of a DGA family's output: length bounds, allowed
/// label characters, and candidate TLDs. This is the "algorithmic pattern"
/// entry path of the BotMeter configuration interface; it cannot tell two
/// families with the same shape apart, so the pipeline prefers plain lists
/// when a generator is available.
class AlgorithmicPattern {
 public:
  AlgorithmicPattern(std::size_t min_label_len, std::size_t max_label_len,
                     std::vector<std::string> tlds);

  [[nodiscard]] bool matches(std::string_view domain) const;

 private:
  std::size_t min_label_len_;
  std::size_t max_label_len_;
  std::vector<std::string> tlds_;
};

}  // namespace botmeter::detect
