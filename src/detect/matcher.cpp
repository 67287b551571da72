#include "detect/matcher.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/prefetch.hpp"

namespace botmeter::detect {

DomainMatcher::DomainMatcher(Duration epoch_length)
    : epoch_length_(epoch_length), slots_(1024) {
  if (epoch_length.millis() <= 0) {
    throw ConfigError("DomainMatcher: epoch length must be positive");
  }
}

std::size_t DomainMatcher::slot_of(std::uint64_t hash,
                                   std::string_view domain) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  while (slots_[i].entry != nullptr &&
         (slots_[i].hash != hash || slots_[i].entry->domain != domain)) {
    i = (i + 1) & mask;
  }
  return i;
}

void DomainMatcher::add_epoch(const dga::EpochPool& pool,
                              const DetectionWindow& window) {
  if (window.epoch != pool.epoch) {
    throw ConfigError("DomainMatcher: detection window epoch mismatch");
  }
  if (window.detected.size() != pool.domains.size()) {
    throw ConfigError("DomainMatcher: detection window size mismatch");
  }
  for (std::uint32_t pos = 0; pos < pool.size(); ++pos) {
    if (!window.detected[pos]) continue;
    const std::string& domain = pool.domains[pos];
    const std::uint64_t hash = std::hash<std::string_view>{}(domain);
    std::size_t i = slot_of(hash, domain);
    if (slots_[i].entry == nullptr) {
      if ((entries_.size() + 1) * 2 > slots_.size()) {
        // Double and re-seat the slots; the entries stay where they are.
        const std::vector<Slot> old =
            std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
        for (const Slot& slot : old) {
          if (slot.entry == nullptr) continue;
          slots_[slot_of(slot.hash, slot.entry->domain)] = slot;
        }
        i = slot_of(hash, domain);
      }
      slots_[i] = Slot{hash, &entries_.emplace_back(Entry{domain, {}})};
    }
    slots_[i].entry->occurrences.push_back(
        Occurrence{pool.epoch, pos, pool.is_valid_position(pos)});
    ++occurrence_count_;
  }
}

DomainMatcher::Resolved DomainMatcher::resolve(std::string_view domain) const {
  Resolved resolved;
  resolved.entry_ =
      slots_[slot_of(std::hash<std::string_view>{}(domain), domain)].entry;
  return resolved;
}

void DomainMatcher::resolve_many(std::span<const std::string_view> domains,
                                 std::span<Resolved> out) const {
  if (domains.size() != out.size()) {
    throw ConfigError("DomainMatcher::resolve_many: output span size mismatch");
  }
  // Staged pipeline over fixed chunks: hash everything first, then walk the
  // miss chain in prefetch waves — first the probe slots, then the entries
  // they name, then the key bytes — so by the time slot_of compares keys,
  // each lookup's three dependent lines are already in flight.
  const std::size_t mask = slots_.size() - 1;
  constexpr std::size_t kChunk = 64;
  std::uint64_t hash[kChunk];
  const Slot* slot[kChunk];
  for (std::size_t base = 0; base < domains.size(); base += kChunk) {
    const std::size_t m = std::min(kChunk, domains.size() - base);
    for (std::size_t j = 0; j < m; ++j) {
      hash[j] = std::hash<std::string_view>{}(domains[base + j]);
      slot[j] = &slots_[hash[j] & mask];
      prefetch_ro(slot[j]);
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (slot[j]->entry != nullptr) prefetch_ro(slot[j]->entry);
    }
    for (std::size_t j = 0; j < m; ++j) {
      const Entry* entry = slot[j]->entry;
      if (entry != nullptr && slot[j]->hash == hash[j]) {
        prefetch_ro(entry->domain.data());
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      out[base + j].entry_ =
          slots_[slot_of(hash[j], domains[base + j])].entry;
    }
  }
}

std::int64_t DomainMatcher::nominal_epoch(TimePoint t) const {
  return t.millis() >= 0
             ? t.millis() / epoch_length_.millis()
             : (t.millis() - epoch_length_.millis() + 1) /
                   epoch_length_.millis();
}

DomainMatcher::MatchOutcome DomainMatcher::match_resolved(
    Resolved resolved, TimePoint t, dns::ServerId forwarder) const {
  return match_resolved(resolved, t, forwarder, nominal_epoch(t));
}

DomainMatcher::MatchOutcome DomainMatcher::match_resolved(
    Resolved resolved, TimePoint t, dns::ServerId forwarder,
    std::int64_t nominal) const {
  const auto& occurrences =
      static_cast<const Entry*>(resolved.entry_)->occurrences;

  // Attribute the lookup to the pool epoch containing its timestamp when
  // possible; otherwise to the closest registered epoch (a lookup train
  // that spilled past an epoch boundary, or a sliding-window domain
  // observed outside its generation day).
  const Occurrence* best = &occurrences.front();
  std::int64_t best_distance = std::abs(best->epoch - nominal);
  for (const Occurrence& occ : occurrences) {
    const std::int64_t distance = std::abs(occ.epoch - nominal);
    if (distance < best_distance) {
      best = &occ;
      best_distance = distance;
    }
  }
  return MatchOutcome{StreamKey{forwarder, best->epoch},
                      MatchedLookup{t, best->pool_position, best->is_valid}};
}

std::optional<DomainMatcher::MatchOutcome> DomainMatcher::match_one(
    const dns::ForwardedLookup& lookup) const {
  const Resolved resolved = resolve(lookup.domain);
  if (!resolved) return std::nullopt;
  return match_resolved(resolved, lookup.timestamp, lookup.forwarder);
}

void DomainMatcher::match_range(std::span<const dns::ForwardedLookup> stream,
                                MatchedStreams& out, MatchStats& stats) const {
  // Resolve fixed chunks through resolve_many's prefetch pipeline, then
  // attribute each hit exactly as match_one does: resolve_many and resolve
  // return the same occurrence list for every domain.
  std::array<std::string_view, kMatchChunk> domains;
  std::array<Resolved, kMatchChunk> resolved;
  std::uint64_t width = 0;  // tallied where each tuple's domain is read
  for (std::size_t base = 0; base < stream.size(); base += kMatchChunk) {
    const std::size_t m = std::min(kMatchChunk, stream.size() - base);
    for (std::size_t j = 0; j < m; ++j) {
      domains[j] = stream[base + j].domain;
      width = std::max<std::uint64_t>(
          width, stream[base + j].forwarder.value() + 1ull);
    }
    resolve_many(std::span(domains).first(m), std::span(resolved).first(m));
    stats.stream_size += m;
    for (std::size_t j = 0; j < m; ++j) {
      if (!resolved[j]) {
        ++stats.unmatched;
        continue;
      }
      const dns::ForwardedLookup& lookup = stream[base + j];
      const MatchOutcome outcome =
          match_resolved(resolved[j], lookup.timestamp, lookup.forwarder);
      ++stats.matched;
      if (outcome.lookup.is_valid_domain) {
        ++stats.valid_domain;
      } else {
        ++stats.nxd;
      }
      out[outcome.key].push_back(outcome.lookup);
    }
  }
  stats.server_width = std::max(stats.server_width, width);
}

MatchedStreams DomainMatcher::match(
    std::span<const dns::ForwardedLookup> stream, MatchStats* stats,
    WorkerPool* workers) const {
  MatchedStreams out;
  MatchStats tally;
  if (workers != nullptr && workers->thread_count() > 1 && stream.size() > 1) {
    // Contiguous shards; matching only reads the immutable index, so shards
    // are independent. The shard partition depends on the thread count but
    // the merged output does not: appending each key's shard-local lookups
    // in shard order reproduces the exact stream order for that key.
    const std::size_t shard_count =
        std::min(stream.size(), workers->thread_count() * 4);
    std::vector<MatchedStreams> shard_out(shard_count);
    std::vector<MatchStats> shard_stats(shard_count);
    workers->parallel_for(shard_count, [&](std::size_t s) {
      const std::size_t begin = stream.size() * s / shard_count;
      const std::size_t end = stream.size() * (s + 1) / shard_count;
      match_range(stream.subspan(begin, end - begin), shard_out[s],
                  shard_stats[s]);
    });
    for (std::size_t s = 0; s < shard_count; ++s) {
      tally += shard_stats[s];
      for (auto& [key, lookups] : shard_out[s]) {
        auto& merged = out[key];
        merged.insert(merged.end(), lookups.begin(), lookups.end());
      }
    }
  } else {
    match_range(stream, out, tally);
  }
  if (stats != nullptr) *stats = tally;
  for (auto& [key, lookups] : out) sort_matched(lookups);
  return out;
}

void sort_matched(std::vector<MatchedLookup>& lookups) {
  auto kept = std::is_sorted_until(lookups.begin(), lookups.end(),
                                   matched_lookup_less);
  if (kept == lookups.end()) return;
  // Compact the lookups that extend the ordered run to the front and set
  // the others aside. `last` is the last kept lookup's arrival slot, which
  // is overwritten only after the next keep has read it. Comparing there
  // instead of at its new slot keeps each compare off the store just made:
  // GCC copies a lookup as two overlapping 8-byte stores (its 13 bytes of
  // data), a load cannot be forwarded from those, and every keep stalled.
  std::vector<MatchedLookup> displaced;
  auto last = kept - 1;
  for (auto it = kept; it != lookups.end(); ++it) {
    if (matched_lookup_less(*it, *last)) {
      displaced.push_back(*it);
    } else {
      last = it;
      *kept++ = *it;
    }
  }
  std::sort(displaced.begin(), displaced.end(), matched_lookup_less);
  // Merge from the back, into the slots the displaced lookups left free.
  auto out = lookups.end();
  auto side = displaced.end();
  while (side != displaced.begin()) {
    if (kept != lookups.begin() &&
        matched_lookup_less(*(side - 1), *(kept - 1))) {
      *--out = *--kept;
    } else {
      *--out = *--side;
    }
  }
}

AlgorithmicPattern::AlgorithmicPattern(std::size_t min_label_len,
                                       std::size_t max_label_len,
                                       std::vector<std::string> tlds)
    : min_label_len_(min_label_len),
      max_label_len_(max_label_len),
      tlds_(std::move(tlds)) {
  if (min_label_len_ == 0 || max_label_len_ < min_label_len_) {
    throw ConfigError("AlgorithmicPattern: invalid label length bounds");
  }
  for (const auto& tld : tlds_) {
    if (tld.empty() || tld.front() != '.') {
      throw ConfigError("AlgorithmicPattern: TLDs must start with '.'");
    }
  }
}

bool AlgorithmicPattern::matches(std::string_view domain) const {
  // Find a TLD suffix first.
  const std::string* tld = nullptr;
  for (const auto& candidate : tlds_) {
    if (domain.size() > candidate.size() &&
        domain.substr(domain.size() - candidate.size()) == candidate) {
      tld = &candidate;
      break;
    }
  }
  if (tld == nullptr) return false;
  const std::string_view label = domain.substr(0, domain.size() - tld->size());
  if (label.size() < min_label_len_ || label.size() > max_label_len_) return false;
  // DGA labels here are a single flat label of [a-z0-9] starting with a letter.
  if (label.find('.') != std::string_view::npos) return false;
  if (!(label.front() >= 'a' && label.front() <= 'z')) return false;
  return std::all_of(label.begin(), label.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
  });
}

}  // namespace botmeter::detect
