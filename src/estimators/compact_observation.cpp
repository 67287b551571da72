#include "estimators/compact_observation.hpp"

#include <algorithm>
#include <cstddef>

#include "common/error.hpp"

namespace botmeter::estimators {

void CompactObservationConfig::validate() const {
  if (kmv_k < 8) {
    throw ConfigError("CompactObservationConfig: kmv_k must be >= 8");
  }
}

json::Value CompactCellSpec::serialize() const {
  json::Object out;
  out["window_start_ms"] = json::Value{static_cast<double>(window_start_ms)};
  out["window_ms"] = json::Value{static_cast<double>(window_ms)};
  out["slot_count"] = json::Value{static_cast<double>(slot_count)};
  out["kmv_k"] = json::Value{static_cast<double>(kmv_k)};
  return json::Value{std::move(out)};
}

CompactCellSpec CompactCellSpec::parse(const json::Value& value) {
  CompactCellSpec spec;
  spec.window_start_ms = value.at("window_start_ms").as_int();
  spec.window_ms = value.at("window_ms").as_int();
  const auto u32 = [&](const char* key) {
    const std::int64_t v = value.at(key).as_int();
    if (v < 0 || v > 0xFFFFFFFFLL) {
      throw DataError(std::string("CompactCellSpec: ") + key + " out of range");
    }
    return static_cast<std::uint32_t>(v);
  };
  spec.slot_count = u32("slot_count");
  spec.kmv_k = u32("kmv_k");
  if (spec.window_ms <= 0) {
    throw DataError("CompactCellSpec: window_ms must be positive");
  }
  return spec;
}

CompactCellSpec make_compact_spec(const CompactObservationConfig& config,
                                  const CompactSupport& support,
                                  TimePoint window_start,
                                  Duration window_length,
                                  const dns::TtlPolicy& ttl) {
  config.validate();
  if (window_length.millis() <= 0) {
    throw ConfigError("make_compact_spec: window length must be positive");
  }
  CompactCellSpec spec;
  spec.window_start_ms = window_start.millis();
  spec.window_ms = window_length.millis();
  if (support.needs_distinct) spec.kmv_k = config.kmv_k;
  if (support.needs_time_slots) {
    // The Poisson activation filter keeps events at least delta_l - slack
    // apart (delta_l = negative TTL, slack = min(60 s, delta_l / 4)). Half
    // that spacing per slot guarantees two kept activations cannot share a
    // slot, so the slot-minimum timestamps reconstruct every kept event.
    const std::int64_t delta_l = ttl.negative.millis();
    const std::int64_t slack = std::min<std::int64_t>(60'000, delta_l / 4);
    const std::int64_t slot_ms = std::max<std::int64_t>(1, (delta_l - slack) / 2);
    const std::int64_t want =
        (spec.window_ms + slot_ms - 1) / slot_ms;  // ceil(window / slot)
    spec.slot_count = static_cast<std::uint32_t>(std::clamp<std::int64_t>(
        want, 1, static_cast<std::int64_t>(kMaxTimeSlots)));
  }
  return spec;
}

CompactCell::CompactCell(const CompactCellSpec& spec) : spec_(spec) {
  if (spec.window_ms <= 0) {
    throw ConfigError("CompactCell: window_ms must be positive");
  }
  if (spec.kmv_k > 0) kmv_.emplace(spec.kmv_k);
  if (spec.slot_count > 0) {
    slot_counts_.assign(spec.slot_count, 0);
    slot_min_ms_.assign(spec.slot_count, 0);
  }
}

Duration CompactCell::slot_width() const {
  if (spec_.slot_count == 0) return Duration{0};
  const std::int64_t n = spec_.slot_count;
  return Duration{(spec_.window_ms + n - 1) / n};
}

void CompactCell::add(const detect::MatchedLookup& lookup) {
  const std::int64_t t_ms = lookup.t.millis();
  if (matched_ == 0) {
    first_ms_ = t_ms;
    last_ms_ = t_ms;
  } else {
    first_ms_ = std::min(first_ms_, t_ms);
    last_ms_ = std::max(last_ms_, t_ms);
  }
  ++matched_;
  if (lookup.is_valid_domain) {
    ++valid_lookups_;
    return;
  }
  ++nxd_lookups_;
  if (kmv_) kmv_->insert(lookup.pool_position);
  if (spec_.slot_count > 0) {
    const std::int64_t w = slot_width().millis();
    const std::int64_t raw = (t_ms - spec_.window_start_ms) / w;
    const auto slot = static_cast<std::size_t>(std::clamp<std::int64_t>(
        raw, 0, static_cast<std::int64_t>(spec_.slot_count) - 1));
    if (slot_counts_[slot] == 0 || t_ms < slot_min_ms_[slot]) {
      slot_min_ms_[slot] = t_ms;
    }
    if (slot_counts_[slot] != ~std::uint32_t{0}) ++slot_counts_[slot];
  }
}

void CompactCell::add_all(std::span<const detect::MatchedLookup> lookups) {
  for (const detect::MatchedLookup& lookup : lookups) add(lookup);
}

std::optional<TimePoint> CompactCell::first_t() const {
  if (matched_ == 0) return std::nullopt;
  return TimePoint{first_ms_};
}

std::optional<TimePoint> CompactCell::last_t() const {
  if (matched_ == 0) return std::nullopt;
  return TimePoint{last_ms_};
}

std::size_t CompactCell::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  if (kmv_) bytes += kmv_->memory_bytes();
  bytes += slot_counts_.capacity() * sizeof(std::uint32_t);
  bytes += slot_min_ms_.capacity() * sizeof(std::int64_t);
  return bytes;
}

json::Value CompactCell::serialize() const {
  json::Object out;
  out["spec"] = spec_.serialize();
  out["matched"] = json::Value{static_cast<double>(matched_)};
  out["nxd"] = json::Value{static_cast<double>(nxd_lookups_)};
  out["valid"] = json::Value{static_cast<double>(valid_lookups_)};
  if (matched_ > 0) {
    out["first_ms"] = json::Value{static_cast<double>(first_ms_)};
    out["last_ms"] = json::Value{static_cast<double>(last_ms_)};
  }
  if (kmv_) out["kmv"] = kmv_->serialize();
  if (!slot_counts_.empty()) {
    json::Array counts, mins;
    counts.reserve(slot_counts_.size());
    mins.reserve(slot_counts_.size());
    for (std::size_t i = 0; i < slot_counts_.size(); ++i) {
      counts.emplace_back(static_cast<double>(slot_counts_[i]));
      mins.emplace_back(
          static_cast<double>(slot_counts_[i] > 0 ? slot_min_ms_[i] : 0));
    }
    out["slot_counts"] = json::Value{std::move(counts)};
    out["slot_min_ms"] = json::Value{std::move(mins)};
  }
  return json::Value{std::move(out)};
}

CompactCell CompactCell::parse(const json::Value& value) {
  const CompactCellSpec spec = CompactCellSpec::parse(value.at("spec"));
  CompactCell cell{spec};
  const auto u64 = [&](const char* key) {
    const std::int64_t v = value.at(key).as_int();
    if (v < 0) throw DataError(std::string("CompactCell: negative ") + key);
    return static_cast<std::uint64_t>(v);
  };
  cell.matched_ = u64("matched");
  cell.nxd_lookups_ = u64("nxd");
  cell.valid_lookups_ = u64("valid");
  if (cell.nxd_lookups_ + cell.valid_lookups_ != cell.matched_) {
    throw DataError("CompactCell: matched != nxd + valid");
  }
  if (cell.matched_ > 0) {
    cell.first_ms_ = value.at("first_ms").as_int();
    cell.last_ms_ = value.at("last_ms").as_int();
    if (cell.last_ms_ < cell.first_ms_) {
      throw DataError("CompactCell: last_ms before first_ms");
    }
  }
  if (spec.kmv_k > 0) {
    // Checked before KmvSketch::parse reserves k entries: a tampered k must
    // fail here, not ask for gigabytes.
    const json::Value& kmv = value.at("kmv");
    if (kmv.at("k").as_int() != spec.kmv_k) {
      throw DataError("CompactCell: KMV k disagrees with spec");
    }
    cell.kmv_ = KmvSketch::parse(kmv);
  }
  if (spec.slot_count > 0) {
    const json::Array& counts = value.at("slot_counts").as_array();
    const json::Array& mins = value.at("slot_min_ms").as_array();
    if (counts.size() != spec.slot_count || mins.size() != spec.slot_count) {
      throw DataError("CompactCell: slot array width disagrees with spec");
    }
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const std::int64_t c = counts[i].as_int();
      if (c < 0 || c > 0xFFFFFFFFLL) {
        throw DataError("CompactCell: slot count out of range");
      }
      cell.slot_counts_[i] = static_cast<std::uint32_t>(c);
      cell.slot_min_ms_[i] = mins[i].as_int();
    }
  }
  return cell;
}

void CompactObservation::validate() const {
  if (cell == nullptr) throw ConfigError("CompactObservation: cell missing");
  if (config == nullptr) throw ConfigError("CompactObservation: config missing");
  if (pool == nullptr) throw ConfigError("CompactObservation: pool missing");
  if (window == nullptr) {
    throw ConfigError("CompactObservation: detection window missing");
  }
  if (window->detected.size() != pool->domains.size()) {
    throw ConfigError("CompactObservation: window/pool size mismatch");
  }
  if (window_length.millis() <= 0) {
    throw ConfigError("CompactObservation: window length must be positive");
  }
  if (assumed_miss_rate &&
      (*assumed_miss_rate < 0.0 || *assumed_miss_rate >= 1.0)) {
    throw ConfigError("CompactObservation: assumed_miss_rate must be in [0,1)");
  }
  if (cell->spec().window_start_ms != window_start.millis() ||
      cell->spec().window_ms != window_length.millis()) {
    throw ConfigError("CompactObservation: cell spec/window geometry mismatch");
  }
}

}  // namespace botmeter::estimators
