#include "estimators/sketch.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace botmeter::estimators {
namespace {

// mix64 is a bijection on u64, so two u32 items share a hash iff they are the
// same item — KMV entry hashes are collision-free by construction.
[[nodiscard]] std::uint64_t item_hash(std::uint32_t value) {
  return mix64(static_cast<std::uint64_t>(value));
}

void require(bool ok, const char* what) {
  if (!ok) throw DataError(std::string("sketch: ") + what);
}

}  // namespace

KmvSketch::KmvSketch(std::uint32_t k) : k_(k) {
  if (k < 8) throw ConfigError("KmvSketch: k must be >= 8");
  entries_.reserve(k);
}

void KmvSketch::insert(std::uint32_t value) {
  const std::uint64_t hash = item_hash(value);
  // O(1) fast path: full sketch, hash beyond the current k-th minimum. A
  // strict > is required — equality means `value` is already the back entry.
  if (entries_.size() == k_ && hash > entries_.back().hash) {
    saturated_ = true;
    return;
  }
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), hash,
      [](const Entry& e, std::uint64_t h) { return e.hash < h; });
  if (pos != entries_.end() && pos->hash == hash) return;  // duplicate
  if (entries_.size() == k_) {
    // Evict the current k-th minimum; reserve(k) keeps capacity constant.
    entries_.pop_back();
    saturated_ = true;
  }
  entries_.insert(pos, Entry{hash, value});
}

double KmvSketch::estimate() const {
  if (!saturated_) return static_cast<double>(entries_.size());
  // u_k: the k-th minimum hash mapped into (0, 1]; +1 so a zero hash cannot
  // divide by zero and the map is exact for the all-ones hash.
  const double u_k =
      std::ldexp(static_cast<double>(entries_.back().hash) + 1.0, -64);
  return static_cast<double>(k_ - 1) / u_k;
}

double KmvSketch::relative_error() const {
  if (!saturated_) return 0.0;
  return 1.0 / std::sqrt(static_cast<double>(k_ - 2));
}

std::vector<std::uint32_t> KmvSketch::values() const {
  std::vector<std::uint32_t> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.value);
  return out;
}

std::size_t KmvSketch::memory_bytes() const {
  return sizeof(*this) + entries_.capacity() * sizeof(Entry);
}

json::Value KmvSketch::serialize() const {
  json::Array values_json;
  values_json.reserve(entries_.size());
  for (const Entry& e : entries_) {
    values_json.emplace_back(static_cast<double>(e.value));
  }
  json::Object out;
  out["k"] = json::Value{static_cast<double>(k_)};
  out["saturated"] = json::Value{saturated_};
  out["values"] = json::Value{std::move(values_json)};
  return json::Value{std::move(out)};
}

KmvSketch KmvSketch::parse(const json::Value& value) {
  const std::int64_t k = value.at("k").as_int();
  require(k >= 8 && k <= 0x7FFFFFFF, "KMV k out of range");
  KmvSketch out{static_cast<std::uint32_t>(k)};
  const json::Array& values = value.at("values").as_array();
  require(values.size() <= static_cast<std::size_t>(k), "KMV overfull");
  for (const json::Value& v : values) {
    const std::int64_t item = v.as_int();
    require(item >= 0 && item <= 0xFFFFFFFFLL, "KMV value out of range");
    out.insert(static_cast<std::uint32_t>(item));
  }
  require(out.entries_.size() == values.size(), "KMV duplicate values");
  // At most k values re-inserted, so insert() cannot have evicted; the flag
  // carries the pre-serialization truth.
  out.saturated_ = value.at("saturated").as_bool();
  return out;
}

}  // namespace botmeter::estimators
