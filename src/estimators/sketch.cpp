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

// Per-row count-min salt; any fixed avalanche-quality schedule works, it just
// has to be identical across shards/threads/restores.
[[nodiscard]] std::uint64_t row_salt(std::uint32_t row) {
  return mix64(0xC0117A115EEDULL + static_cast<std::uint64_t>(row) *
                                       0x9E3779B97F4A7C15ULL);
}

constexpr double kTwoPow53 = 9007199254740992.0;  // JSON-exact integer bound

void require(bool ok, const char* what) {
  if (!ok) throw DataError(std::string("sketch: ") + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// KmvSketch

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

void KmvSketch::merge(const KmvSketch& other) {
  if (other.k_ != k_) throw ConfigError("KmvSketch: merge requires equal k");
  // Inserting the survivors of `other` reproduces the k smallest hashes of
  // the union; a saturated input has already dropped items, so the merged
  // sketch is approximate even if every survivor fits.
  saturated_ = saturated_ || other.saturated_;
  for (const Entry& e : other.entries_) insert(e.value);
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

// ---------------------------------------------------------------------------
// CountMinSketch

CountMinSketch::CountMinSketch(std::uint32_t depth, std::uint32_t width)
    : depth_(depth), width_(width) {
  if (depth < 1) throw ConfigError("CountMinSketch: depth must be >= 1");
  if (width < 2 || (width & (width - 1)) != 0) {
    throw ConfigError("CountMinSketch: width must be a power of two >= 2");
  }
  counters_.assign(static_cast<std::size_t>(depth) * width, 0);
}

std::size_t CountMinSketch::slot(std::uint32_t row, std::uint32_t item) const {
  const std::uint64_t h = mix64(static_cast<std::uint64_t>(item) ^ row_salt(row));
  return static_cast<std::size_t>(row) * width_ +
         static_cast<std::size_t>(h & (width_ - 1));
}

void CountMinSketch::add(std::uint32_t item, std::uint64_t count) {
  for (std::uint32_t row = 0; row < depth_; ++row) {
    counters_[slot(row, item)] += count;
  }
  total_ += count;
}

std::uint64_t CountMinSketch::query(std::uint32_t item) const {
  std::uint64_t best = ~0ULL;
  for (std::uint32_t row = 0; row < depth_; ++row) {
    best = std::min(best, counters_[slot(row, item)]);
  }
  return best;
}

double CountMinSketch::epsilon() const {
  return std::exp(1.0) / static_cast<double>(width_);
}

void CountMinSketch::merge(const CountMinSketch& other) {
  if (other.depth_ != depth_ || other.width_ != width_) {
    throw ConfigError("CountMinSketch: merge requires equal shape");
  }
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
  total_ += other.total_;
}

std::size_t CountMinSketch::memory_bytes() const {
  return sizeof(*this) + counters_.capacity() * sizeof(std::uint64_t);
}

json::Value CountMinSketch::serialize() const {
  json::Array rows;
  rows.reserve(depth_);
  for (std::uint32_t row = 0; row < depth_; ++row) {
    json::Array cells;
    cells.reserve(width_);
    for (std::uint32_t col = 0; col < width_; ++col) {
      const std::uint64_t c = counters_[static_cast<std::size_t>(row) * width_ + col];
      if (static_cast<double>(c) >= kTwoPow53) {
        throw DataError("CountMinSketch: counter exceeds JSON-exact range");
      }
      cells.emplace_back(static_cast<double>(c));
    }
    rows.emplace_back(std::move(cells));
  }
  if (static_cast<double>(total_) >= kTwoPow53) {
    throw DataError("CountMinSketch: total exceeds JSON-exact range");
  }
  json::Object out;
  out["depth"] = json::Value{static_cast<double>(depth_)};
  out["width"] = json::Value{static_cast<double>(width_)};
  out["total"] = json::Value{static_cast<double>(total_)};
  out["rows"] = json::Value{std::move(rows)};
  return json::Value{std::move(out)};
}

CountMinSketch CountMinSketch::parse(const json::Value& value) {
  const std::int64_t depth = value.at("depth").as_int();
  const std::int64_t width = value.at("width").as_int();
  require(depth >= 1 && depth <= 64, "CMS depth out of range");
  require(width >= 2 && width <= (1LL << 24), "CMS width out of range");
  CountMinSketch out{static_cast<std::uint32_t>(depth),
                     static_cast<std::uint32_t>(width)};
  const json::Array& rows = value.at("rows").as_array();
  require(rows.size() == static_cast<std::size_t>(depth), "CMS row count");
  for (std::size_t row = 0; row < rows.size(); ++row) {
    const json::Array& cells = rows[row].as_array();
    require(cells.size() == static_cast<std::size_t>(width), "CMS row width");
    for (std::size_t col = 0; col < cells.size(); ++col) {
      const std::int64_t c = cells[col].as_int();
      require(c >= 0, "CMS negative counter");
      out.counters_[row * static_cast<std::size_t>(width) + col] =
          static_cast<std::uint64_t>(c);
    }
  }
  const std::int64_t total = value.at("total").as_int();
  require(total >= 0, "CMS negative total");
  out.total_ = static_cast<std::uint64_t>(total);
  return out;
}

}  // namespace botmeter::estimators
