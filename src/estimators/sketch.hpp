// Bounded-memory distinct counting for the compact observation path.
//
// KmvSketch is a k-minimum-values distinct counter over u32 item ids, the
// statistic M_B needs from a spilled cell (DESIGN.md §13). It is exact while
// the distinct count stays below k (every survivor keeps its original value,
// so small cells lose nothing); once saturated it estimates (k-1)/u_k with
// relative standard error 1/sqrt(k-2).
//
// Insertion order never changes the state, the state serializes to JSON
// deterministically, and the hash is the seedless mix64 bijection — so
// shard count, thread count, and spill timing cannot perturb an estimate.
#pragma once

#include <cstdint>
#include <vector>

#include "common/json.hpp"

namespace botmeter::estimators {

/// K-minimum-values distinct sketch over 32-bit item ids (pool positions).
/// mix64 is a bijection on u64, so distinct u32 inputs map to distinct
/// hashes: while fewer than k distinct items have been inserted the sketch
/// is exact (`saturated()` false, `estimate() == distinct count`, and
/// `values()` returns every inserted id). Memory is bounded at construction:
/// the entry vector reserves k once and never reallocates.
class KmvSketch {
 public:
  /// k must be >= 8 (the estimator variance formula needs k-2 >> 0).
  explicit KmvSketch(std::uint32_t k);

  /// Insert one item id; duplicate inserts are no-ops. O(1) when the sketch
  /// is full and the hash exceeds the current k-th minimum.
  void insert(std::uint32_t value);

  /// Estimated distinct count: exact (integer-valued) until saturation,
  /// (k-1)/u_k afterwards where u_k is the k-th minimum hash mapped to (0,1].
  [[nodiscard]] double estimate() const;

  /// True once any item has been rejected or evicted — the exactness
  /// guarantee is gone and `estimate()` is approximate.
  [[nodiscard]] bool saturated() const { return saturated_; }

  /// Relative standard error of the saturated estimator: 1/sqrt(k-2).
  /// Zero while the sketch is still exact.
  [[nodiscard]] double relative_error() const;

  /// Number of entries currently held (== distinct count while exact).
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::uint32_t k() const { return k_; }

  /// The surviving item ids, ascending by hash. While exact this is the full
  /// distinct set (in hash order, not insertion order).
  [[nodiscard]] std::vector<std::uint32_t> values() const;

  /// Bytes of heap + inline state; constant after construction.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Deterministic JSON state: {k, saturated, values:[u32...]}. Values (not
  /// hashes) are stored — they fit JSON numbers exactly and re-hash on parse,
  /// so serialize/parse round-trips bit-identically.
  [[nodiscard]] json::Value serialize() const;
  [[nodiscard]] static KmvSketch parse(const json::Value& value);

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::uint32_t value = 0;
  };
  std::uint32_t k_ = 0;
  bool saturated_ = false;
  std::vector<Entry> entries_;  // ascending by hash, size <= k
};

}  // namespace botmeter::estimators
