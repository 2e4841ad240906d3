// A sorted-vector map for the epoch report's per-app / per-VIP series.
//
// EpochReport used std::unordered_map for its id -> double aggregates,
// which made every epoch pay for node allocations, rehashing, and —
// because hashed iteration order is unspecified — a full sort copy in
// the canonical encoder.  The engine builds these aggregates by walking
// apps in ascending id order, so the natural container is a flat sorted
// vector: operator[] is an O(1) append on in-order inserts, lookups are
// a binary search over contiguous memory, iteration IS the canonical
// key order, and equality is a memcmp-shaped vector compare.
//
// The interface is the subset of std::map its users need: operator[],
// at, find, count, contains, erase, empty, size, begin/end, reserve,
// clear, ==.  Iterators are pairs (first/second), so range-for
// destructuring over a FlatMap reads identically to a std::map.  The
// placement working state keeps each app's (server -> rps) instances in
// one: a handful of entries per app, probed far more often than changed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "mdc/util/expect.hpp"

namespace mdc {

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatMap() = default;

  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  void reserve(std::size_t n) { items_.reserve(n); }
  void clear() noexcept { items_.clear(); }

  iterator begin() noexcept { return items_.begin(); }
  iterator end() noexcept { return items_.end(); }
  const_iterator begin() const noexcept { return items_.begin(); }
  const_iterator end() const noexcept { return items_.end(); }

  /// Inserts a default-constructed value if the key is absent.  Keys
  /// arriving in ascending order (the engine's app walk) take the
  /// append fast path; out-of-order keys fall back to a sorted insert.
  V& operator[](const K& key) {
    if (items_.empty() || items_.back().first < key) {
      return items_.emplace_back(key, V{}).second;
    }
    const iterator it = lowerBound(key);
    if (it != items_.end() && it->first == key) return it->second;
    return items_.insert(it, value_type{key, V{}})->second;
  }

  [[nodiscard]] const V& at(const K& key) const {
    const const_iterator it = find(key);
    MDC_EXPECT(it != items_.end(), "FlatMap::at: key not found");
    return it->second;
  }
  [[nodiscard]] V& at(const K& key) {
    const iterator it = find(key);
    MDC_EXPECT(it != items_.end(), "FlatMap::at: key not found");
    return it->second;
  }

  [[nodiscard]] iterator find(const K& key) {
    const iterator it = lowerBound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  [[nodiscard]] const_iterator find(const K& key) const {
    const const_iterator it = lowerBound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }

  iterator erase(const_iterator it) { return items_.erase(it); }

  [[nodiscard]] std::size_t count(const K& key) const {
    return find(key) != items_.end() ? 1 : 0;
  }
  [[nodiscard]] bool contains(const K& key) const {
    return find(key) != items_.end();
  }

  friend bool operator==(const FlatMap& a, const FlatMap& b) {
    return a.items_ == b.items_;
  }

 private:
  iterator lowerBound(const K& key) {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& item, const K& k) { return item.first < k; });
  }
  const_iterator lowerBound(const K& key) const {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& item, const K& k) { return item.first < k; });
  }

  std::vector<value_type> items_;  // sorted ascending by key, keys unique
};

}  // namespace mdc
