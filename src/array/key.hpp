#pragma once
// Keys and key sets.
//
// Section III: associative arrays map K1 × K2 → V where "K1 (the set of row
// keys) and K2 (the set of column keys) can be any sortable sets, such as
// the integers, real numbers, or strings." Key is a strict totally ordered
// sum of exactly those three carriers (ordered by type tag, then value, so
// mixed-type key sets still sort deterministically). KeySet is the
// sorted-unique container with the union/intersection operations that the
// §IV annihilation conditions (row(A) ∩ row(B) = ∅ ...) are stated over.
//
// Real keys must be totally ordered, so NaN is rejected and -0.0 is stored
// as +0.0 (the two compare equal; one spelling keeps equal keys
// byte-identical whichever input position a key set keeps).

#include <algorithm>
#include <compare>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "util/parallel.hpp"

namespace hyperspace::array {

class Key {
 public:
  Key() : v_(std::int64_t{0}) {}
  Key(std::int64_t i) : v_(i) {}                       // NOLINT(runtime/explicit)
  Key(int i) : v_(static_cast<std::int64_t>(i)) {}     // NOLINT(runtime/explicit)
  Key(double d) : v_(real(d)) {}                       // NOLINT(runtime/explicit)
  Key(std::string s) : v_(std::move(s)) {}             // NOLINT(runtime/explicit)
  Key(const char* s) : v_(std::string(s)) {}           // NOLINT(runtime/explicit)

  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_real() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  std::int64_t as_int() const { return std::get<std::int64_t>(v_); }
  double as_real() const { return std::get<double>(v_); }
  const std::string& as_string() const { return std::get<std::string>(v_); }

  std::string to_string() const {
    if (is_int()) return std::to_string(as_int());
    if (is_real()) return std::to_string(as_real());
    return as_string();
  }

  friend bool operator==(const Key& a, const Key& b) { return a.v_ == b.v_; }
  friend bool operator<(const Key& a, const Key& b) {
    if (a.v_.index() != b.v_.index()) return a.v_.index() < b.v_.index();
    return a.v_ < b.v_;
  }
  friend bool operator<=(const Key& a, const Key& b) { return !(b < a); }
  friend bool operator>(const Key& a, const Key& b) { return b < a; }
  friend bool operator>=(const Key& a, const Key& b) { return !(a < b); }

  friend std::ostream& operator<<(std::ostream& os, const Key& k) {
    return os << k.to_string();
  }

 private:
  static double real(double d) {
    if (std::isnan(d)) throw std::invalid_argument("Key: NaN is not a key");
    return d == 0.0 ? 0.0 : d;
  }

  std::variant<std::int64_t, double, std::string> v_;
};

/// Sorted-unique set of keys; positions double as matrix indices. A set
/// is immutable once built, so copies share one key vector: embedding an
/// array in a large key space (realign) copies no keys.
class KeySet {
 public:
  KeySet() : keys_(none()) {}
  // Copy-only: a move would leave the source without its key vector.
  KeySet(const KeySet&) = default;
  KeySet& operator=(const KeySet&) = default;
  KeySet(std::initializer_list<Key> ks) : KeySet(std::vector<Key>(ks)) {}
  explicit KeySet(std::vector<Key> ks) {
    std::sort(ks.begin(), ks.end());
    ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
    keys_ = std::make_shared<const std::vector<Key>>(std::move(ks));
  }

  /// {0, 1, ..., n-1} — the integer key range used by plain matrices.
  static KeySet range(std::int64_t n, std::int64_t start = 0) {
    std::vector<Key> ks;
    ks.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) ks.emplace_back(start + i);
    return sorted_unique(std::move(ks));
  }

  std::size_t size() const { return keys_->size(); }
  bool empty() const { return keys_->empty(); }
  const Key& operator[](std::size_t i) const { return (*keys_)[i]; }
  const std::vector<Key>& keys() const { return *keys_; }
  auto begin() const { return keys_->begin(); }
  auto end() const { return keys_->end(); }

  /// Index of `k` in the set, if present.
  std::optional<std::size_t> find(const Key& k) const {
    const auto it = std::lower_bound(begin(), end(), k);
    if (it == end() || !(*it == k)) return std::nullopt;
    return static_cast<std::size_t>(it - begin());
  }

  bool contains(const Key& k) const { return find(k).has_value(); }

  /// The set of `ks` plus each input key's position in it: one stable sort
  /// of input positions by key, then one walk gives every distinct key its
  /// rank — the sorted run *is* the set, so nothing is sorted twice.
  static std::pair<KeySet, std::vector<std::int64_t>> ranked(
      const std::vector<Key>& ks) {
    std::vector<std::size_t> order(ks.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    util::parallel_stable_sort(
        order.begin(), order.end(),
        [&ks](std::size_t a, std::size_t b) { return ks[a] < ks[b]; });
    std::vector<Key> set;
    std::vector<std::int64_t> rank(ks.size());
    for (const std::size_t i : order) {
      if (set.empty() || !(set.back() == ks[i])) set.push_back(ks[i]);
      rank[i] = static_cast<std::int64_t>(set.size()) - 1;
    }
    return {sorted_unique(std::move(set)), std::move(rank)};
  }

  /// Position in `to` of each key (*this)[ids[i]], or -1 where `to` lacks
  /// it. `ids` must increase, so the positions are monotone: the first key
  /// is binary-searched and each later one gallops forward from the
  /// previous hit — O(m log(n/m)) comparisons for m ids into n keys, never
  /// a walk over all of `to`.
  std::vector<std::int64_t> index_map(std::span<const std::int64_t> ids,
                                      const KeySet& to) const {
    const auto& tk = to.keys();
    std::vector<std::int64_t> out(ids.size(), -1);
    std::size_t lo = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const Key& k = (*this)[static_cast<std::size_t>(ids[i])];
      std::size_t hi = tk.size();
      if (i > 0) {  // all of tk[0, lo) is < k
        hi = lo;
        for (std::size_t step = 1; hi < tk.size() && tk[hi] < k; step *= 2) {
          lo = hi + 1;
          hi = lo + step;
        }
        hi = std::min(hi, tk.size());
      }
      lo = static_cast<std::size_t>(
          std::lower_bound(tk.begin() + static_cast<std::ptrdiff_t>(lo),
                           tk.begin() + static_cast<std::ptrdiff_t>(hi), k) -
          tk.begin());
      if (lo < tk.size() && tk[lo] == k) out[i] = static_cast<std::int64_t>(lo++);
    }
    return out;
  }

  friend KeySet key_union(const KeySet& a, const KeySet& b) {
    std::vector<Key> out;
    out.reserve(a.size() + b.size());
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(out));
    return sorted_unique(std::move(out));
  }

  friend KeySet key_intersection(const KeySet& a, const KeySet& b) {
    std::vector<Key> out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    return sorted_unique(std::move(out));
  }

  friend bool operator==(const KeySet& a, const KeySet& b) {
    return a.keys_ == b.keys_ || *a.keys_ == *b.keys_;
  }

  friend std::ostream& operator<<(std::ostream& os, const KeySet& s) {
    os << '{';
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (i) os << ',';
      os << s[i];
    }
    return os << '}';
  }

 private:
  static const std::shared_ptr<const std::vector<Key>>& none() {
    static const auto empty = std::make_shared<const std::vector<Key>>();
    return empty;
  }

  /// Wrap keys that are already sorted-unique, skipping the sort.
  static KeySet sorted_unique(std::vector<Key> ks) {
    KeySet s;
    s.keys_ = std::make_shared<const std::vector<Key>>(std::move(ks));
    return s;
  }

  std::shared_ptr<const std::vector<Key>> keys_;
};

/// The §IV disjointness predicate: row(A) ∩ row(B) = ∅ etc.
inline bool disjoint(const KeySet& a, const KeySet& b) {
  return key_intersection(a, b).empty();
}

}  // namespace hyperspace::array
