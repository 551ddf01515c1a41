#pragma once
// AssocArray<S> — the associative array A : K1 × K2 → V of Section III.
//
// An associative array is a sparse matrix whose rows and columns are
// addressed by *keys* (any sortable set) rather than contiguous integers,
// over a value semiring S. The element-wise semiring (A, ⊕, ⊗, 0, 1) and
// the array semiring (A, ⊕, ⊕.⊗, 0, I) both live here; together they form
// the semilink studied in Section IV (see semilink/).
//
// Key-space conformance: per the paper, "associative arrays are typically
// added and multiplied with little regard for the true dimensions of their
// large row and column key spaces" — all binary operations align operand
// key spaces by set-union first, then dispatch to the sparse kernels, so
// arrays over different key sets compose freely.

#include <optional>
#include <ostream>
#include <tuple>
#include <utility>
#include <vector>

#include "array/key.hpp"
#include "semiring/concepts.hpp"
#include "sparse/apply.hpp"
#include "sparse/ewise.hpp"
#include "sparse/io.hpp"
#include "sparse/masked.hpp"
#include "sparse/matrix.hpp"
#include "sparse/mxm.hpp"
#include "sparse/reduce.hpp"
#include "sparse/slices.hpp"
#include "sparse/transpose.hpp"

namespace hyperspace::array {

template <semiring::Semiring S>
class AssocArray {
 public:
  using value_type = typename S::value_type;
  using semiring_type = S;
  using Entry = std::tuple<Key, Key, value_type>;

  AssocArray() : data_(0, 0, S::zero()) {}

  /// Construction A = A(k1, k2, v) (Table II): parallel key/value vectors;
  /// duplicate (k1, k2) pairs combine with ⊕ (multi-edge semantics). Each
  /// key side is sorted once and ranked (KeySet::ranked); triples are
  /// emitted in input order, so duplicates fold in input order.
  AssocArray(const std::vector<Key>& k1, const std::vector<Key>& k2,
             const std::vector<value_type>& v) {
    if (k1.size() != k2.size() || k1.size() != v.size()) {
      throw std::invalid_argument("AssocArray: k1, k2, v length mismatch");
    }
    const auto [rows, ri] = KeySet::ranked(k1);
    const auto [cols, ci] = KeySet::ranked(k2);
    rows_ = rows;
    cols_ = cols;
    std::vector<sparse::Triple<value_type>> t;
    t.reserve(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      t.push_back({ri[i], ci[i], v[i]});
    }
    data_ = sparse::Matrix<value_type>::template from_triples<S>(
        static_cast<sparse::Index>(rows_.size()),
        static_cast<sparse::Index>(cols_.size()), std::move(t));
  }

  /// Construction from (key, key, value) entries.
  static AssocArray from_entries(const std::vector<Entry>& entries) {
    std::vector<Key> k1, k2;
    std::vector<value_type> v;
    k1.reserve(entries.size());
    k2.reserve(entries.size());
    v.reserve(entries.size());
    for (const auto& [a, b, val] : entries) {
      k1.push_back(a);
      k2.push_back(b);
      v.push_back(val);
    }
    return AssocArray(k1, k2, v);
  }

  /// Wrap an existing matrix with explicit key spaces (sizes must match).
  AssocArray(KeySet rows, KeySet cols, sparse::Matrix<value_type> data)
      : rows_(std::move(rows)), cols_(std::move(cols)), data_(std::move(data)) {
    if (static_cast<sparse::Index>(rows_.size()) != data_.nrows() ||
        static_cast<sparse::Index>(cols_.size()) != data_.ncols()) {
      throw std::invalid_argument("AssocArray: key/matrix shape mismatch");
    }
  }

  /// Permutation array P(k1, k2) = A(k1, k2, 1) with k1, k2 unique
  /// (Table II). k1 and k2 must have equal length.
  static AssocArray permutation(const std::vector<Key>& k1,
                                const std::vector<Key>& k2) {
    if (k1.size() != k2.size()) {
      throw std::invalid_argument("permutation: key length mismatch");
    }
    return AssocArray(k1, k2,
                      std::vector<value_type>(k1.size(), S::one()));
  }

  /// Identity I(k) = P(k, k) (Table II).
  static AssocArray identity(const KeySet& k) {
    return permutation(k.keys(), k.keys());
  }

  /// The all-1 array over the given key spaces ("1 is the array of all 1").
  static AssocArray ones(const KeySet& r, const KeySet& c) {
    return AssocArray(
        r, c,
        sparse::Matrix<value_type>::full(static_cast<sparse::Index>(r.size()),
                                         static_cast<sparse::Index>(c.size()),
                                         S::one(), S::zero()));
  }

  const KeySet& row_keys() const { return rows_; }   ///< full key space
  const KeySet& col_keys() const { return cols_; }
  const sparse::Matrix<value_type>& matrix() const { return data_; }
  sparse::Index nnz() const { return data_.nnz(); }
  bool empty() const { return data_.nnz() == 0; }

  /// k1 = row(A): keys of rows with at least one stored entry (Table II).
  KeySet row() const {
    std::vector<Key> ks;
    const auto v = data_.view();
    ks.reserve(v.row_ids.size());
    for (std::size_t ri = 0; ri < v.row_ids.size(); ++ri) {
      if (!v.row_cols(ri).empty()) {
        ks.push_back(rows_[static_cast<std::size_t>(v.row_ids[ri])]);
      }
    }
    return KeySet(std::move(ks));
  }

  /// k2 = col(A): keys of columns with at least one stored entry.
  KeySet col() const {
    std::vector<char> seen(cols_.size(), 0);
    const auto v = data_.view();
    for (std::size_t ri = 0; ri < v.row_ids.size(); ++ri) {
      for (const auto c : v.row_cols(ri)) {
        seen[static_cast<std::size_t>(c)] = 1;
      }
    }
    std::vector<Key> ks;
    for (std::size_t c = 0; c < seen.size(); ++c) {
      if (seen[c]) ks.push_back(cols_[c]);
    }
    return KeySet(std::move(ks));
  }

  /// Stored value at (r, c), if present.
  std::optional<value_type> get(const Key& r, const Key& c) const {
    const auto ri = rows_.find(r);
    const auto ci = cols_.find(c);
    if (!ri || !ci) return std::nullopt;
    return data_.get(static_cast<sparse::Index>(*ri),
                     static_cast<sparse::Index>(*ci));
  }

  /// Extraction (k1, k2, v) = A (Table II), in key order.
  std::vector<Entry> entries() const {
    std::vector<Entry> out;
    for (const auto& t : data_.to_triples()) {
      out.emplace_back(rows_[static_cast<std::size_t>(t.row)],
                       cols_[static_cast<std::size_t>(t.col)], t.val);
    }
    return out;
  }

  /// Transpose A(k2, k1) = Aᵀ(k1, k2).
  AssocArray transpose() const {
    return AssocArray(cols_, rows_, sparse::transpose(data_));
  }

  /// Sub-array A(rk, ck): rows/cols restricted to the given key sets
  /// (missing keys simply select nothing — no conformance errors).
  AssocArray extract(const KeySet& rk, const KeySet& ck) const {
    return realign(rk, ck);
  }

  /// Rows of A whose key is in rk, all columns: A(rk, :).
  AssocArray extract_rows(const KeySet& rk) const { return extract(rk, cols_); }

  /// Columns of A whose key is in ck, all rows: A(:, ck).
  AssocArray extract_cols(const KeySet& ck) const { return extract(rows_, ck); }

  /// |A|₀ (Table II): non-zero entries become 1.
  AssocArray zero_norm() const {
    return AssocArray(rows_, cols_, sparse::zero_norm<S>(data_));
  }

  /// Re-embed this array in the given (super- or sub-) key spaces.
  /// Entries whose keys are absent from the new spaces are dropped.
  /// Both key spaces are sorted, so the old→new position maps are monotone
  /// and the remapped entries stay in canonical order: no per-entry key
  /// search, no sort, no ⊕ fold. Maps cover only the view's rows and the
  /// columns stored entries use, so a tiny array realigns into a huge key
  /// space in O(log) comparisons per key.
  AssocArray realign(const KeySet& new_rows, const KeySet& new_cols) const {
    const auto v = data_.view();
    const auto rmap = rows_.index_map(v.row_ids, new_rows);
    std::vector<char> used(cols_.size(), 0);
    for (const auto c : v.cols) used[static_cast<std::size_t>(c)] = 1;
    std::vector<sparse::Index> used_ids;
    for (std::size_t c = 0; c < used.size(); ++c) {
      if (used[c]) used_ids.push_back(static_cast<sparse::Index>(c));
    }
    const auto used_map = cols_.index_map(used_ids, new_cols);
    std::vector<sparse::Index> cmap(cols_.size(), -1);
    for (std::size_t i = 0; i < used_ids.size(); ++i) {
      cmap[static_cast<std::size_t>(used_ids[i])] = used_map[i];
    }
    const auto t = sparse::detail::chunked_collect<value_type>(
        static_cast<std::ptrdiff_t>(v.row_ids.size()), 256,
        [&](std::ptrdiff_t ri, std::vector<sparse::Triple<value_type>>& part) {
          const sparse::Index r = rmap[static_cast<std::size_t>(ri)];
          if (r < 0) return;
          const auto rc = v.row_cols(static_cast<std::size_t>(ri));
          const auto rv = v.row_vals(static_cast<std::size_t>(ri));
          for (std::size_t j = 0; j < rc.size(); ++j) {
            const sparse::Index c = cmap[static_cast<std::size_t>(rc[j])];
            if (c >= 0) part.push_back({r, c, rv[j]});
          }
        });
    return AssocArray(new_rows, new_cols,
                      sparse::Matrix<value_type>::from_canonical_triples(
                          static_cast<sparse::Index>(new_rows.size()),
                          static_cast<sparse::Index>(new_cols.size()), t,
                          S::zero()));
  }

  /// Shrink key spaces to the non-empty rows/columns.
  AssocArray compact() const { return realign(row(), col()); }

  /// Entry-set equality: same stored (key, key, value) triples, regardless
  /// of how large the ambient key spaces are. This is the right notion of
  /// equality for arrays that are "added and multiplied with little regard
  /// for the true dimensions of their key spaces".
  friend bool operator==(const AssocArray& a, const AssocArray& b) {
    return a.entries() == b.entries();
  }

  friend std::ostream& operator<<(std::ostream& os, const AssocArray& a) {
    os << "AssocArray " << a.rows_.size() << "x" << a.cols_.size()
       << " nnz=" << a.nnz() << '\n';
    for (const auto& [r, c, v] : a.entries()) {
      os << "  (" << r << ", " << c << ") -> " << v << '\n';
    }
    return os;
  }

 private:
  KeySet rows_;
  KeySet cols_;
  sparse::Matrix<value_type> data_;
};

namespace detail {

/// Align two arrays onto the union of their key spaces.
template <semiring::Semiring S>
std::pair<AssocArray<S>, AssocArray<S>> align(const AssocArray<S>& a,
                                              const AssocArray<S>& b) {
  const KeySet rows = key_union(a.row_keys(), b.row_keys());
  const KeySet cols = key_union(a.col_keys(), b.col_keys());
  return {a.realign(rows, cols), b.realign(rows, cols)};
}

}  // namespace detail

/// C = A ⊕ B — element-wise addition / graph union (Fig 5 top).
template <semiring::Semiring S>
AssocArray<S> add(const AssocArray<S>& a, const AssocArray<S>& b) {
  auto [x, y] = detail::align(a, b);
  return AssocArray<S>(x.row_keys(), x.col_keys(),
                       sparse::ewise_add<S>(x.matrix(), y.matrix()));
}

/// C = A ⊗ B — element-wise multiplication / graph intersection (Fig 5
/// bottom).
template <semiring::Semiring S>
AssocArray<S> mult(const AssocArray<S>& a, const AssocArray<S>& b) {
  auto [x, y] = detail::align(a, b);
  return AssocArray<S>(x.row_keys(), x.col_keys(),
                       sparse::ewise_mult<S>(x.matrix(), y.matrix()));
}

/// C = A ⊕.⊗ B — array multiplication: C(k1,k2) = ⨁_k A(k1,k) ⊗ B(k,k2).
/// Inner key spaces are aligned by union; "what is more important ... is
/// some overlap in the non-zero row and column keys" (Section III).
template <semiring::Semiring S>
AssocArray<S> mtimes(const AssocArray<S>& a, const AssocArray<S>& b) {
  const KeySet inner = key_union(a.col_keys(), b.row_keys());
  const AssocArray<S> x = a.realign(a.row_keys(), inner);
  const AssocArray<S> y = b.realign(inner, b.col_keys());
  return AssocArray<S>(a.row_keys(), b.col_keys(),
                       sparse::mxm<S>(x.matrix(), y.matrix()));
}

/// C⟨M⟩ = A ⊕.⊗ B — masked array multiplication with the mask fused into
/// accumulation (sparse::mxm_masked): M's pattern, re-embedded in
/// (row(A), col(B)) key space, limits which output keys are ever produced —
/// the §V-B row-mask |…|₀ ∩ A pushdown. `stats` receives kept/skipped flop
/// counts.
template <semiring::Semiring S, semiring::Semiring SM>
AssocArray<S> mtimes_masked(const AssocArray<S>& a, const AssocArray<S>& b,
                            const AssocArray<SM>& mask,
                            sparse::MaskDesc desc = {},
                            sparse::MxmMaskStats* stats = nullptr) {
  const KeySet inner = key_union(a.col_keys(), b.row_keys());
  const AssocArray<S> x = a.realign(a.row_keys(), inner);
  const AssocArray<S> y = b.realign(inner, b.col_keys());
  const AssocArray<SM> m = mask.realign(a.row_keys(), b.col_keys());
  return AssocArray<S>(
      a.row_keys(), b.col_keys(),
      sparse::mxm_masked<S>(x.matrix(), y.matrix(), m.matrix(), desc, stats));
}

/// Operator sugar matching the paper's notation.
template <semiring::Semiring S>
AssocArray<S> operator+(const AssocArray<S>& a, const AssocArray<S>& b) {
  return add(a, b);
}
template <semiring::Semiring S>
AssocArray<S> operator*(const AssocArray<S>& a, const AssocArray<S>& b) {
  return mult(a, b);
}

}  // namespace hyperspace::array
