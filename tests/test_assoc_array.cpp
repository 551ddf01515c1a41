// Unit tests for AssocArray — every Table II operation.

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <sstream>
#include <string>

#include "array/assoc_array.hpp"
#include "helpers.hpp"
#include "semiring/all.hpp"
#include "util/rng.hpp"

namespace {

using namespace hyperspace;
using namespace hyperspace::array;
using S = semiring::PlusTimes<double>;
using Arr = AssocArray<S>;

Arr sample() {
  // A 3-row table keyed by names and fields.
  return Arr(std::vector<Key>{"alice", "alice", "bob", "carol"},
             std::vector<Key>{"age", "city", "age", "city"},
             std::vector<double>{30, 1, 40, 2});
}

TEST(AssocArray, ConstructionAndExtractionRoundTrip) {
  const auto a = sample();
  const auto entries = a.entries();
  ASSERT_EQ(entries.size(), 4u);
  // Entries come back in key order.
  EXPECT_EQ(std::get<0>(entries[0]), Key("alice"));
  EXPECT_EQ(std::get<1>(entries[0]), Key("age"));
  EXPECT_EQ(std::get<2>(entries[0]), 30.0);
  EXPECT_EQ(Arr::from_entries(entries), a);
}

TEST(AssocArray, DuplicateKeysCombineWithSemiringAdd) {
  const Arr a(std::vector<Key>{"x", "x"}, std::vector<Key>{"k", "k"},
              std::vector<double>{2.0, 5.0});
  EXPECT_EQ(a.nnz(), 1);
  EXPECT_EQ(a.get("x", "k"), 7.0);
}

TEST(AssocArray, LengthMismatchThrows) {
  EXPECT_THROW(Arr(std::vector<Key>{"a"}, std::vector<Key>{"b", "c"},
                   std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(AssocArray, GetAbsentKeyIsEmpty) {
  const auto a = sample();
  EXPECT_EQ(a.get("alice", "age"), 30.0);
  EXPECT_EQ(a.get("dave", "age"), std::nullopt);
  EXPECT_EQ(a.get("alice", "salary"), std::nullopt);
}

TEST(AssocArray, RowAndColReturnNonEmptyKeys) {
  const auto a = sample();
  EXPECT_EQ(a.row(), (KeySet{"alice", "bob", "carol"}));
  EXPECT_EQ(a.col(), (KeySet{"age", "city"}));
}

TEST(AssocArray, PermutationAndIdentity) {
  const auto p = Arr::permutation({"a", "b", "c"}, {"z", "y", "x"});
  EXPECT_EQ(p.nnz(), 3);
  EXPECT_EQ(p.get("a", "z"), S::one());
  const auto eye = Arr::identity(KeySet{"a", "b"});
  EXPECT_EQ(eye.get("a", "a"), S::one());
  EXPECT_EQ(eye.get("a", "b"), std::nullopt);
}

TEST(AssocArray, PermutationLengthMismatchThrows) {
  EXPECT_THROW(Arr::permutation({"a"}, {"x", "y"}), std::invalid_argument);
}

TEST(AssocArray, OnesIsFullArray) {
  const auto ones = Arr::ones(KeySet{"r1", "r2"}, KeySet{"c1"});
  EXPECT_EQ(ones.nnz(), 2);
  EXPECT_EQ(ones.get("r2", "c1"), 1.0);
}

TEST(AssocArray, TransposeSwapsKeys) {
  const auto t = sample().transpose();
  EXPECT_EQ(t.get("age", "alice"), 30.0);
  EXPECT_EQ(t.row(), (KeySet{"age", "city"}));
}

TEST(AssocArray, TransposeInvolution) {
  const auto a = sample();
  EXPECT_EQ(a.transpose().transpose(), a);
}

TEST(AssocArray, ExtractSubArray) {
  const auto a = sample();
  const auto sub = a.extract(KeySet{"alice", "bob"}, KeySet{"age"});
  EXPECT_EQ(sub.nnz(), 2);
  EXPECT_EQ(sub.get("alice", "age"), 30.0);
  EXPECT_EQ(sub.get("alice", "city"), std::nullopt);
}

TEST(AssocArray, ExtractWithForeignKeysSelectsNothing) {
  const auto a = sample();
  const auto sub = a.extract(KeySet{"nobody"}, KeySet{"age"});
  EXPECT_TRUE(sub.empty());
}

TEST(AssocArray, ZeroNormMapsToOne) {
  const auto z = sample().zero_norm();
  for (const auto& [r, c, v] : z.entries()) EXPECT_EQ(v, 1.0);
  EXPECT_EQ(z.nnz(), 4);
}

TEST(AssocArray, CompactDropsEmptyKeySpace) {
  const auto a = sample();
  const auto padded = a.realign(key_union(a.row_keys(), KeySet{"zz"}),
                                a.col_keys());
  EXPECT_EQ(padded.row_keys().size(), 4u);
  const auto c = padded.compact();
  EXPECT_EQ(c.row_keys().size(), 3u);
  EXPECT_EQ(c, a);
}

TEST(AssocArray, AddAlignsDifferentKeySpaces) {
  // The defining associative-array behaviour: operands over different key
  // spaces combine with no conformance fuss.
  const Arr a(std::vector<Key>{"alice"}, std::vector<Key>{"age"},
              std::vector<double>{30});
  const Arr b(std::vector<Key>{"bob"}, std::vector<Key>{"age"},
              std::vector<double>{40});
  const auto c = add(a, b);
  EXPECT_EQ(c.get("alice", "age"), 30.0);
  EXPECT_EQ(c.get("bob", "age"), 40.0);
  EXPECT_EQ(c.nnz(), 2);
}

TEST(AssocArray, AddCombinesOverlap) {
  const Arr a(std::vector<Key>{"x"}, std::vector<Key>{"k"},
              std::vector<double>{1});
  const Arr b(std::vector<Key>{"x"}, std::vector<Key>{"k"},
              std::vector<double>{2});
  EXPECT_EQ(add(a, b).get("x", "k"), 3.0);
}

TEST(AssocArray, MultIsKeyIntersection) {
  const auto a = sample();
  const Arr b(std::vector<Key>{"alice", "dave"},
              std::vector<Key>{"age", "age"}, std::vector<double>{2, 9});
  const auto c = mult(a, b);
  EXPECT_EQ(c.nnz(), 1);
  EXPECT_EQ(c.get("alice", "age"), 60.0);
}

TEST(AssocArray, MtimesComposesOverSharedInnerKeys) {
  // friend-of-friend: alice->bob, bob->carol ⇒ alice->carol.
  const Arr g(std::vector<Key>{"alice", "bob"},
              std::vector<Key>{"bob", "carol"}, std::vector<double>{1, 1});
  const auto two_hop = mtimes(g, g);
  EXPECT_EQ(two_hop.get("alice", "carol"), 1.0);
  EXPECT_EQ(two_hop.nnz(), 1);
}

TEST(AssocArray, MtimesWithDisjointInnerKeysIsZero) {
  // "What is more important ... is some overlap in the non-zero row and
  // column keys" — none here, so the product is all 0.
  const Arr a(std::vector<Key>{"r"}, std::vector<Key>{"k1"},
              std::vector<double>{3});
  const Arr b(std::vector<Key>{"k2"}, std::vector<Key>{"c"},
              std::vector<double>{4});
  EXPECT_TRUE(mtimes(a, b).empty());
}

TEST(AssocArray, MtimesIdentityBehaviour) {
  const auto a = sample();
  const auto eye = Arr::identity(a.col_keys());
  EXPECT_EQ(mtimes(a, eye), a);
  const auto eye_l = Arr::identity(a.row_keys());
  EXPECT_EQ(mtimes(eye_l, a), a);
}

TEST(AssocArray, OperatorSugar) {
  const auto a = sample();
  EXPECT_EQ(a + a, add(a, a));
  EXPECT_EQ(a * a, mult(a, a));
}

TEST(AssocArray, MixedKeyTypesInOneArray) {
  const Arr a(std::vector<Key>{1, "alice", 2.5},
              std::vector<Key>{"f", "f", "f"}, std::vector<double>{1, 2, 3});
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_EQ(a.get(1, "f"), 1.0);
  EXPECT_EQ(a.get("alice", "f"), 2.0);
  EXPECT_EQ(a.get(2.5, "f"), 3.0);
}

TEST(AssocArray, EqualityIsEntryBased) {
  const auto a = sample();
  const auto padded =
      a.realign(key_union(a.row_keys(), KeySet{"ghost"}), a.col_keys());
  EXPECT_EQ(a, padded);  // same entries, bigger ambient space
}

TEST(AssocArray, WrapMatrixShapeMismatchThrows) {
  EXPECT_THROW(Arr(KeySet{"a"}, KeySet{"b"},
                   sparse::Matrix<double>(2, 1, S::zero())),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Oracle tests: realign, extract and the ingest constructor against the
// per-entry key-search implementations they replaced, copied here as the
// reference. Results must match byte for byte at every thread count.

template <class Sr>
AssocArray<Sr> reference_ingest(const std::vector<Key>& k1,
                                const std::vector<Key>& k2,
                                const std::vector<typename Sr::value_type>& v) {
  using T = typename Sr::value_type;
  const KeySet rows(k1);
  const KeySet cols(k2);
  std::vector<sparse::Triple<T>> t;
  t.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    t.push_back({static_cast<sparse::Index>(*rows.find(k1[i])),
                 static_cast<sparse::Index>(*cols.find(k2[i])), v[i]});
  }
  auto m = sparse::Matrix<T>::template from_triples<Sr>(
      static_cast<sparse::Index>(rows.size()),
      static_cast<sparse::Index>(cols.size()), std::move(t));
  return AssocArray<Sr>(rows, cols, std::move(m));
}

template <class Sr>
AssocArray<Sr> reference_realign(const AssocArray<Sr>& a, const KeySet& nr,
                                 const KeySet& nc) {
  using T = typename Sr::value_type;
  std::vector<sparse::Triple<T>> t;
  for (auto& [r, c, v] : a.entries()) {
    const auto ri = nr.find(r);
    const auto ci = nc.find(c);
    if (ri && ci) {
      t.push_back({static_cast<sparse::Index>(*ri),
                   static_cast<sparse::Index>(*ci), v});
    }
  }
  auto m = sparse::Matrix<T>::template from_triples<Sr>(
      static_cast<sparse::Index>(nr.size()),
      static_cast<sparse::Index>(nc.size()), std::move(t));
  return AssocArray<Sr>(nr, nc, std::move(m));
}

template <class Sr>
AssocArray<Sr> reference_extract(const AssocArray<Sr>& a, const KeySet& rk,
                                 const KeySet& ck) {
  std::vector<Key> k1, k2;
  std::vector<typename Sr::value_type> v;
  for (auto& [r, c, val] : a.entries()) {
    if (rk.contains(r) && ck.contains(c)) {
      k1.push_back(r);
      k2.push_back(c);
      v.push_back(val);
    }
  }
  return reference_realign(reference_ingest<Sr>(k1, k2, v), rk, ck);
}

template <class U>
void expect_same_bytes(std::span<const U> got, std::span<const U> want) {
  ASSERT_EQ(got.size(), want.size());
  if (!got.empty()) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(U)), 0);
  }
}

template <class Sr>
std::string printed(const AssocArray<Sr>& a) {
  std::ostringstream os;
  os << a.row_keys() << ' ' << a.col_keys() << '\n' << a;
  return os.str();
}

template <class Sr>
void expect_identical(const AssocArray<Sr>& got, const AssocArray<Sr>& want) {
  using T = typename Sr::value_type;
  EXPECT_EQ(printed(got), printed(want));
  const auto& g = got.matrix();
  const auto& w = want.matrix();
  EXPECT_EQ(g.format(), w.format());
  EXPECT_EQ(g.nrows(), w.nrows());
  EXPECT_EQ(g.ncols(), w.ncols());
  EXPECT_EQ(g.nnz(), w.nnz());
  EXPECT_EQ(std::memcmp(&g.implicit_zero(), &w.implicit_zero(), sizeof(T)), 0);
  const auto gv = g.view();
  const auto wv = w.view();
  expect_same_bytes(gv.row_ids, wv.row_ids);
  expect_same_bytes(gv.row_ptr, wv.row_ptr);
  expect_same_bytes(gv.cols, wv.cols);
  expect_same_bytes(gv.vals, wv.vals);
}

constexpr int kThreadSweep[] = {1, 2, 8};

void expect_realign_matches(const Arr& a, const KeySet& nr, const KeySet& nc) {
  const auto want = reference_realign(a, nr, nc);
  for (const int nt : kThreadSweep) {
    SCOPED_TRACE("threads=" + std::to_string(nt));
    hyperspace::testing::ThreadGuard g(nt);
    expect_identical(a.realign(nr, nc), want);
  }
}

/// Values whose float sum depends on fold order: huge and tiny magnitudes
/// of both signs.
double order_sensitive(util::Xoshiro256& rng) {
  static constexpr double kMag[] = {1e16, 1.0, 3e-3, 7e8, 0.1};
  const double m = kMag[rng.bounded(5)];
  return rng.bounded(2) ? m : -m;
}

struct Triples {
  std::vector<Key> k1, k2;
  std::vector<double> v;
};

Triples string_triples(std::size_t n, std::uint64_t nrow_keys,
                       std::uint64_t ncol_keys, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Triples t;
  for (std::size_t i = 0; i < n; ++i) {
    t.k1.emplace_back("r" + std::to_string(rng.bounded(nrow_keys)));
    t.k2.emplace_back("c" + std::to_string(rng.bounded(ncol_keys)));
    t.v.push_back(order_sensitive(rng));
  }
  return t;
}

Key mixed_key(util::Xoshiro256& rng, std::uint64_t n) {
  const auto i = static_cast<std::int64_t>(rng.bounded(n));
  switch (rng.bounded(3)) {
    case 0: return Key(i);
    case 1: return Key(static_cast<double>(i) / 4.0);
    default: return Key("m" + std::to_string(i));
  }
}

Triples mixed_triples(std::size_t n, std::uint64_t nkeys, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Triples t;
  for (std::size_t i = 0; i < n; ++i) {
    t.k1.push_back(mixed_key(rng, nkeys));
    t.k2.push_back(mixed_key(rng, nkeys));
    t.v.push_back(order_sensitive(rng));
  }
  return t;
}

Arr build(const Triples& t) { return Arr(t.k1, t.k2, t.v); }

/// Every `stride`-th key of `s`, starting at `offset`.
KeySet every(const KeySet& s, std::size_t stride, std::size_t offset = 0) {
  std::vector<Key> ks;
  for (std::size_t i = offset; i < s.size(); i += stride) ks.push_back(s[i]);
  return KeySet(std::move(ks));
}

TEST(AssocArrayOracle, IngestFoldsDuplicatesLikeReference) {
  // 40,000 entries over 50 x 40 keys: every pair repeats ~20 times, and
  // the sums depend on fold order. Large enough for the parallel sorts.
  const auto t = string_triples(40000, 50, 40, 11);
  const auto want = reference_ingest<S>(t.k1, t.k2, t.v);
  for (const int nt : kThreadSweep) {
    SCOPED_TRACE("threads=" + std::to_string(nt));
    hyperspace::testing::ThreadGuard g(nt);
    expect_identical(build(t), want);
  }
}

TEST(AssocArrayOracle, IngestSparseStringAndMixedKeys) {
  const auto s = string_triples(30000, 20000, 5000, 12);
  const auto m = mixed_triples(30000, 3000, 13);
  for (const auto* t : {&s, &m}) {
    const auto want = reference_ingest<S>(t->k1, t->k2, t->v);
    for (const int nt : kThreadSweep) {
      SCOPED_TRACE("threads=" + std::to_string(nt));
      hyperspace::testing::ThreadGuard g(nt);
      expect_identical(build(*t), want);
    }
  }
}

TEST(AssocArrayOracle, IngestEmptyAndSingle) {
  const Triples none;
  expect_identical(build(none), reference_ingest<S>(none.k1, none.k2, none.v));
  const Triples one{{Key("r")}, {Key(2.5)}, {4.0}};
  expect_identical(build(one), reference_ingest<S>(one.k1, one.k2, one.v));
}

TEST(AssocArrayOracle, RealignSuperset) {
  const auto a = build(string_triples(30000, 8000, 3000, 21));
  const auto b = build(string_triples(30000, 8000, 3000, 22));
  expect_realign_matches(a, key_union(a.row_keys(), b.row_keys()),
                         key_union(a.col_keys(), b.col_keys()));
  expect_realign_matches(a, key_union(a.row_keys(), b.row_keys()),
                         a.col_keys());
}

TEST(AssocArrayOracle, RealignSubsetDropsEntries) {
  const auto a = build(string_triples(30000, 8000, 3000, 23));
  const KeySet rows = every(a.row_keys(), 2);
  const KeySet cols = every(a.col_keys(), 3, 1);
  expect_realign_matches(a, rows, cols);
  expect_realign_matches(a, a.row_keys(), cols);
  expect_realign_matches(a, rows, a.col_keys());
  // Partly overlapping: half the old keys plus keys the array never used.
  const auto b = build(string_triples(2000, 16000, 6000, 24));
  expect_realign_matches(a, key_union(rows, b.row_keys()),
                         key_union(cols, b.col_keys()));
}

TEST(AssocArrayOracle, RealignDisjointIdentityAndEmpty) {
  const auto a = build(string_triples(20000, 5000, 2000, 25));
  const KeySet foreign{"zz0", "zz1", Key(7), Key(0.5)};
  expect_realign_matches(a, foreign, foreign);
  expect_realign_matches(a, a.row_keys(), foreign);
  expect_realign_matches(a, a.row_keys(), a.col_keys());
  expect_realign_matches(a, KeySet{}, KeySet{});
  expect_realign_matches(a, KeySet{}, a.col_keys());
  expect_realign_matches(Arr(), a.row_keys(), a.col_keys());
  expect_realign_matches(Arr(), KeySet{}, KeySet{});
}

TEST(AssocArrayOracle, RealignMixedKeyTypes) {
  const auto a = build(mixed_triples(20000, 2000, 26));
  const auto b = build(mixed_triples(20000, 4000, 27));
  expect_realign_matches(a, key_union(a.row_keys(), b.row_keys()),
                         key_union(a.col_keys(), b.col_keys()));
  expect_realign_matches(a, every(a.row_keys(), 3), every(a.col_keys(), 2, 1));
  expect_realign_matches(a, b.row_keys(), b.col_keys());
}

TEST(AssocArrayOracle, RealignPointIntoLargeKeySpace) {
  // The per-query shape of the sharded and batched array paths: a
  // one-entry lhs realigned into a 65,536-key base.
  std::vector<Key> ks;
  for (int i = 0; i < 65536; ++i) ks.emplace_back("v" + std::to_string(i));
  const KeySet base(std::move(ks));
  for (const char* col : {"v0", "v31337", "v65535", "absent"}) {
    const Arr lhs(std::vector<Key>{"q"}, std::vector<Key>{col},
                  std::vector<double>{1.5});
    expect_realign_matches(lhs, lhs.row_keys(), base);
    expect_realign_matches(lhs, base, base);
    // The result shares the base's keys rather than copying 65,536 of them.
    EXPECT_EQ(&lhs.realign(lhs.row_keys(), base).col_keys().keys(),
              &base.keys());
  }
}

TEST(AssocArrayOracle, RealignDenseAndBitmapPayloads) {
  const auto ones = Arr::ones(KeySet{"a", "b", "c"}, KeySet{Key(1), Key(2)});
  ASSERT_EQ(ones.matrix().format(), sparse::Format::kDense);
  expect_realign_matches(ones, ones.row_keys(), ones.col_keys());
  expect_realign_matches(ones, KeySet{"a", "b", "c", "d"}, ones.col_keys());
  expect_realign_matches(ones, KeySet{"b", "z"}, KeySet{Key(2), Key(3)});
}

TEST(AssocArrayOracle, ExtractMatchesReferenceAndRealign) {
  const auto a = build(string_triples(20000, 5000, 2000, 28));
  const KeySet rows = every(a.row_keys(), 2);
  const KeySet cols = every(a.col_keys(), 4, 3);
  const KeySet foreign{"nobody", Key(3)};
  const std::pair<KeySet, KeySet> cases[] = {
      {rows, cols}, {rows, a.col_keys()}, {a.row_keys(), cols},
      {foreign, cols}, {foreign, foreign}, {KeySet{}, KeySet{}}};
  for (const auto& [rk, ck] : cases) {
    const auto want = reference_extract(a, rk, ck);
    for (const int nt : kThreadSweep) {
      SCOPED_TRACE("threads=" + std::to_string(nt));
      hyperspace::testing::ThreadGuard g(nt);
      expect_identical(a.extract(rk, ck), want);
      expect_identical(a.realign(rk, ck), want);
    }
  }
  expect_identical(sample().extract(KeySet{"nobody"}, KeySet{"age"}),
                   reference_extract(sample(), KeySet{"nobody"}, KeySet{"age"}));
}

}  // namespace
