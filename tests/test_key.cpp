// Unit tests for Key (sortable mixed-type keys) and KeySet.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "array/key.hpp"

namespace {

using namespace hyperspace::array;

TEST(Key, TypeInspection) {
  EXPECT_TRUE(Key(5).is_int());
  EXPECT_TRUE(Key(2.5).is_real());
  EXPECT_TRUE(Key("abc").is_string());
  EXPECT_EQ(Key(5).as_int(), 5);
  EXPECT_EQ(Key(2.5).as_real(), 2.5);
  EXPECT_EQ(Key("abc").as_string(), "abc");
}

TEST(Key, StrictTotalOrderWithinType) {
  EXPECT_LT(Key(1), Key(2));
  EXPECT_LT(Key(1.5), Key(2.5));
  EXPECT_LT(Key("alice"), Key("bob"));
  EXPECT_FALSE(Key("bob") < Key("alice"));
}

TEST(Key, CrossTypeOrderIsDeterministic) {
  // ints < reals < strings (variant index order); mixed key sets sort.
  EXPECT_LT(Key(999), Key(0.5));
  EXPECT_LT(Key(0.5), Key("a"));
  EXPECT_LT(Key(999), Key("a"));
}

TEST(Key, EqualityIsTypeSensitive) {
  EXPECT_EQ(Key(3), Key(3));
  EXPECT_NE(Key(3), Key(3.0));  // int key != real key
  EXPECT_EQ(Key("x"), Key(std::string("x")));
}

TEST(Key, Printing) {
  std::ostringstream os;
  os << Key(7) << "/" << Key("ip");
  EXPECT_EQ(os.str(), "7/ip");
}

TEST(Key, NaNIsRejected) {
  // NaN has no place in a strict weak order and never equals itself, so a
  // key set could neither sort it nor find it again.
  EXPECT_THROW(Key(std::nan("")), std::invalid_argument);
  EXPECT_THROW(Key(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(KeySet({Key(1.0), Key(std::nan(""))}), std::invalid_argument);
  EXPECT_NO_THROW(Key(std::numeric_limits<double>::infinity()));
}

TEST(Key, NegativeZeroIsStoredAsZero) {
  // -0.0 == 0.0, so they are one key; one spelling keeps it byte-identical
  // whichever occurrence a key set keeps.
  EXPECT_EQ(Key(-0.0), Key(0.0));
  EXPECT_FALSE(std::signbit(Key(-0.0).as_real()));
  EXPECT_EQ(Key(-0.0).to_string(), Key(0.0).to_string());
}

TEST(KeySet, SortsAndDedupes) {
  const KeySet s{Key("b"), Key("a"), Key("b"), Key("c")};
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], Key("a"));
  EXPECT_EQ(s[2], Key("c"));
}

TEST(KeySet, FindReturnsPosition) {
  const KeySet s{Key(10), Key(20), Key(30)};
  EXPECT_EQ(s.find(Key(20)), 1u);
  EXPECT_EQ(s.find(Key(25)), std::nullopt);
  EXPECT_TRUE(s.contains(Key(30)));
  EXPECT_FALSE(s.contains(Key(31)));
}

TEST(KeySet, RangeBuilder) {
  const auto s = KeySet::range(4, 10);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0], Key(10));
  EXPECT_EQ(s[3], Key(13));
}

TEST(KeySet, RankedSortsOnceAndRanksEveryInput) {
  const std::vector<Key> ks{"b", 3, "a", "b", 0.5, 3};
  const auto [s, rank] = KeySet::ranked(ks);
  EXPECT_EQ(s, KeySet(ks));
  ASSERT_EQ(rank.size(), ks.size());
  for (std::size_t i = 0; i < ks.size(); ++i) {
    EXPECT_EQ(s[static_cast<std::size_t>(rank[i])], ks[i]);
  }
  EXPECT_TRUE(KeySet::ranked({}).first.empty());
}

TEST(KeySet, IndexMapGallopsThroughTarget) {
  std::vector<Key> big;
  for (int i = 0; i < 1000; i += 2) big.emplace_back(i);  // even ints
  const KeySet to(big);
  const KeySet from{Key(0), Key(3), Key(4), Key(500), Key(501), Key(998),
                    Key(999), Key("s")};
  const std::vector<std::int64_t> all{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(from.index_map(all, to),
            (std::vector<std::int64_t>{0, -1, 2, 250, -1, 499, -1, -1}));
  const std::vector<std::int64_t> some{1, 3, 5};
  EXPECT_EQ(from.index_map(some, to), (std::vector<std::int64_t>{-1, 250, 499}));
  EXPECT_EQ(from.index_map(all, KeySet{}), std::vector<std::int64_t>(8, -1));
  EXPECT_TRUE(from.index_map({}, to).empty());
}

TEST(KeySet, CopiesShareOneKeyVector) {
  const KeySet a{"x", "y"};
  KeySet b = a;
  EXPECT_EQ(&a.keys(), &b.keys());
  const KeySet c = std::move(b);  // copy-only: the source keeps its keys
  EXPECT_EQ(b, a);
  EXPECT_EQ(c, a);
  EXPECT_TRUE(KeySet().empty());
}

TEST(KeySet, UnionAndIntersection) {
  const KeySet a{Key(1), Key(2), Key(3)};
  const KeySet b{Key(3), Key(4)};
  EXPECT_EQ(key_union(a, b), (KeySet{Key(1), Key(2), Key(3), Key(4)}));
  EXPECT_EQ(key_intersection(a, b), (KeySet{Key(3)}));
}

TEST(KeySet, MixedTypeSetOperations) {
  const KeySet a{Key(1), Key("alice")};
  const KeySet b{Key("alice"), Key(2.0)};
  const auto u = key_union(a, b);
  EXPECT_EQ(u.size(), 3u);
  EXPECT_EQ(key_intersection(a, b), (KeySet{Key("alice")}));
}

TEST(KeySet, DisjointPredicate) {
  EXPECT_TRUE(disjoint(KeySet{Key(1)}, KeySet{Key(2)}));
  EXPECT_FALSE(disjoint(KeySet{Key(1), Key(2)}, KeySet{Key(2)}));
  EXPECT_TRUE(disjoint(KeySet{}, KeySet{Key(1)}));
}

TEST(KeySet, EmptySetBehaviour) {
  const KeySet e;
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(key_union(e, e).size(), 0u);
  EXPECT_FALSE(e.contains(Key(0)));
}

}  // namespace
