// Table II — associative array operations and properties.
//
// Reproduction: prints each Table II row with a live verification on random
// key-addressed arrays, then times each operation as a function of nnz.

#include "bench_common.hpp"

#include <iostream>

#include "array/assoc_array.hpp"

namespace {

using namespace hyperspace;
using namespace hyperspace::array;
using namespace hyperspace::bench;
using S = semiring::PlusTimes<double>;
using Arr = AssocArray<S>;

Arr random_array(std::size_t entries, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<Key> k1, k2;
  std::vector<double> v;
  for (std::size_t i = 0; i < entries; ++i) {
    k1.emplace_back("ip-" + std::to_string(rng.bounded(entries)));
    k2.emplace_back("port-" + std::to_string(rng.bounded(64)));
    v.push_back(static_cast<double>(1 + rng.bounded(9)));
  }
  return Arr(k1, k2, v);
}

void print_table2() {
  util::banner("Table II: Associative Array Operations (verified live)");
  const auto A = random_array(500, 1);
  const auto B = random_array(500, 2);
  const auto C = random_array(500, 3);

  util::TextTable t({"property", "notation", "status"});
  const auto entries = A.entries();
  t.row("Construction", "A = A(k1,k2,v)",
        Arr::from_entries(entries) == A ? "ok" : "FAIL");
  t.row("Extraction", "(k1,k2,v) = A",
        entries.size() == static_cast<std::size_t>(A.nnz()) ? "ok" : "FAIL");
  t.row("Identity", "I(k) = P(k,k)",
        Arr::identity(A.row()).nnz() ==
                static_cast<sparse::Index>(A.row().size())
            ? "ok"
            : "FAIL");
  t.row("Transpose", "A(k2,k1) = A^T(k1,k2)",
        A.transpose().transpose() == A ? "ok" : "FAIL");
  t.row("Row keys", "k1 = row(A)", !A.row().empty() ? "ok" : "FAIL");
  t.row("Col keys", "k2 = col(A)", !A.col().empty() ? "ok" : "FAIL");
  t.row("Nonzero count", "nnz(A)", A.nnz() > 0 ? "ok" : "FAIL");
  t.row("Same sparsity", "|A|0 = |B|0",
        A.zero_norm() == A.zero_norm() ? "ok" : "FAIL");
  t.row("EW add identity", "A + 0 = A", add(A, Arr()) == A ? "ok" : "FAIL");
  t.row("EW mult identity", "A x 1 = A",
        mult(A, Arr::ones(A.row_keys(), A.col_keys())) == A ? "ok" : "FAIL");
  t.row("EW mult annihilator", "A x 0 = 0",
        mult(A, Arr()).empty() ? "ok" : "FAIL");
  t.row("Array mult identity", "A I = A",
        mtimes(A, Arr::identity(A.col_keys())) == A ? "ok" : "FAIL");
  t.row("Array mult annihilator", "A 0 = 0",
        mtimes(A, Arr()).empty() ? "ok" : "FAIL");
  t.row("Commutativity", "A+B = B+A", add(A, B) == add(B, A) ? "ok" : "FAIL");
  t.row("Commutativity", "AxB = BxA",
        mult(A, B) == mult(B, A) ? "ok" : "FAIL");
  t.row("Transpose of product", "(AB)^T = B^T A^T",
        mtimes(A, B).transpose() ==
                mtimes(B.transpose(), A.transpose())
            ? "ok"
            : "FAIL");
  t.row("Associativity", "(A+B)+C = A+(B+C)",
        add(add(A, B), C) == add(A, add(B, C)) ? "ok" : "FAIL");
  t.row("Associativity", "(AB)C = A(BC)",
        mtimes(mtimes(A, B), C) == mtimes(A, mtimes(B, C)) ? "ok" : "FAIL");
  t.row("Distributivity", "Ax(B+C) = AxB + AxC",
        mult(A, add(B, C)) == add(mult(A, B), mult(A, C)) ? "ok" : "FAIL");
  t.row("Distributivity", "A(B+C) = AB + AC",
        mtimes(A, add(B, C)) == add(mtimes(A, B), mtimes(A, C)) ? "ok"
                                                                : "FAIL");
  t.print();
}

void bm_construction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(random_array(n, 7));
  }
}
BENCHMARK(bm_construction)->Arg(1000)->Arg(10000);

void bm_ewise_add(benchmark::State& state) {
  const auto a = random_array(static_cast<std::size_t>(state.range(0)), 1);
  const auto b = random_array(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) benchmark::DoNotOptimize(add(a, b));
}
BENCHMARK(bm_ewise_add)->Arg(1000)->Arg(10000);

void bm_ewise_mult(benchmark::State& state) {
  const auto a = random_array(static_cast<std::size_t>(state.range(0)), 1);
  const auto b = random_array(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) benchmark::DoNotOptimize(mult(a, b));
}
BENCHMARK(bm_ewise_mult)->Arg(1000)->Arg(10000);

void bm_array_mult(benchmark::State& state) {
  const auto a = random_array(static_cast<std::size_t>(state.range(0)), 1);
  const auto b = random_array(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) benchmark::DoNotOptimize(mtimes(a, b.transpose()));
}
BENCHMARK(bm_array_mult)->Arg(1000)->Arg(4000);

void bm_transpose(benchmark::State& state) {
  const auto a = random_array(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) benchmark::DoNotOptimize(a.transpose());
}
BENCHMARK(bm_transpose)->Arg(1000)->Arg(10000);

void bm_zero_norm(benchmark::State& state) {
  const auto a = random_array(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) benchmark::DoNotOptimize(a.zero_norm());
}
BENCHMARK(bm_zero_norm)->Arg(1000)->Arg(10000);

// Key-space realignment, timed on its own: `superset` re-embeds a
// 100,000-entry array in the union with another's keys (the A ⊕ B shape),
// `subset` into every other row and column key (drops entries), `point`
// realigns a one-entry lhs into a 65,536-key base — the per-query step of
// the sharded and batched array paths.
enum class RealignCase { kSuperset, kSubset, kPoint };

KeySet every_other(const KeySet& s) {
  std::vector<Key> ks;
  for (std::size_t i = 0; i < s.size(); i += 2) ks.push_back(s[i]);
  return KeySet(std::move(ks));
}

void bm_realign(benchmark::State& state, RealignCase which) {
  constexpr std::size_t kEntries = 100000;
  Arr a;
  KeySet rows, cols;
  switch (which) {
    case RealignCase::kSuperset: {
      a = random_array(kEntries, 1);
      const auto b = random_array(kEntries, 2);
      rows = key_union(a.row_keys(), b.row_keys());
      cols = key_union(a.col_keys(), b.col_keys());
      break;
    }
    case RealignCase::kSubset:
      a = random_array(kEntries, 1);
      rows = every_other(a.row_keys());
      cols = every_other(a.col_keys());
      break;
    case RealignCase::kPoint: {
      std::vector<Key> base;
      for (int i = 0; i < 65536; ++i) base.emplace_back("v" + std::to_string(i));
      a = Arr(std::vector<Key>{"v4242"}, std::vector<Key>{"v31337"},
              std::vector<double>{1.0});
      rows = a.row_keys();
      cols = KeySet(std::move(base));
      break;
    }
  }
  for (auto _ : state) benchmark::DoNotOptimize(a.realign(rows, cols));
}
BENCHMARK_CAPTURE(bm_realign, superset, RealignCase::kSuperset);
BENCHMARK_CAPTURE(bm_realign, subset, RealignCase::kSubset);
BENCHMARK_CAPTURE(bm_realign, point, RealignCase::kPoint);

/// String-keyed ingest A(k1, k2, v) alone (keys built outside the loop).
void bm_assoc_ingest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(7);
  std::vector<Key> k1, k2;
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) {
    k1.emplace_back("ip-" + std::to_string(rng.bounded(n / 4)));
    k2.emplace_back("ip-" + std::to_string(rng.bounded(n / 4)));
    v.push_back(static_cast<double>(1 + rng.bounded(9)));
  }
  for (auto _ : state) benchmark::DoNotOptimize(Arr(k1, k2, v));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(bm_assoc_ingest)->Arg(131072)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_table2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
