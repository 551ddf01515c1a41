// Tests of the driver's own measurement rules:
//   python3 e2ebench/run.py --selftest
// Exits nonzero on the first failed check.

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "common.hpp"
#include "measure.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

template <class F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void percentile_rule() {
  using namespace e2e;
  // 1000 samples: p99 is rank 990, with exactly 10 samples beyond it.
  check(samples_beyond(1000, 0.99) == 10, "p99 of 1000 has 10 samples beyond");
  check(percentile_supported(1000, 0.99), "p99 reportable from 1000 samples");
  check(!percentile_supported(999, 0.99), "p99 not reportable from 999 samples");
  check(!percentile_supported(0, 0.5), "no percentile of nothing");
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  check(percentile(v, 0.99) == 990, "nearest-rank p99 of 1..1000 is 990");
  check(percentile(v, 0.5) == 500, "nearest-rank p50 of 1..1000 is 500");
  std::vector<double> few(999, 1.0);
  check(throws([&] { percentile(few, 0.99); }), "p99 of 999 samples throws");
  check(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5, "median of odd and even counts");
}

void latency_from_due_time() {
  using namespace e2e;
  // Sent 2 us late, answered 2 us after sending: the request waited 4 us.
  const Timed late{1'000, 3'000, 5'000};
  check(late.latency_us() == 4.0, "latency counts from the due time");
  check(late.lateness_us() == 2.0, "lateness is send minus due");
  const Timed early{5'000, 4'000, 6'000};
  check(early.lateness_us() == 0.0, "an early send is not late");
  check(early.latency_us() == 1.0, "latency of an early send still counts from due");
  check(due_at(100, 0, 1000.0) == 100 && due_at(100, 3, 1000.0) == 3'000'100,
        "fixed-rate schedule: request i is due at t0 + i / rate");
}

void span_self_time() {
  using namespace e2e;
  // root [0,100] holds a [10,40] and b [50,90]; b holds c [60,70].
  SpanLane lane("test");
  const auto root = lane.open_at("root", 0);
  const auto a = lane.open_at("a", 10);
  lane.close_at(a, 40);
  const auto b = lane.open_at("b", 50);
  const auto c = lane.open_at("c", 60);
  lane.close_at(c, 70);
  lane.close_at(b, 90);
  lane.close_at(root, 100);
  check(lane.balanced(), "every span closed");
  auto self = self_time_ns(lane);
  check(self["root"] == 30 && self["a"] == 30 && self["b"] == 30 && self["c"] == 10,
        "self time is duration minus direct children");
  double sum = 0;
  for (const auto& [_, ns] : self) sum += ns;
  check(sum == root_time_ns(lane), "self times of a lane add up to its roots");
  check(lane.spans()[c].parent == static_cast<std::int64_t>(b), "parent follows nesting");

  SpanLane bad("bad");
  const auto outer = bad.open_at("outer", 0);
  bad.open_at("inner", 1);
  check(throws([&] { bad.close_at(outer, 2); }), "closing an outer span first throws");
}

void fixed_op_count_accounting() {
  using namespace e2e;
  PhaseCounts pc{"closed", 5, {}};
  pc.kinds["point"] = {3, 3, 0, 2};
  pc.kinds["mutate"] = {2, 1, 1, 1};
  const OpCount t = pc.total();
  check(t.attempted == 5 && t.ok == 4 && t.failed == 1 && t.in_limit == 3, "totals sum kinds");
  check(pc.complete(), "a phase that ran its op count is complete");
  pc.target = 6;
  check(!pc.complete(), "a phase short of its op count is incomplete");
  pc.target = 5;
  pc.kinds["point"].ok = 2;
  check(!pc.complete(), "an op neither ok nor failed makes the phase incomplete");
}

void byte_comparison() {
  using namespace e2e;
  const auto m = [](double v) {
    return Mat::from_triples<S>(3, 3, {{0, 1, 1.0}, {2, 0, v}});
  };
  check(same_bytes(m(2.0), m(2.0)), "equal matrices compare equal");
  check(!same_bytes(m(2.0), m(2.0000000000000004)), "a one-ulp difference is found");
  Digest x, y, z;
  x.matrix(m(2.0));
  y.matrix(m(2.0));
  z.matrix(m(2.0000000000000004));
  check(x.value() == y.value() && x.value() != z.value(), "digest follows the entry bytes");
  Digest p, q;
  p.bytes("ab", 2);
  q.bytes("ab\0", 3);
  check(p.value() != q.value(), "digest is length-tagged");
}

}  // namespace

int main() {
  percentile_rule();
  latency_from_due_time();
  span_self_time();
  fixed_op_count_accounting();
  byte_comparison();
  if (failures == 0) std::printf("e2ebench selftest: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
