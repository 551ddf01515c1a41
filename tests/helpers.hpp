#pragma once
// Shared helpers for the test suites (not a test binary: CMake only globs
// tests/test_*.cpp).

#include <vector>

#include "util/parallel.hpp"

namespace hyperspace::testing {

/// RAII thread-count override so a failing assertion can't leak a setting.
struct ThreadGuard {
  explicit ThreadGuard(int n) { util::set_num_threads(n); }
  ~ThreadGuard() { util::set_num_threads(0); }
};

/// Pointers to every element of `v`, in order — the span-of-pointers form
/// serve::run_batch takes. Valid while `v` is alive and unresized.
template <typename T>
std::vector<const T*> ptrs(const std::vector<T>& v) {
  std::vector<const T*> out;
  out.reserve(v.size());
  for (const auto& x : v) out.push_back(&x);
  return out;
}
template <typename T>
void ptrs(const std::vector<T>&&) = delete;  // would dangle

}  // namespace hyperspace::testing
