#pragma once
// Shared pieces of the driver: workload parameters, the metric sink that
// prints the final result line, and byte-level result comparison.

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "semiring/all.hpp"
#include "sparse/matrix.hpp"
#include "util/rng.hpp"

namespace e2e {

using S = hyperspace::semiring::PlusTimes<double>;
using Mat = hyperspace::sparse::Matrix<double>;
using hyperspace::sparse::Index;
using Rng = hyperspace::util::Xoshiro256;

/// A seeded permutation of [0, n): vertex relabellings and popularity
/// orders.
inline std::vector<Index> shuffled_ids(Index n, Rng& rng) {
  std::vector<Index> p(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < p.size(); ++i) p[i] = static_cast<Index>(i);
  for (std::size_t i = p.size(); i > 1; --i) std::swap(p[i - 1], p[rng.bounded(i)]);
  return p;
}

/// Workload sizes, rates and limits, passed as `--p name=value` (run.py
/// forwards them from workloads.json). A missing name is an error, so the
/// driver never runs on a silent default.
class Params {
 public:
  void set(const std::string& kv) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos) throw std::invalid_argument("--p expects name=value: " + kv);
    v_[kv.substr(0, eq)] = std::stod(kv.substr(eq + 1));
  }
  double operator()(const std::string& name) const {
    const auto it = v_.find(name);
    if (it == v_.end()) throw std::invalid_argument("missing workload parameter: " + name);
    return it->second;
  }
  std::size_t count(const std::string& name) const {
    return static_cast<std::size_t>((*this)(name));
  }

 private:
  std::map<std::string, double> v_;
};

/// Thrown when an answer differs from its reference; the driver then exits
/// nonzero without printing a result.
struct Mismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The run's outcome: the four keys of the last stdout line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }

  void print(std::ostream& os) const {
    std::ostringstream o;
    o << std::setprecision(12);
    o << "{\"correct\": true, \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, vu] = metrics[i];
      o << (i ? ", " : "") << '"' << name << "\": {\"value\": " << vu.first << ", \"unit\": \""
        << vu.second << "\"}";
    }
    o << "}}";
    os << o.str() << std::endl;
  }
};

/// Same shape and the same stored entries, value bytes compared with memcmp
/// (so -0.0 and +0.0 differ). Storage format is not compared: a CSR and a
/// DCSR holding the same entries are equal, as they are to a reader.
inline bool same_bytes(const Mat& a, const Mat& b) {
  if (a.nrows() != b.nrows() || a.ncols() != b.ncols() || a.nnz() != b.nnz()) return false;
  const auto va = a.view();
  const auto vb = b.view();
  std::size_t ia = 0, ib = 0;
  for (;;) {
    while (ia < va.row_ids.size() && va.row_cols(ia).empty()) ++ia;
    while (ib < vb.row_ids.size() && vb.row_cols(ib).empty()) ++ib;
    const bool ea = ia == va.row_ids.size(), eb = ib == vb.row_ids.size();
    if (ea || eb) return ea && eb;
    const auto ca = va.row_cols(ia), cb = vb.row_cols(ib);
    const auto xa = va.row_vals(ia), xb = vb.row_vals(ib);
    if (va.row_ids[ia] != vb.row_ids[ib] || ca.size() != cb.size() ||
        std::memcmp(ca.data(), cb.data(), ca.size_bytes()) != 0 ||
        std::memcmp(xa.data(), xb.data(), xa.size_bytes()) != 0) {
      return false;
    }
    ++ia;
    ++ib;
  }
}

/// 128-bit digest of a byte stream: two independently seeded 64-bit
/// multiply-xorshift lanes over 8-byte words. Used to compare large pass
/// outputs without keeping a second copy in memory.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    while (n >= 8) {
      std::uint64_t w;
      std::memcpy(&w, c, 8);
      mix(w);
      c += 8;
      n -= 8;
    }
    std::uint64_t tail = 0;  // length-tagged, so "ab" and "ab\0" differ
    if (n) std::memcpy(&tail, c, n);
    mix(tail ^ (std::uint64_t{n} << 56));
  }
  void u64(std::uint64_t v) { mix(v); }

  /// Canonical content of a matrix: shape, then per non-empty row its id,
  /// column ids and value bytes.
  void matrix(const Mat& m) {
    const auto v = m.view();
    u64(static_cast<std::uint64_t>(m.nrows()));
    u64(static_cast<std::uint64_t>(m.ncols()));
    for (std::size_t ri = 0; ri < v.row_ids.size(); ++ri) {
      const auto c = v.row_cols(ri);
      if (c.empty()) continue;
      const auto x = v.row_vals(ri);
      u64(static_cast<std::uint64_t>(v.row_ids[ri]));
      u64(c.size());
      bytes(c.data(), c.size_bytes());
      bytes(x.data(), x.size_bytes());
    }
  }

  std::pair<std::uint64_t, std::uint64_t> value() const { return {a_, b_}; }

 private:
  void mix(std::uint64_t w) {
    a_ = (a_ ^ w) * 0x9E3779B97F4A7C15ULL;
    a_ ^= a_ >> 29;
    b_ = (b_ + w) * 0xD6E8FEB86659FD93ULL;
    b_ ^= b_ >> 32;
  }
  std::uint64_t a_ = 0x243F6A8885A308D3ULL;
  std::uint64_t b_ = 0x13198A2E03707344ULL;
};

}  // namespace e2e
