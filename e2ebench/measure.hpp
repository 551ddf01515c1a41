#pragma once
// Measurement primitives of the end-to-end benchmark driver: clocks,
// percentile reporting, open-loop latency, per-phase op accounting,
// process memory, and the in-memory span log the traced run records.
// Nothing here touches the library, so selftest.cpp checks it alone.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace e2e {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Let this thread's sleeps end within ~1 us of their deadline (Linux
/// timer slack defaults to 50 us).
inline void tight_timer_slack() {
#if defined(__linux__)
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
#endif
}

/// Block until `due_ns`: sleep until shortly before it, then spin. A
/// generator that sleeps between sends is woken promptly by the scheduler;
/// one that spins throughout is time-sliced against the engine's threads
/// and falls behind by whole slices.
inline void sleep_until_ns(std::uint64_t due_ns) {
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= due_ns) return;
    const std::uint64_t left = due_ns - now;
    if (left > 30'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 20'000));
    }
  }
}

// ---- percentiles -----------------------------------------------------------

/// Samples strictly above the nearest-rank q-quantile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(n, std::max<std::size_t>(rank, 1));
}

/// A percentile may be reported only with at least ten samples beyond it.
inline bool percentile_supported(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= 10;
}

/// Nearest-rank q-quantile of `v` (sorted in place). Throws when fewer than
/// ten samples lie beyond it, so no reported tail rests on a handful.
inline double percentile(std::vector<double>& v, double q) {
  if (!percentile_supported(v.size(), q)) {
    throw std::runtime_error("percentile: fewer than 10 samples beyond p" +
                             std::to_string(q * 100.0));
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// Median without the ten-beyond rule (used for per-run medians of a few
/// repeated measurements, e.g. set-up time or pass time).
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::runtime_error("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// ---- open-loop timing ------------------------------------------------------

/// One open-loop request: when it was due, when the generator actually sent
/// it, and when its answer arrived. Latency counts from the due time, so a
/// stalled generator charges its stall to every request it delayed.
struct Timed {
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t done_ns = 0;

  double latency_us() const { return static_cast<double>(done_ns - due_ns) / 1e3; }
  double lateness_us() const {
    return sent_ns > due_ns ? static_cast<double>(sent_ns - due_ns) / 1e3 : 0.0;
  }
};

/// Due time of request i on a fixed-rate schedule starting at t0.
inline std::uint64_t due_at(std::uint64_t t0_ns, std::size_t i, double rate_per_s) {
  return t0_ns + static_cast<std::uint64_t>(static_cast<double>(i) * 1e9 / rate_per_s);
}

// ---- op accounting ---------------------------------------------------------

/// Attempted / ok / failed counts of one op kind in one phase. A phase runs
/// a fixed op count, so `attempted` must equal the target when it ends.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t in_limit = 0;  ///< ok and within the latency limit
};

struct PhaseCounts {
  std::string phase;
  std::uint64_t target = 0;  ///< ops the phase was sized to run
  std::map<std::string, OpCount> kinds;

  OpCount total() const {
    OpCount t;
    for (const auto& [_, c] : kinds) {
      t.attempted += c.attempted;
      t.ok += c.ok;
      t.failed += c.failed;
      t.in_limit += c.in_limit;
    }
    return t;
  }
  /// Every op was attempted exactly once and ended ok or failed.
  bool complete() const {
    const OpCount t = total();
    return t.attempted == target && t.ok + t.failed == t.attempted;
  }
};

// ---- memory ----------------------------------------------------------------

/// A `VmRSS` / `VmHWM` style field of /proc/self/status, in bytes (0 when
/// the file is unavailable).
inline std::uint64_t proc_status_bytes(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == field + ":") {
      std::uint64_t kb = 0;
      in >> kb;
      return kb * 1024;
    }
    std::getline(in, key);
  }
  return 0;
}
inline std::uint64_t rss_bytes() { return proc_status_bytes("VmRSS"); }
inline std::uint64_t peak_rss_bytes() { return proc_status_bytes("VmHWM"); }

// ---- spans -----------------------------------------------------------------

/// One recorded interval. `parent` indexes the same lane's span log (-1 for
/// a root); `req` ties the spans of one request together.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t req = 0;
};

/// Spans of one thread, kept in memory until the run ends. Nesting follows
/// the open-span stack, so a lane is only ever written by its own thread.
class SpanLane {
 public:
  explicit SpanLane(std::string name = "lane") : name_(std::move(name)) {
    spans_.reserve(1 << 16);
  }

  std::size_t open(const char* name, std::uint64_t req = 0) {
    return open_at(name, now_ns(), req);
  }
  std::size_t open_at(const char* name, std::uint64_t start_ns, std::uint64_t req = 0) {
    const std::int64_t parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    spans_.push_back({name, start_ns, 0, parent, req});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t id) { close_at(id, now_ns()); }
  void close_at(std::size_t id, std::uint64_t end_ns) {
    if (stack_.empty() || stack_.back() != id) {
      throw std::logic_error("SpanLane: spans must close innermost first");
    }
    spans_[id].end_ns = end_ns;
    stack_.pop_back();
  }

  const std::string& name() const { return name_; }
  const std::vector<Span>& spans() const { return spans_; }
  bool balanced() const { return stack_.empty(); }

 private:
  std::string name_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span on a lane; a null lane records nothing (the untraced run).
class Scoped {
 public:
  Scoped(SpanLane* lane, const char* name, std::uint64_t req = 0)
      : lane_(lane), id_(lane ? lane->open(name, req) : 0) {}
  ~Scoped() {
    if (lane_) lane_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLane* lane_;
  std::size_t id_;
};

/// Self time per span name: each span's duration minus the part of it its
/// direct children cover. Children on one lane run sequentially inside
/// their parent, so the self times of a lane's spans sum to the duration
/// of its roots.
inline std::map<std::string, double> self_time_ns(const SpanLane& lane) {
  const auto& s = lane.spans();
  std::vector<double> child(s.size(), 0.0);
  for (const auto& sp : s) {
    if (sp.parent >= 0) {
      child[static_cast<std::size_t>(sp.parent)] += static_cast<double>(sp.end_ns - sp.start_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    out[s[i].name] += static_cast<double>(s[i].end_ns - s[i].start_ns) - child[i];
  }
  return out;
}

/// Σ duration of a lane's root spans — the wall time its self times split.
inline double root_time_ns(const SpanLane& lane) {
  double t = 0;
  for (const auto& sp : lane.spans()) {
    if (sp.parent < 0) t += static_cast<double>(sp.end_ns - sp.start_ns);
  }
  return t;
}

/// Chrome trace-event JSON ("X" complete events, one tid per lane).
inline void write_chrome_json(std::ostream& os, const std::vector<const SpanLane*>& lanes) {
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const auto* l : lanes) {
    for (const auto& sp : l->spans()) t0 = std::min(t0, sp.start_ns);
  }
  os << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t li = 0; li < lanes.size(); ++li) {
    os << (first ? "" : ",") << "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << li
       << ",\"args\":{\"name\":\"" << lanes[li]->name() << "\"}}";
    first = false;
    for (const auto& sp : lanes[li]->spans()) {
      os << ",\n{\"name\":\"" << sp.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << li
         << ",\"ts\":" << static_cast<double>(sp.start_ns - t0) / 1e3
         << ",\"dur\":" << static_cast<double>(sp.end_ns - sp.start_ns) / 1e3
         << ",\"args\":{\"req\":" << sp.req << ",\"parent\":" << sp.parent << "}}";
    }
  }
  os << "\n]}\n";
}

}  // namespace e2e
