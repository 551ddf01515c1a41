#pragma once
// Process-wide metrics registry: named counters, gauges, and log-bucketed
// latency histograms with p50/p95/p99 extraction, built for serving-stack
// hot paths.
//
// Design rules, in order of importance:
//
//  1. **Hot paths pay one uncontended increment.** Counters and histograms
//     are striped across cache-line-padded shards indexed by a thread
//     ordinal; readers merge shards on demand. There is no per-record lock
//     anywhere, and no contended cache line as long as threads outnumber
//     shards only modestly.
//  2. **Invariant and timing-dependent stats never mix.** Every entry is
//     registered under a `Stability` class: `kInvariant` values (flops,
//     queries, kept/skipped, probe selections) are identical for any
//     thread count and may be asserted exactly in tests; `kTiming` values
//     (latencies, queue depths) are wall-clock artifacts and may only be
//     bounded. Registering the same name under a different
//     class (or kind) throws — the segregation is enforced, not advisory.
//     Histograms are always `kTiming`. Export surfaces render the two
//     classes in separate sections so downstream tooling cannot confuse a
//     measurement with a fact.
//  3. **Telemetry observes, it never steers.** Nothing in this header
//     reads a metric to make a decision, so results are bit-identical
//     with telemetry on, off, or compiled out.
//  4. **Off means off.** Compile with `HYPERSPACE_NO_TELEMETRY` and every
//     record path folds to nothing; at runtime `set_enabled(false)`
//     reduces a record to one relaxed load of a read-mostly flag.
//
// Histogram buckets are HdrHistogram-style: values below 2^kSubBits are
// exact (bucket width 1); above that, each power-of-two octave is split
// into 2^kSubBits sub-buckets, bounding relative error by 2^-kSubBits
// (6.25%). `percentile(q)` implements the nearest-rank definition and
// returns the lower bound of the bucket holding the rank-th sample —
// `bucket_floor(bucket_index(v))` for the exact sample a sorted reference
// would pick, which is what the tests assert, exactly.

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>

namespace hyperspace::util::metrics {

#if defined(HYPERSPACE_NO_TELEMETRY)
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

namespace detail {
inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{true};
  return flag;
}
}  // namespace detail

/// Is telemetry recording live right now? One relaxed load of a
/// read-mostly flag; constant `false` when compiled out.
inline bool enabled() noexcept {
  if constexpr (kCompiledIn) {
    return detail::enabled_flag().load(std::memory_order_relaxed);
  } else {
    return false;
  }
}

/// Runtime kill switch. A no-op when telemetry is compiled out.
inline void set_enabled(bool on) noexcept {
  if constexpr (kCompiledIn) {
    detail::enabled_flag().store(on, std::memory_order_relaxed);
  } else {
    (void)on;
  }
}

/// Thread-count invariance class of a stat. See rule 2 above.
enum class Stability {
  kInvariant,  ///< exact for any thread count (flops, queries, selections)
  kTiming,     ///< wall-clock dependent (latency, adaptive limits)
};

inline constexpr std::size_t kCounterShards = 16;  // power of two

namespace detail {
/// Small dense thread ordinal (0, 1, 2, ...) assigned on first use; the
/// shard stripe for this thread is `ordinal % shards`.
inline std::size_t thread_ordinal() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}
inline std::size_t shard_index() noexcept {
  return thread_ordinal() & (kCounterShards - 1);
}
}  // namespace detail

/// Monotone counter, striped across cache-line-padded per-thread shards
/// merged on read. `add` is one relaxed fetch_add on this thread's stripe.
class Counter {
 public:
  void add(std::uint64_t n) noexcept {
    if (!enabled()) return;
    slots_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }

  /// Merge-on-read: sum of all shards.
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() noexcept {
    for (auto& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Slot, kCounterShards> slots_{};
};

/// Last-write-wins instantaneous value (adaptive limits, queue depths).
class Gauge {
 public:
  void set(double v) noexcept {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// ---- log-bucketed histogram geometry ----

inline constexpr unsigned kSubBits = 4;
inline constexpr std::uint64_t kSubBuckets = std::uint64_t{1} << kSubBits;
inline constexpr std::size_t kNumBuckets =
    static_cast<std::size_t>((64 - kSubBits) * kSubBuckets + kSubBuckets);

/// Bucket holding value `v`. Values < 2^kSubBits map 1:1; larger values
/// land in sub-bucket (top kSubBits bits below the leading one) of their
/// octave. Monotone in `v`, so bucket order is value order.
constexpr std::size_t bucket_index(std::uint64_t v) noexcept {
  if (v < kSubBuckets) return static_cast<std::size_t>(v);
  const unsigned width = static_cast<unsigned>(std::bit_width(v));
  const unsigned octave = width - kSubBits;                    // >= 1
  const std::uint64_t sub = (v >> (width - 1 - kSubBits)) - kSubBuckets;
  return static_cast<std::size_t>(octave * kSubBuckets + sub);
}

/// Smallest value mapping to bucket `i` — the inverse of bucket_index on
/// bucket lower bounds: bucket_index(bucket_floor(i)) == i.
constexpr std::uint64_t bucket_floor(std::size_t i) noexcept {
  if (i < kSubBuckets) return static_cast<std::uint64_t>(i);
  const std::uint64_t octave = i >> kSubBits;
  const std::uint64_t sub = i & (kSubBuckets - 1);
  return (kSubBuckets + sub) << (octave - 1);
}

/// Nearest-rank index for quantile `q` over `count` samples: the
/// 1-indexed rank ceil(q * count), clamped to [1, count]. Exposed so the
/// tests' sorted-sample reference uses the identical definition.
inline std::uint64_t nearest_rank(double q, std::uint64_t count) noexcept {
  if (count == 0) return 0;
  const auto r = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  return std::clamp<std::uint64_t>(r, 1, count);
}

/// Log-bucketed latency histogram, striped like Counter. `record` is two
/// relaxed increments (bucket + count) plus sum/max upkeep on this
/// thread's stripe; percentile extraction merges shards on read.
class Histogram {
 public:
  /// A merged point-in-time view. Percentiles come from here so one merge
  /// serves p50/p95/p99 consistently.
  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, kNumBuckets> buckets{};

    /// Nearest-rank percentile: lower bound of the bucket holding the
    /// rank-th smallest sample. Equals bucket_floor(bucket_index(v)) of
    /// the sample a sorted reference would select; exact for values
    /// < 2^kSubBits, within 2^-kSubBits relative below the sample
    /// otherwise. 0 on an empty histogram.
    std::uint64_t percentile(double q) const noexcept {
      const std::uint64_t rank = nearest_rank(q, count);
      if (rank == 0) return 0;
      std::uint64_t cum = 0;
      for (std::size_t i = 0; i < kNumBuckets; ++i) {
        cum += buckets[i];
        if (cum >= rank) return bucket_floor(i);
      }
      return bucket_floor(kNumBuckets - 1);  // unreachable when consistent
    }
    double mean() const noexcept {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };

  void record(std::uint64_t v) noexcept {
    if (!enabled()) return;
    auto& s = shards_[detail::shard_index() & (kHistShards - 1)];
    s.buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t m = s.max.load(std::memory_order_relaxed);
    while (v > m && !s.max.compare_exchange_weak(m, v,
                                                 std::memory_order_relaxed)) {
    }
  }

  Snapshot snapshot() const noexcept {
    Snapshot out;
    for (const auto& s : shards_) {
      out.count += s.count.load(std::memory_order_relaxed);
      out.sum += s.sum.load(std::memory_order_relaxed);
      out.max = std::max(out.max, s.max.load(std::memory_order_relaxed));
      for (std::size_t i = 0; i < kNumBuckets; ++i) {
        out.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
      }
    }
    return out;
  }

  void reset() noexcept {
    for (auto& s : shards_) {
      s.count.store(0, std::memory_order_relaxed);
      s.sum.store(0, std::memory_order_relaxed);
      s.max.store(0, std::memory_order_relaxed);
      for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr std::size_t kHistShards = 4;  // ~31 KiB per histogram
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets{};
  };
  std::array<Shard, kHistShards> shards_{};
};

/// The process-wide registry. Entries are created on first use and live
/// for the process lifetime, so `static auto& c = Registry::instance()
/// .counter(...)` at a call site is one lookup ever and the reference
/// never dangles. `reset_values()` zeroes values without invalidating
/// handles (tests and benches isolate runs with it).
class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }

  /// Find-or-register. Throws std::logic_error if `name` already exists
  /// with a different kind or stability class — rule 2 is enforced here.
  Counter& counter(const std::string& name, Stability st) {
    return *get(name, Kind::kCounter, st).c;
  }
  Gauge& gauge(const std::string& name, Stability st) {
    return *get(name, Kind::kGauge, st).g;
  }
  /// Histograms measure wall clock; they are kTiming by definition.
  Histogram& histogram(const std::string& name) {
    return *get(name, Kind::kHistogram, Stability::kTiming).h;
  }

  /// Read-side lookups for tests and export code. Missing names read as
  /// zero rather than registering.
  std::uint64_t counter_value(const std::string& name) const {
    std::lock_guard lock(mu_);
    const auto it = entries_.find(name);
    return it != entries_.end() && it->second.c ? it->second.c->value() : 0;
  }
  double gauge_value(const std::string& name) const {
    std::lock_guard lock(mu_);
    const auto it = entries_.find(name);
    return it != entries_.end() && it->second.g ? it->second.g->value() : 0.0;
  }
  Histogram::Snapshot histogram_snapshot(const std::string& name) const {
    std::lock_guard lock(mu_);
    const auto it = entries_.find(name);
    return it != entries_.end() && it->second.h ? it->second.h->snapshot()
                                                : Histogram::Snapshot{};
  }

  /// Zero every value; handles stay valid. Not atomic across entries.
  void reset_values() {
    std::lock_guard lock(mu_);
    for (auto& [name, e] : entries_) {
      if (e.c) e.c->reset();
      if (e.g) e.g->reset();
      if (e.h) e.h->reset();
    }
  }

  /// Prometheus-style exposition text. Invariant entries first, then
  /// timing entries; histograms render as summaries with p50/p95/p99
  /// quantile lines plus _sum/_count/_max.
  std::string prometheus_text() const {
    std::lock_guard lock(mu_);
    std::ostringstream os;
    os << "# stability: invariant (exact for any thread count)\n";
    render_text(os, Stability::kInvariant);
    os << "# stability: timing (wall-clock dependent)\n";
    render_text(os, Stability::kTiming);
    return os.str();
  }

  /// The same content as a JSON object:
  /// {"invariant": {name: number}, "timing": {"counters": {...},
  ///  "gauges": {...}, "histograms": {name: {count,sum,max,mean,
  ///  p50,p95,p99}}}}
  std::string json() const {
    std::lock_guard lock(mu_);
    std::ostringstream os;
    os << "{\"invariant\":{";
    bool first = true;
    for (const auto& [name, e] : entries_) {
      if (e.stability != Stability::kInvariant) continue;
      os << (first ? "" : ",") << '"' << name << "\":";
      if (e.c) os << e.c->value();
      if (e.g) os << e.g->value();
      first = false;
    }
    os << "},\"timing\":{\"counters\":{";
    first = true;
    for (const auto& [name, e] : entries_) {
      if (e.stability != Stability::kTiming || !e.c) continue;
      os << (first ? "" : ",") << '"' << name << "\":" << e.c->value();
      first = false;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto& [name, e] : entries_) {
      if (e.stability != Stability::kTiming || !e.g) continue;
      os << (first ? "" : ",") << '"' << name << "\":" << e.g->value();
      first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto& [name, e] : entries_) {
      if (!e.h) continue;
      const auto s = e.h->snapshot();
      os << (first ? "" : ",") << '"' << name << "\":{"
         << "\"count\":" << s.count << ",\"sum\":" << s.sum
         << ",\"max\":" << s.max << ",\"mean\":" << s.mean()
         << ",\"p50\":" << s.percentile(0.50)
         << ",\"p95\":" << s.percentile(0.95)
         << ",\"p99\":" << s.percentile(0.99) << '}';
      first = false;
    }
    os << "}}}";
    return os.str();
  }

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind{};
    Stability stability{};
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<Histogram> h;
  };

  Entry& get(const std::string& name, Kind kind, Stability st) {
    std::lock_guard lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      Entry e;
      e.kind = kind;
      e.stability = st;
      switch (kind) {
        case Kind::kCounter: e.c = std::make_unique<Counter>(); break;
        case Kind::kGauge: e.g = std::make_unique<Gauge>(); break;
        case Kind::kHistogram: e.h = std::make_unique<Histogram>(); break;
      }
      it = entries_.emplace(name, std::move(e)).first;
    } else if (it->second.kind != kind || it->second.stability != st) {
      throw std::logic_error(
          "metrics: '" + name +
          "' re-registered with a different kind or stability class");
    }
    return it->second;
  }

  static std::string sanitized(const std::string& name) {
    std::string out = "hyperspace_";
    for (const char ch : name) {
      out += (std::isalnum(static_cast<unsigned char>(ch)) != 0) ? ch : '_';
    }
    return out;
  }

  void render_text(std::ostringstream& os, Stability st) const {
    for (const auto& [name, e] : entries_) {
      if (e.stability != st) continue;
      const std::string p = sanitized(name);
      if (e.c) {
        os << "# TYPE " << p << " counter\n" << p << ' ' << e.c->value()
           << '\n';
      } else if (e.g) {
        os << "# TYPE " << p << " gauge\n" << p << ' ' << e.g->value()
           << '\n';
      } else if (e.h) {
        const auto s = e.h->snapshot();
        os << "# TYPE " << p << " summary\n"
           << p << "{quantile=\"0.5\"} " << s.percentile(0.50) << '\n'
           << p << "{quantile=\"0.95\"} " << s.percentile(0.95) << '\n'
           << p << "{quantile=\"0.99\"} " << s.percentile(0.99) << '\n'
           << p << "_sum " << s.sum << '\n'
           << p << "_count " << s.count << '\n'
           << p << "_max " << s.max << '\n';
      }
    }
  }

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  ///< ordered → stable export
};

/// Monotonic nanoseconds for span/latency timestamps. One clock for the
/// whole telemetry layer so traces and histograms agree.
inline std::uint64_t clock_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// RAII latency sample: records elapsed ns into `h` on destruction.
/// Disarmed (no clock read at all) when telemetry is off at construction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h) noexcept
      : h_(&h), armed_(enabled()), t0_(armed_ ? clock_ns() : 0) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (armed_) h_->record(clock_ns() - t0_);
  }

 private:
  Histogram* h_;
  bool armed_;
  std::uint64_t t0_;
};

}  // namespace hyperspace::util::metrics
