#pragma once
// The two serving workloads: one engine configuration (async 2-shard
// Router, result cache on, background compaction on), two traffic mixes.
//
// A trial builds a fresh engine, warms it, then runs two phases of a fixed
// op count each: a closed loop (one client, a window of outstanding
// tickets) and an open loop (a fixed send rate, latency timed from each
// request's due time). Engines keep every settled ticket, so a phase of
// fixed length keeps memory comparable between commits; a run repeats
// trials until its time is spent.

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include <malloc.h>

#include "common.hpp"
#include "measure.hpp"
#include "serve/batch.hpp"
#include "serve/router.hpp"
#include "util/generators.hpp"

namespace e2e {

namespace hs = hyperspace;
using Router = hs::serve::Router<S>;
using Query = hs::serve::Query<S>;
using Update = hs::sparse::Update<double>;
using UpdateBatch = hs::sparse::UpdateBatch<double>;

/// The serving base: a fixed R-MAT graph (`graph_seed`) whose vertices the
/// workload seed relabels, so the hubs spread over both row-range shards
/// instead of piling into shard 0, and every seed serves a graph of the
/// same size and degree structure.
struct Base {
  Mat m;
  std::vector<Index> key_of_vertex;
  std::uint64_t graph_seed = 0;
};

inline Base make_base(int scale, double edge_factor, std::uint64_t graph_seed,
                      std::uint64_t seed) {
  const auto edges =
      hs::util::rmat_edges({.scale = scale, .edge_factor = edge_factor, .seed = graph_seed});
  const Index n = Index{1} << scale;
  Rng rng(seed ^ 0x5bd1e995ULL);
  Base b{Mat{}, shuffled_ids(n, rng), graph_seed};
  std::vector<hs::sparse::Triple<double>> t;
  t.reserve(edges.size());
  for (const auto& e : edges) {
    t.push_back({b.key_of_vertex[static_cast<std::size_t>(e.src)],
                 b.key_of_vertex[static_cast<std::size_t>(e.dst)], e.weight});
  }
  b.m = Mat::from_triples<S>(n, n, std::move(t));
  return b;
}

enum class Kind : std::uint8_t { kPoint, kSelect, kFrontier, kMutate };

inline const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kPoint: return "point";
    case Kind::kSelect: return "select";
    case Kind::kFrontier: return "frontier";
    case Kind::kMutate: return "mutate";
  }
  return "?";
}

/// One op of a traffic stream; its keys or updates are [first, first + n)
/// of the stream's pools.
struct Op {
  Kind kind = Kind::kPoint;
  std::uint32_t first = 0;
  std::uint32_t n = 0;
};

struct Traffic {
  std::vector<Op> ops;
  std::vector<Index> keys;
  std::vector<Update> updates;
};

/// Traffic shape of a serving workload (workloads.json parameters).
struct Mix {
  bool zipf = false;
  double zipf_s = 1.1;
  double select_share = 0;    ///< zipf: share of reads that are selects
  std::size_t select_keys = 8;
  double frontier_share = 0;  ///< uniform: share of reads that are frontiers
  std::size_t frontier_keys = 4;
  std::size_t write_every = 0;  ///< one mutate per this many ops (0: none)
  std::size_t write_batch = 0;
  double assign_share = 0.75;
};

/// Draws ops for one workload. Zipf ranks map to vertices through a shuffle
/// fixed by the graph, so every seed has a hot set of the same rows (and
/// the same answer sizes), spread over both shards by the relabelling.
class TrafficGen {
 public:
  TrafficGen(const Mix& mix, const Base& base, std::uint64_t seed)
      : mix_(mix), n_(base.m.nrows()), rng_(seed), zipf_(base.m.nrows(), mix.zipf_s) {
    Rng fixed(base.graph_seed ^ 0x2545F4914F6CDD1DULL);
    rank_to_key_ = shuffled_ids(n_, fixed);
    for (auto& k : rank_to_key_) k = base.key_of_vertex[static_cast<std::size_t>(k)];
    if (mix_.write_every > 0) {
      for (const auto& t : base.m.to_triples()) entries_.push_back({t.row, t.col});
    }
  }

  /// The key of popularity rank r (the zipf hot set is ranks [0, k)).
  Index key_of_rank(std::size_t r) const { return rank_to_key_[r]; }

  Traffic make(std::size_t n_ops, bool reads_only) {
    Traffic t;
    t.ops.reserve(n_ops);
    for (std::size_t i = 0; i < n_ops; ++i) {
      if (!reads_only && mix_.write_every > 0 && i % mix_.write_every == mix_.write_every - 1) {
        t.ops.push_back({Kind::kMutate, static_cast<std::uint32_t>(t.updates.size()),
                         static_cast<std::uint32_t>(mix_.write_batch)});
        for (std::size_t u = 0; u < mix_.write_batch; ++u) t.updates.push_back(update());
        continue;
      }
      const double r = rng_.uniform();
      Kind k = Kind::kPoint;
      std::size_t nk = 1;
      if (mix_.zipf && r < mix_.select_share) {
        k = Kind::kSelect;
        nk = mix_.select_keys;
      } else if (!mix_.zipf && r < mix_.frontier_share) {
        k = Kind::kFrontier;
        nk = mix_.frontier_keys;
      }
      t.ops.push_back({k, static_cast<std::uint32_t>(t.keys.size()), static_cast<std::uint32_t>(nk)});
      for (std::size_t j = 0; j < nk; ++j) t.keys.push_back(key());
    }
    return t;
  }

 private:
  Index key() {
    if (mix_.zipf) return rank_to_key_[static_cast<std::size_t>(zipf_(rng_))];
    return static_cast<Index>(rng_.bounded(static_cast<std::uint64_t>(n_)));
  }
  /// Assigns land anywhere; erases hit stored base entries, so they remove
  /// data rather than writing tombstones over nothing.
  Update update() {
    if (rng_.uniform() < mix_.assign_share || entries_.empty()) {
      return Update::assign(static_cast<Index>(rng_.bounded(static_cast<std::uint64_t>(n_))),
                            static_cast<Index>(rng_.bounded(static_cast<std::uint64_t>(n_))),
                            rng_.uniform(0.5, 1.5));
    }
    const auto& e = entries_[rng_.bounded(entries_.size())];
    return Update::erased(e.first, e.second);
  }

  Mix mix_;
  Index n_;
  Rng rng_;
  hs::util::ZipfDistribution zipf_;
  std::vector<Index> rank_to_key_;
  std::vector<std::pair<Index, Index>> entries_;
};

inline Query make_query(const Traffic& t, const Op& op, Index n) {
  const auto k0 = t.keys.begin() + op.first;
  switch (op.kind) {
    case Kind::kPoint: return Query::point(*k0, n);
    case Kind::kSelect: return Query::select(std::vector<Index>(k0, k0 + op.n), n);
    default: {
      std::vector<hs::sparse::Triple<double>> tr;
      for (auto k = k0; k != k0 + op.n; ++k) tr.push_back({0, *k, 1.0});
      return Query::analytic(Mat::from_triples<S>(1, n, std::move(tr)));
    }
  }
}

inline UpdateBatch make_batch(const Traffic& t, const Op& op) {
  const auto u0 = t.updates.begin() + op.first;
  return UpdateBatch(u0, u0 + op.n);
}

/// Last write wins over the base, in the order the engine applied them: the
/// from-scratch reference every sampled answer is checked against.
inline Mat rebuild(const Mat& base, const std::vector<const Traffic*>& applied,
                   const std::vector<std::vector<char>>& ok) {
  std::unordered_map<std::uint64_t, double> cells;
  const auto key = [&](Index r, Index c) {
    return static_cast<std::uint64_t>(r) * static_cast<std::uint64_t>(base.ncols()) +
           static_cast<std::uint64_t>(c);
  };
  for (const auto& t : base.to_triples()) cells[key(t.row, t.col)] = t.val;
  for (std::size_t s = 0; s < applied.size(); ++s) {
    const auto& ops = applied[s]->ops;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind != Kind::kMutate || !ok[s][i]) continue;
      for (const auto& u : make_batch(*applied[s], ops[i])) {
        if (u.erase) {
          cells.erase(key(u.row, u.col));
        } else {
          cells[key(u.row, u.col)] = u.val;
        }
      }
    }
  }
  std::vector<hs::sparse::Triple<double>> t;
  t.reserve(cells.size());
  const auto nc = static_cast<std::uint64_t>(base.ncols());
  for (const auto& [k, v] : cells) {
    t.push_back({static_cast<Index>(k / nc), static_cast<Index>(k % nc), v});
  }
  return Mat::from_triples<S>(base.nrows(), base.ncols(), std::move(t));
}

struct ServeConfig {
  Mix mix;
  std::size_t shards = 2;
  std::size_t cache_bytes = 0;
  std::size_t warmup_ops = 0;
  std::size_t closed_ops = 0;
  std::size_t window = 64;
  std::size_t open_ops = 0;
  double open_rate = 0;        ///< ops per second
  double read_limit_us = 0;
  double mutate_limit_us = 0;
  std::size_t check_every = 64;  ///< zipf: keep every n-th answer for the gate
  std::size_t check_queries = 0;  ///< re-asked at the final epoch
};

inline Router::Config engine_config(const ServeConfig& sc) {
  Router::Config c;
  c.n_shards = static_cast<int>(sc.shards);
  c.executor.async = true;
  c.executor.cache_bytes = sc.cache_bytes;
  c.executor.delta.background = true;
  return c;
}

/// Spans of a traced trial: the submitting thread and the collecting one.
struct ServeLanes {
  SpanLane submit{"submitter"};
  SpanLane collect{"collector"};
};

struct ServeTrial {
  double setup_s = 0;
  double closed_s = 0;
  double open_s = 0;
  std::uint64_t closed_reads = 0;
  std::vector<double> read_lat_us;    ///< open loop, ok reads, send order
  std::vector<double> late_us;        ///< open loop generator lateness
  std::vector<PhaseCounts> phases;
  std::uint64_t rss_warm = 0;
  std::uint64_t rss_end = 0;
  // Layer counters, read after the phases.
  hs::serve::RouterStats router{};
  hs::serve::ServeStats engine{};
  typename hs::serve::ResultCache<S>::Stats cache{};
  double compactions_per_shard = 0;
  std::vector<double> delta_entries;  ///< per-shard mean, sampled per mutate
  std::vector<double> mutate_all_us;  ///< every ok mutate, both phases
  std::vector<Query> replay;          ///< first reads of the open loop
};

class ServeWorkload {
 public:
  ServeWorkload(const Base& base, ServeConfig sc, std::uint64_t seed)
      : base_(base.m), sc_(sc), gen_(sc.mix, base, seed) {}

  /// Answer bytes the result cache would hold for the `hot_ranks` most
  /// popular point keys, measured through the engine's own accounting.
  static std::size_t hot_set_bytes(const Base& base, const Mix& zipf_mix, std::size_t hot_ranks) {
    TrafficGen g(zipf_mix, base, 0);
    Router::Config c;
    c.n_shards = 1;
    c.executor.cache_bytes = std::size_t{1} << 40;
    Router r(Mat(base.m), c);
    for (std::size_t k = 0; k < hot_ranks; ++k) {
      r.wait(r.submit(Query::point(g.key_of_rank(k), base.m.nrows())));
    }
    return r.cache_stats().bytes;
  }

  ServeTrial run_trial(ServeLanes* lanes) {
    ServeTrial tr;
    // Input generation is the driver's own work and stays outside set-up.
    const Traffic warm = gen_.make(sc_.warmup_ops, true);
    const Traffic closed = gen_.make(sc_.closed_ops, false);
    const Traffic open = gen_.make(sc_.open_ops, false);
    Mat copy = base_;

    const std::uint64_t t0 = now_ns();
    auto router = std::make_unique<Router>(std::move(copy), engine_config(sc_));
    tr.phases.push_back(closed_loop(*router, warm, "warmup", nullptr, tr, nullptr));
    tr.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
    tr.rss_warm = rss_bytes();

    std::vector<std::vector<char>> ok(2);
    const std::uint64_t c0 = now_ns();
    tr.phases.push_back(closed_loop(*router, closed, "closed", lanes, tr, &ok[0]));
    tr.closed_s = static_cast<double>(now_ns() - c0) / 1e9;
    tr.closed_reads = tr.phases.back().total().ok - count_ok_mutates(closed, ok[0]);
    const std::uint64_t o0 = now_ns();
    tr.phases.push_back(open_loop(*router, open, lanes, tr, ok[1]));
    tr.open_s = static_cast<double>(now_ns() - o0) / 1e9;
    tr.rss_end = rss_bytes();

    tr.router = router->router_stats();
    tr.engine = router->stats();
    tr.cache = router->cache_stats();
    for (std::size_t s = 0; s < router->n_shards(); ++s) {
      tr.compactions_per_shard +=
          static_cast<double>(router->shard_executor(s).delta_base().compactions());
    }
    tr.compactions_per_shard /= static_cast<double>(router->n_shards());
    for (std::size_t i = 0; i < open.ops.size() && tr.replay.size() < 64; ++i) {
      if (open.ops[i].kind != Kind::kMutate) {
        tr.replay.push_back(make_query(open, open.ops[i], base_.nrows()));
      }
    }
    check(*router, {&closed, &open}, ok);
    router.reset();
    // Hand the engine's freed memory back to the OS, so every trial starts
    // from the same resident size and the high-water mark is one trial's.
    malloc_trim(0);
    return tr;
  }

 private:
  static std::uint64_t count_ok_mutates(const Traffic& t, const std::vector<char>& ok) {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < t.ops.size(); ++i) n += t.ops[i].kind == Kind::kMutate && ok[i];
    return n;
  }

  void sample_delta(const Router& r, ServeTrial& tr) const {
    double e = 0;
    for (std::size_t s = 0; s < r.n_shards(); ++s) {
      e += static_cast<double>(r.shard_executor(s).delta_base().delta_entries());
    }
    tr.delta_entries.push_back(e / static_cast<double>(r.n_shards()));
  }

  /// Poll every outstanding ticket once, in send order, and drop the
  /// settled ones. Router::poll also advances a straddling chain whose
  /// current stage has settled, so a polling client keeps every chain
  /// moving. Returns how many settled.
  template <class OnDone>
  std::size_t sweep(Router& r, std::vector<std::pair<std::size_t, std::size_t>>& out,
                    SpanLane* lane, OnDone&& on_done) const {
    std::size_t settled = 0;
    std::size_t keep = 0;
    for (const auto& [ticket, i] : out) {
      const Mat* m = nullptr;
      bool failed = false;
      try {
        Scoped s(lane, "router.poll", i);
        m = r.poll(ticket);
      } catch (const std::exception&) {
        failed = true;
      }
      if (m == nullptr && !failed) {
        out[keep++] = {ticket, i};
        continue;
      }
      on_done(i, m);
      ++settled;
    }
    out.resize(keep);
    return settled;
  }

  static void pause() { std::this_thread::sleep_for(std::chrono::microseconds(100)); }

  /// One client keeping `window` tickets outstanding and polling them;
  /// mutates run inline on the same thread, in stream order.
  PhaseCounts closed_loop(Router& r, const Traffic& t, const char* phase, ServeLanes* lanes,
                          ServeTrial& tr, std::vector<char>* ok_out) {
    PhaseCounts pc{phase, t.ops.size(), {}};
    std::vector<char> ok(t.ops.size(), 0);
    SpanLane* lane = lanes ? &lanes->submit : nullptr;
    const std::size_t root = lane ? lane->open("driver.closed_loop") : 0;
    std::vector<std::pair<std::size_t, std::size_t>> out;  // (ticket, op)
    const auto on_done = [&](std::size_t i, const Mat* m) {
      auto& c = pc.kinds[kind_name(t.ops[i].kind)];
      if (m == nullptr) {
        ++c.failed;
        return;
      }
      ++c.ok;
      ok[i] = 1;
    };
    const auto drain_to = [&](std::size_t limit) {
      while (out.size() > limit) {
        if (sweep(r, out, lane, on_done) == 0) pause();
      }
    };
    for (std::size_t i = 0; i < t.ops.size(); ++i) {
      const Op& op = t.ops[i];
      auto& c = pc.kinds[kind_name(op.kind)];
      ++c.attempted;
      if (op.kind == Kind::kMutate) {
        const auto batch = make_batch(t, op);
        try {
          const std::uint64_t m0 = now_ns();
          {
            Scoped s(lane, "router.mutate", i);
            r.mutate(batch);
          }
          tr.mutate_all_us.push_back(static_cast<double>(now_ns() - m0) / 1e3);
          ++c.ok;
          ok[i] = 1;
        } catch (const std::exception&) {
          ++c.failed;
        }
        if (lane) sample_delta(r, tr);
        continue;
      }
      drain_to(sc_.window - 1);
      std::optional<Query> q;
      {
        Scoped s(lane, "query.build", i);
        q.emplace(make_query(t, op, base_.nrows()));
      }
      try {
        Scoped s(lane, "router.submit", i);
        out.push_back({r.submit(std::move(*q)), i});
      } catch (const std::exception&) {
        ++c.failed;
      }
    }
    drain_to(0);
    if (lane) lane->close(root);
    if (ok_out) *ok_out = std::move(ok);
    return pc;
  }

  /// Fixed-rate sends from this thread; a second thread polls the
  /// outstanding tickets. Mutates block the sender, so requests due
  /// meanwhile go out late and their latency, timed from the due time,
  /// shows it.
  PhaseCounts open_loop(Router& r, const Traffic& t, ServeLanes* lanes, ServeTrial& tr,
                        std::vector<char>& ok) {
    struct Slot {
      std::size_t ticket = 0;
      Timed time;
      bool has_ticket = false;
    };
    const std::size_t n = t.ops.size();
    std::vector<Slot> slots(n);
    ok.assign(n, 0);
    std::atomic<std::size_t> published{0};
    PhaseCounts collected{"open", 0, {}};
    std::vector<std::pair<std::size_t, Mat>> kept;  // sampled answers
    SpanLane* clane = lanes ? &lanes->collect : nullptr;

    std::thread collector([&] {
      tight_timer_slack();
      const std::size_t root = clane ? clane->open("driver.collect") : 0;
      std::vector<std::pair<std::size_t, std::size_t>> out;  // (ticket, op)
      std::size_t next = 0, reads = 0;
      const auto on_done = [&](std::size_t i, const Mat* m) {
        auto& c = collected.kinds[kind_name(t.ops[i].kind)];
        if (m == nullptr) {
          ++c.failed;
          return;
        }
        // A cache hit was already timed by the sender, at submit.
        if (slots[i].time.done_ns == 0) slots[i].time.done_ns = now_ns();
        ++c.ok;
        ok[i] = 1;
        if (sc_.mix.zipf && reads++ % sc_.check_every == 0) kept.push_back({i, *m});
      };
      while (next < n || !out.empty()) {
        const std::size_t p = published.load(std::memory_order_acquire);
        for (; next < p; ++next) {
          if (slots[next].has_ticket) out.push_back({slots[next].ticket, next});
        }
        if (out.empty()) {
          if (next < n) published.wait(p, std::memory_order_acquire);
          continue;
        }
        if (sweep(r, out, clane, on_done) == 0) pause();
      }
      if (clane) clane->close(root);
    });

    PhaseCounts pc{"open", n, {}};
    SpanLane* lane = lanes ? &lanes->submit : nullptr;
    const std::size_t root = lane ? lane->open("driver.open_loop") : 0;
    tight_timer_slack();
    const std::uint64_t t0 = now_ns() + 1'000'000;
    for (std::size_t i = 0; i < n; ++i) {
      const Op& op = t.ops[i];
      Slot& s = slots[i];
      auto& c = pc.kinds[kind_name(op.kind)];
      ++c.attempted;
      s.time.due_ns = due_at(t0, i, sc_.open_rate);
      if (op.kind == Kind::kMutate) {
        const auto batch = make_batch(t, op);
        sleep_until_ns(s.time.due_ns);
        s.time.sent_ns = now_ns();
        try {
          {
            Scoped sp(lane, "router.mutate", i);
            r.mutate(batch);
          }
          s.time.done_ns = now_ns();
          ++c.ok;
          ok[i] = 1;
          tr.mutate_all_us.push_back(static_cast<double>(s.time.done_ns - s.time.sent_ns) / 1e3);
          c.in_limit += s.time.latency_us() <= sc_.mutate_limit_us;
        } catch (const std::exception&) {
          ++c.failed;
        }
        if (lane) sample_delta(r, tr);
      } else {
        std::optional<Query> q;
        {
          Scoped sp(lane, "query.build", i);
          q.emplace(make_query(t, op, base_.nrows()));
        }
        sleep_until_ns(s.time.due_ns);
        s.time.sent_ns = now_ns();
        try {
          Scoped sp(lane, "router.submit", i);
          s.ticket = r.submit(std::move(*q));
          s.has_ticket = true;
        } catch (const std::exception&) {
          ++c.failed;
        }
        // A cache hit is settled at submit. Probing once here times it then
        // rather than at the collector's next sweep.
        if (s.has_ticket) {
          try {
            Scoped sp(lane, "router.poll", i);
            if (r.poll(s.ticket) != nullptr) s.time.done_ns = now_ns();
          } catch (const std::exception&) {
            // A failed answer is counted once, by the collector.
          }
        }
      }
      tr.late_us.push_back(s.time.lateness_us());
      published.store(i + 1, std::memory_order_release);
      published.notify_one();
    }
    if (lane) lane->close(root);
    collector.join();

    for (const auto& [kind, c] : collected.kinds) {
      pc.kinds[kind].ok += c.ok;
      pc.kinds[kind].failed += c.failed;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!slots[i].has_ticket || !ok[i]) continue;
      const double lat = slots[i].time.latency_us();
      tr.read_lat_us.push_back(lat);
      pc.kinds[kind_name(t.ops[i].kind)].in_limit += lat <= sc_.read_limit_us;
    }
    // Zipf traffic never mutates, so answers kept mid-phase are checked
    // against the base itself.
    for (const auto& [i, m] : kept) {
      if (!same_bytes(m, hs::serve::run_single<S>(base_, make_query(t, t.ops[i], base_.nrows())))) {
        throw Mismatch("serve: mid-traffic answer differs from run_single on the base");
      }
    }
    return pc;
  }

  /// Correctness gate: re-ask a sample of the trial's reads at the final
  /// epoch and compare with run_single on a from-scratch rebuild.
  void check(Router& r, const std::vector<const Traffic*>& applied,
             const std::vector<std::vector<char>>& ok) const {
    const Mat ref = rebuild(base_, applied, ok);
    const Traffic& t = *applied.back();
    std::size_t asked = 0;
    const std::size_t stride = std::max<std::size_t>(1, t.ops.size() / std::max<std::size_t>(sc_.check_queries, 1));
    for (std::size_t i = 0; i < t.ops.size() && asked < sc_.check_queries; i += stride) {
      if (t.ops[i].kind == Kind::kMutate) continue;
      const Mat& got = r.wait(r.submit(make_query(t, t.ops[i], base_.nrows())));
      const Mat want = hs::serve::run_single<S>(ref, make_query(t, t.ops[i], base_.nrows()));
      if (!same_bytes(got, want)) {
        throw Mismatch(std::string("serve: ") + kind_name(t.ops[i].kind) +
                       " answer differs from run_single on the rebuilt base");
      }
      ++asked;
    }
    if (asked == 0) throw Mismatch("serve: correctness gate checked no answers");
  }

  const Mat& base_;
  ServeConfig sc_;
  TrafficGen gen_;
};

}  // namespace e2e
