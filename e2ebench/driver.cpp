// End-to-end benchmark driver. One workload per invocation:
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-dir <dir>] --p name=value ...
//
// --trace 0 measures the end-to-end metrics with telemetry off. --trace 1
// is the separate traced run: it records spans around every call the
// driver makes into a layer, reads the counters the library exports, and
// prints the per-layer metrics. The last stdout line is the result object;
// a wrong answer exits 3 without printing one.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analytic.hpp"
#include "common.hpp"
#include "measure.hpp"
#include "serve.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

namespace hm = hyperspace::util::metrics;
namespace hp = hyperspace::util;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  std::string trace_dir = ".";
  Params p;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
      have_seconds = true;
    } else if (k == "--trace") {
      a.trace = std::stoi(v);
    } else if (k == "--trace-dir") {
      a.trace_dir = v;
    } else if (k == "--p") {
      a.p.set(v);
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || a.seconds <= 0 ||
      (a.trace != 0 && a.trace != 1)) {
    throw std::invalid_argument("need --workload, --seed, --seconds > 0 and --trace 0|1");
  }
  return a;
}

/// Per-layer metrics (--trace 1): every workload prints the whole list;
/// layers a workload does not run read 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"router.submit_p50_us", "us"}, {"router.submit_p99_us", "us"},
        {"router.poll_p50_us", "us"}, {"router.straddle_frac", "ratio"},
        {"router.merges_per_query", "ratio"}, {"cache.hit_ratio", "ratio"},
        {"cache.evictions", "count"}, {"cache.bytes", "B"},
        {"executor.queries_per_batch", "ratio"}, {"executor.launches_per_query", "ratio"},
        {"executor.batch_busy_p50_us", "us"}, {"executor.engine_latency_p50_us", "us"},
        {"executor.engine_latency_p99_us", "us"}, {"executor.queue_wait_p50_us", "us"},
        {"batch.k1_us", "us"}, {"batch.k64_us_per_query", "us"},
        {"delta.entries_p50", "count"}, {"delta.compactions", "count"},
        {"delta.mutate_busy_frac", "ratio"}, {"delta.mutate_p50_us", "us"},
        {"delta.mutate_p90_us", "us"}, {"mxm.s", "s"}, {"ewise.s", "s"}, {"reduce.s", "s"},
        {"mxm.flops", "count"}, {"mxm.flops_per_s", "1/s"}, {"mxm.out_nnz", "count"},
        {"mxm.out_bytes_computed", "B"}, {"mxm.serial_frac", "ratio"},
        {"parallel.tiles", "count"}, {"parallel.steals", "count"},
        {"parallel.idle_ns", "ns"}, {"parallel.busy_frac", "ratio"},
        {"array.ingest_s", "s"}, {"array.ingest_triples_per_s", "1/s"},
        {"array.realign_s", "s"}, {"serve.rss_bytes_per_query", "B"}, {"open.read_p99_us", "us"},
        {"driver.late_p99_us", "us"}, {"driver.tracing_overhead_frac", "ratio"},
        {"trace.wall_s", "s"}, {"trace.accounted_frac", "ratio"},
        {"trace.wall_s_t1", "s"}, {"trace.accounted_frac_t1", "ratio"}};
    for (const char* suffix : {"", "_t1"}) {
      for (const char* span : {"driver", "driver.collector", "query.build", "router.submit", "router.mutate",
                               "router.poll", "array.ingest", "array.key_union",
                               "array.realign", "array.wrap", "array.transpose",
                               "sparse.ewise_add", "sparse.mxm", "sparse.mxm_masked",
                               "sparse.reduce_rows"}) {
        v.push_back({std::string("self.") + span + suffix + "_s", "s"});
      }
    }
    return v;
  }();
  return m;
}

/// Collects per-layer values and emits them in the declared order.
class LayerSink {
 public:
  void set(const std::string& name, double v) {
    for (const auto& [n, _] : layer_metrics()) {
      if (n == name) {
        values_[name] = v;
        return;
      }
    }
    throw std::logic_error("undeclared per-layer metric " + name);
  }
  double get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  void emit(Result& r) const {
    for (const auto& [n, unit] : layer_metrics()) r.add(n, get(n), unit);
  }

 private:
  std::map<std::string, double> values_;
};

/// Self-time table of a traced run: per span name across lanes, with the
/// first lane's root spans reported as driver time and the other lanes'
/// as driver.collector time. Writes the Chrome trace.
void self_table(const std::vector<const SpanLane*>& lanes, double wall_s, const std::string& tag,
                const std::string& path, LayerSink& out) {
  std::map<std::string, double> self;
  double accounted = 0;
  for (const SpanLane* l : lanes) {
    if (!l->balanced()) throw std::logic_error("span lane left open: " + l->name());
    std::map<std::string, bool> roots;
    for (const auto& sp : l->spans()) {
      if (sp.parent < 0) roots[sp.name] = true;
    }
    const char* root_name = l == lanes.front() ? "driver" : "driver.collector";
    for (const auto& [name, ns] : self_time_ns(*l)) {
      self[roots.count(name) ? root_name : name] += ns / 1e9;
    }
  }
  // The submitting lane (the first) runs for the whole traced wall time, so
  // its self times alone must add up to it.
  for (const auto& [name, ns] : self_time_ns(*lanes.front())) accounted += ns / 1e9;
  std::cout << "# self-time table (" << tag << ", wall " << wall_s << " s)\n";
  for (const auto& [name, s] : self) {
    std::cout << "#   " << name << " " << s << " s\n";
    out.set("self." + name + tag + "_s", s);
  }
  out.set("trace.wall_s" + tag, wall_s);
  out.set("trace.accounted_frac" + tag, accounted / wall_s);
  std::ofstream f(path);
  write_chrome_json(f, lanes);
  std::cout << "# chrome trace: " << path << "\n";
}

void count_phases(const std::vector<PhaseCounts>& phases, Result& r) {
  for (const auto& pc : phases) {
    if (!pc.complete()) throw std::logic_error("phase " + pc.phase + " did not run its op count");
    const OpCount t = pc.total();
    r.attempted += t.attempted;
    r.failed += t.failed;
    for (const auto& [kind, c] : pc.kinds) {
      std::cout << "# phase " << pc.phase << " " << kind << ": attempted " << c.attempted
                << " ok " << c.ok << " failed " << c.failed << "\n";
    }
  }
}

double hist_us(const char* name, double q) {
  const auto snap = hm::Registry::instance().histogram_snapshot(name);
  return snap.count ? static_cast<double>(snap.percentile(q)) / 1e3 : 0.0;
}

double counter(const char* name) {
  return static_cast<double>(hm::Registry::instance().counter_value(name));
}

/// The q-quantile when ten samples lie beyond it, else the largest sample.
/// Per-layer only; an empty sample reads 0.
double quantile_or_max(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  if (percentile_supported(v.size(), q)) return percentile(v, q);
  return *std::max_element(v.begin(), v.end());
}

std::vector<double> span_us(const SpanLane& lane, const std::string& name) {
  std::vector<double> out;
  for (const auto& sp : lane.spans()) {
    if (name == sp.name) out.push_back(static_cast<double>(sp.end_ns - sp.start_ns) / 1e3);
  }
  return out;
}

// ---- serving ----------------------------------------------------------------

/// Run `f` on a new thread and return its result (or rethrow its error).
/// A trial's client threads are then placed afresh by the scheduler, so
/// one unlucky placement does not persist through a whole run.
template <class F>
auto on_fresh_thread(F&& f) {
  std::optional<decltype(f())> out;
  std::exception_ptr err;
  std::thread t([&] {
    try {
      out.emplace(f());
    } catch (...) {
      err = std::current_exception();
    }
  });
  t.join();
  if (err) std::rethrow_exception(err);
  return std::move(*out);
}

ServeConfig serve_config(const Args& a, bool zipf, std::size_t cache_bytes) {
  const Params& p = a.p;
  ServeConfig sc;
  sc.mix.zipf = zipf;
  if (zipf) {
    sc.mix.zipf_s = p("zipf_s");
    sc.mix.select_share = p("select_share");
    sc.mix.select_keys = p.count("select_keys");
  } else {
    sc.mix.frontier_share = p("frontier_share");
    sc.mix.frontier_keys = p.count("frontier_keys");
    sc.mix.write_every = p.count("write_every");
    sc.mix.write_batch = p.count("write_batch");
    sc.mix.assign_share = p("assign_share");
  }
  sc.shards = p.count("shards");
  sc.cache_bytes = cache_bytes;
  sc.warmup_ops = p.count("warmup_ops");
  sc.closed_ops = p.count("closed_ops");
  sc.window = p.count("window");
  sc.open_ops = p.count("open_ops");
  sc.open_rate = p("open_rate");
  sc.read_limit_us = p("read_limit_us");
  sc.mutate_limit_us = zipf ? 0 : p("mutate_limit_us");
  sc.check_queries = p.count("check_queries");
  return sc;
}

void run_serve(const Args& a, bool zipf, Result& res) {
  const Params& p = a.p;
  const Base b = make_base(static_cast<int>(p("base_scale")), p("edge_factor"),
                           static_cast<std::uint64_t>(p("graph_seed")), a.seed);
  const Mat& base = b.m;
  Mix hot_mix;
  hot_mix.zipf = true;
  hot_mix.zipf_s = p("zipf_s");
  const std::size_t hot_bytes =
      ServeWorkload::hot_set_bytes(b, hot_mix, p.count("hot_ranks"));
  const auto cache_bytes = static_cast<std::size_t>(static_cast<double>(hot_bytes) *
                                                    p("cache_budget_factor"));
  std::cout << "# base " << base.nrows() << " rows, " << base.nnz() << " entries; hot set "
            << p.count("hot_ranks") << " keys = " << hot_bytes << " B; cache budget "
            << cache_bytes << " B\n";
  const ServeConfig sc = serve_config(a, zipf, cache_bytes);
  ServeWorkload wl(b, sc, a.seed + 1);
  hm::set_enabled(false);

  if (a.trace == 0) {
    // Each trial is summarised on its own and the run reports medians over
    // trials: a trial that met a stall of the shared host, or a poor thread
    // placement, moves a median of several far less than a pooled figure.
    std::vector<double> setup, qps, p50, p90, late;
    std::uint64_t sent = 0, in_limit = 0;
    const std::uint64_t t0 = now_ns();
    while (setup.size() < p.count("min_trials") ||
           static_cast<double>(now_ns() - t0) / 1e9 < a.seconds) {
      ServeTrial t = on_fresh_thread([&] { return wl.run_trial(nullptr); });
      count_phases(t.phases, res);
      setup.push_back(t.setup_s);
      qps.push_back(static_cast<double>(t.closed_reads) / t.closed_s);
      p50.push_back(percentile(t.read_lat_us, 0.5));
      p90.push_back(percentile(t.read_lat_us, 0.9));
      const double p99 = percentile(t.read_lat_us, 0.99);
      late.push_back(percentile(t.late_us, 0.99));
      const OpCount open = t.phases.back().total();
      sent += open.attempted;
      in_limit += open.in_limit;
      std::cout << "# trial: setup " << t.setup_s << " s, closed loop " << qps.back()
                << " reads/s, open loop p50 " << p50.back() << " us p90 " << p90.back()
                << " us p99 " << p99
                << " us, generator lateness p99 " << late.back() << " us, rss " << t.rss_warm / (1 << 20)
                << " MB after warm-up, " << t.rss_end / (1 << 20) << " MB at end\n";
    }
    res.add("setup_s", median(setup), "s");
    res.add("query_qps", median(qps), "1/s");
    res.add("query_p50_us", median(p50), "us");
    res.add("query_p90_us", median(p90), "us");
    res.add("slo_ok_frac", static_cast<double>(in_limit) / static_cast<double>(sent), "ratio");
    res.add("peak_rss_mb", static_cast<double>(peak_rss_bytes()) / (1 << 20), "MB");
    return;
  }

  // Traced run: untraced trials as the overhead baseline (the first one
  // warms the process and is not used), then traced trials at the host's
  // thread count and at one thread.
  LayerSink L;
  ServeTrial plain;
  for (int i = 0; i < 2; ++i) {
    plain = on_fresh_thread([&] { return wl.run_trial(nullptr); });
    count_phases(plain.phases, res);
  }
  const double reads = static_cast<double>(plain.phases[1].total().attempted +
                                           plain.phases[2].total().attempted);
  L.set("serve.rss_bytes_per_query",
        (static_cast<double>(plain.rss_end) - static_cast<double>(plain.rss_warm)) / reads);
  L.set("driver.late_p99_us", quantile_or_max(plain.late_us, 0.99));
  L.set("open.read_p99_us", quantile_or_max(plain.read_lat_us, 0.99));

  const int nproc = hp::max_threads();
  for (const int threads : {nproc, 1}) {
    const bool main_run = threads == nproc;
    hp::set_num_threads(threads);
    hm::set_enabled(true);
    hm::Registry::instance().reset_values();
    ServeLanes lanes;
    const ServeTrial t = on_fresh_thread([&] { return wl.run_trial(&lanes); });
    hm::set_enabled(false);
    hp::set_num_threads(0);
    count_phases(t.phases, res);
    const std::string tag = main_run ? "" : "_t1";
    self_table({&lanes.submit, &lanes.collect}, t.closed_s + t.open_s, tag,
               a.trace_dir + "/" + a.workload + (main_run ? ".trace.json" : ".t1.trace.json"), L);
    if (!main_run) continue;

    const double qps_plain = static_cast<double>(plain.closed_reads) / plain.closed_s;
    const double qps_traced = static_cast<double>(t.closed_reads) / t.closed_s;
    L.set("driver.tracing_overhead_frac", qps_plain / qps_traced - 1.0);
    const auto submit = span_us(lanes.submit, "router.submit");
    auto polls = span_us(lanes.submit, "router.poll");
    const auto cp = span_us(lanes.collect, "router.poll");
    polls.insert(polls.end(), cp.begin(), cp.end());
    L.set("router.submit_p50_us", median(submit));
    L.set("router.submit_p99_us", quantile_or_max(submit, 0.99));
    L.set("router.poll_p50_us", median(polls));
    const double q = static_cast<double>(t.router.queries);
    L.set("router.straddle_frac", static_cast<double>(t.router.straddling) / q);
    L.set("router.merges_per_query", static_cast<double>(t.router.merges) / q);
    const double probes = static_cast<double>(t.cache.hits + t.cache.misses);
    L.set("cache.hit_ratio", probes > 0 ? static_cast<double>(t.cache.hits) / probes : 0.0);
    L.set("cache.evictions", static_cast<double>(t.cache.evictions));
    L.set("cache.bytes", static_cast<double>(t.cache.bytes));
    const double subq = static_cast<double>(t.engine.queries);
    L.set("executor.queries_per_batch", subq / static_cast<double>(std::max<std::uint64_t>(t.engine.batches, 1)));
    L.set("executor.launches_per_query", static_cast<double>(t.engine.kernel_launches) / std::max(subq, 1.0));
    const double busy = hist_us("serve.batch_ns", 0.5);
    const double eng = hist_us("serve.query_latency_ns", 0.5);
    L.set("executor.batch_busy_p50_us", busy);
    L.set("executor.engine_latency_p50_us", eng);
    L.set("executor.engine_latency_p99_us", hist_us("serve.query_latency_ns", 0.99));
    L.set("executor.queue_wait_p50_us", eng - busy);
    L.set("delta.entries_p50", t.delta_entries.empty() ? 0.0 : median(t.delta_entries));
    L.set("delta.compactions", t.compactions_per_shard);
    double mutate_us = 0;
    for (const double m : t.mutate_all_us) mutate_us += m;
    L.set("delta.mutate_busy_frac", mutate_us / 1e6 / (t.closed_s + t.open_s));
    L.set("delta.mutate_p50_us", t.mutate_all_us.empty() ? 0.0 : median(t.mutate_all_us));
    L.set("delta.mutate_p90_us", quantile_or_max(t.mutate_all_us, 0.9));
    const auto launch = hm::Registry::instance().histogram_snapshot("mxm.launch_ns");
    const double mxm_s = static_cast<double>(launch.sum) / 1e9;
    const double flops = counter("mxm.flops_kept");
    const double tiles_ns = tile_ns_total();
    L.set("mxm.s", mxm_s);
    L.set("mxm.flops", flops);
    L.set("mxm.flops_per_s", mxm_s > 0 ? flops / mxm_s : 0.0);
    L.set("mxm.serial_frac", mxm_s > 0 ? 1.0 - tiles_ns / 1e9 / (nproc * mxm_s) : 0.0);
    L.set("parallel.tiles", counter("parallel.tiles"));
    L.set("parallel.steals", counter("parallel.steals"));
    L.set("parallel.idle_ns", counter("parallel.idle_ns"));
    L.set("parallel.busy_frac", tiles_ns / 1e9 / (nproc * (t.closed_s + t.open_s)));

    // Direct replay of captured reads against the unsharded base: the
    // batch layer alone, one query per launch vs 64 per launch.
    std::vector<const Query*> ptrs;
    for (const auto& qq : t.replay) ptrs.push_back(&qq);
    std::vector<double> k1;
    for (int rep = 0; rep < 5; ++rep) {
      for (const Query* qq : ptrs) {
        const std::uint64_t s0 = now_ns();
        (void)hyperspace::serve::run_batch<S>(base, std::span<const Query* const>(&qq, 1));
        k1.push_back(static_cast<double>(now_ns() - s0) / 1e3);
      }
    }
    std::vector<double> k64;
    for (int rep = 0; rep < 31; ++rep) {
      const std::uint64_t s0 = now_ns();
      (void)hyperspace::serve::run_batch<S>(base, std::span<const Query* const>(ptrs));
      k64.push_back(static_cast<double>(now_ns() - s0) / 1e3 / static_cast<double>(ptrs.size()));
    }
    L.set("batch.k1_us", median(k1));
    L.set("batch.k64_us_per_query", median(k64));
  }
  L.emit(res);
}

// ---- analytic ---------------------------------------------------------------

void check_same(const PassOut& got, const PassOut& want, const char* what) {
  if (got.digests != want.digests) {
    throw Mismatch(std::string("analytic: ") + what + " differs from the 1-thread reference pass");
  }
}

PassOut reference_pass(const Window& a, const Window& b) {
  hp::set_num_threads(1);
  PassOut ref = pass_array(a, b);
  hp::set_num_threads(0);
  return ref;
}

void run_analytic(const Args& a, Result& res) {
  const Params& p = a.p;
  const int scale = static_cast<int>(p("window_scale"));
  const int warm_scale = static_cast<int>(p("warmup_scale"));
  const auto graph = static_cast<std::uint64_t>(p("graph_seed"));
  Rng rng(a.seed);
  const auto label = shuffled_ids(Index{1} << scale, rng);
  const Window wa = make_window(scale, p("edge_factor"), graph, label);
  const Window wb = make_window(scale, p("edge_factor"), graph + 1, label);
  const Window va = make_window(warm_scale, p("edge_factor"), graph + 2, label);
  const Window vb = make_window(warm_scale, p("edge_factor"), graph + 3, label);
  hm::set_enabled(false);

  // Set-up: small passes that start the parallel runtime and warm the
  // allocator before the first timed pass.
  std::vector<double> setup;
  for (std::size_t i = 0; i < p.count("setup_reps"); ++i) setup.push_back(pass_array(va, vb).seconds);

  if (a.trace == 0) {
    std::vector<PassOut> passes;
    const std::uint64_t t0 = now_ns();
    while (passes.size() < p.count("min_passes") ||
           static_cast<double>(now_ns() - t0) / 1e9 < a.seconds) {
      passes.push_back(pass_array(wa, wb));
    }
    const PassOut ref = reference_pass(wa, wb);
    check_same(pass_decomposed(wa, wb, nullptr, nullptr), ref, "the decomposed pass");
    std::vector<double> secs;
    std::uint64_t in_limit = 0;
    for (const auto& ps : passes) {
      check_same(ps, ref, "a timed pass");
      secs.push_back(ps.seconds);
      in_limit += ps.seconds * 1e6 <= p("pass_limit_us");
    }
    res.attempted = passes.size();
    std::cout << "# passes " << passes.size() << ", P+M entries " << ref.mxm_out_nnz << "\n";
    const double pass_s = median(secs);
    res.add("setup_s", median(setup), "s");
    res.add("query_qps", 1.0 / pass_s, "1/s");
    res.add("query_p50_us", pass_s * 1e6, "us");
    // Too few passes for the ten-beyond rule; this is the plain p90 of them.
    auto by_time = secs;
    std::sort(by_time.begin(), by_time.end());
    res.add("query_p90_us", by_time[(by_time.size() * 9 + 9) / 10 - 1] * 1e6, "us");
    res.add("slo_ok_frac", static_cast<double>(in_limit) / static_cast<double>(passes.size()), "ratio");
    res.add("peak_rss_mb", static_cast<double>(peak_rss_bytes()) / (1 << 20), "MB");
    return;
  }

  LayerSink L;
  const PassOut ref = reference_pass(wa, wb);
  std::vector<double> plain;
  for (int i = 0; i < 2; ++i) {
    const PassOut ps = pass_array(wa, wb);
    check_same(ps, ref, "an untraced pass");
    plain.push_back(ps.seconds);
  }
  res.attempted = 3;
  const int nproc = hp::max_threads();
  for (const int threads : {nproc, 1}) {
    const bool main_run = threads == nproc;
    hp::set_num_threads(threads);
    hm::set_enabled(true);
    hm::Registry::instance().reset_values();
    SpanLane lane("analytic");
    KernelTally tally;
    const PassOut ps = pass_decomposed(wa, wb, &lane, &tally);
    hm::set_enabled(false);
    hp::set_num_threads(0);
    ++res.attempted;
    check_same(ps, ref, "the traced decomposed pass");
    const std::string tag = main_run ? "" : "_t1";
    self_table({&lane}, ps.seconds, tag,
               a.trace_dir + "/" + a.workload + (main_run ? ".trace.json" : ".t1.trace.json"), L);
    if (!main_run) continue;
    L.set("driver.tracing_overhead_frac", ps.seconds / median(plain) - 1.0);
    const auto self = self_time_ns(lane);
    const auto get = [&](const char* n) {
      const auto it = self.find(n);
      return it == self.end() ? 0.0 : it->second / 1e9;
    };
    const double mxm_s = get("sparse.mxm") + get("sparse.mxm_masked");
    const double flops = counter("mxm.flops_kept");
    L.set("mxm.s", mxm_s);
    L.set("ewise.s", get("sparse.ewise_add"));
    L.set("reduce.s", get("sparse.reduce_rows"));
    L.set("mxm.flops", flops);
    L.set("mxm.flops_per_s", flops / mxm_s);
    L.set("mxm.out_nnz", static_cast<double>(ps.mxm_out_nnz));
    L.set("mxm.out_bytes_computed", static_cast<double>(ps.mxm_out_bytes));
    L.set("mxm.serial_frac", 1.0 - tally.tile_ns / (nproc * tally.wall_ns));
    L.set("parallel.tiles", counter("parallel.tiles"));
    L.set("parallel.steals", counter("parallel.steals"));
    L.set("parallel.idle_ns", counter("parallel.idle_ns"));
    L.set("parallel.busy_frac", tile_ns_total() / 1e9 / (nproc * ps.seconds));
    const double ingest = get("array.ingest");
    L.set("array.ingest_s", ingest);
    L.set("array.ingest_triples_per_s", static_cast<double>(wa.w.size() + wb.w.size()) / ingest);
    L.set("array.realign_s", get("array.key_union") + get("array.realign"));
  }
  L.emit(res);
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  try {
    const Args a = parse(argc, argv);
    std::cout << "# workload " << a.workload << " seed " << a.seed << " trace " << a.trace
              << "; nproc " << std::thread::hardware_concurrency() << ", engine threads "
              << hyperspace::util::max_threads() << ", build " << E2E_BUILD_TYPE << "\n";
    Result res;
    if (a.workload == "serve_zipf_read") {
      run_serve(a, true, res);
    } else if (a.workload == "serve_uniform_rw") {
      run_serve(a, false, res);
    } else if (a.workload == "analytic_keys") {
      run_analytic(a, res);
    } else {
      throw std::invalid_argument("unknown workload " + a.workload);
    }
    res.print(std::cout);
    return 0;
  } catch (const Mismatch& m) {
    std::cerr << "correctness check failed: " << m.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
