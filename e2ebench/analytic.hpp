#pragma once
// The analytic workload: offline associative-array algebra over string
// keys. A pass ingests two R-MAT edge windows keyed "v<id>", then computes
//   W = A ⊕ B,  P = A ⊕.⊗ Bᵀ,  M = W ⊕.⊗ W ⟨W⟩,  r = row-reduce(P).
// pass_array() makes the array-level calls a user would write;
// pass_decomposed() makes the public calls those are built from
// (key_union, realign, the sparse kernels, the AssocArray constructors),
// with a span around each, and must produce the same bytes.

#include <string>

#include "array/assoc_array.hpp"
#include "common.hpp"
#include "measure.hpp"
#include "sparse/reduce.hpp"
#include "util/generators.hpp"
#include "util/metrics.hpp"

namespace e2e {

namespace hs = hyperspace;
using AA = hs::array::AssocArray<S>;
using hs::array::Key;
using hs::array::KeySet;

/// One edge window, as the string-keyed triples a loader hands over.
struct Window {
  std::vector<Key> src, dst;
  std::vector<double> w;
};

/// A fixed R-MAT window (`graph_seed`) with vertex v named "v<label[v]>":
/// the workload seed picks the labels, so every seed does the same amount
/// of work while key order, and so the key alignment, changes.
inline Window make_window(int scale, double edge_factor, std::uint64_t graph_seed,
                          const std::vector<Index>& label) {
  Window win;
  for (const auto& e :
       hs::util::rmat_edges({.scale = scale, .edge_factor = edge_factor, .seed = graph_seed})) {
    win.src.emplace_back("v" + std::to_string(label[static_cast<std::size_t>(e.src)]));
    win.dst.emplace_back("v" + std::to_string(label[static_cast<std::size_t>(e.dst)]));
    win.w.push_back(e.weight);
  }
  return win;
}


/// Digests of a pass's four outputs (keys and entry bytes) plus sizes.
struct PassOut {
  double seconds = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;
  std::uint64_t mxm_out_nnz = 0;
  std::uint64_t mxm_out_bytes = 0;
};

inline std::pair<std::uint64_t, std::uint64_t> digest(const KeySet& rows, const KeySet& cols,
                                                      const Mat& m) {
  Digest d;
  for (const KeySet* ks : {&rows, &cols}) {
    d.u64(ks->size());
    for (const Key& k : *ks) {
      const std::string s = k.to_string();
      d.bytes(s.data(), s.size());
    }
  }
  d.matrix(m);
  return d.value();
}

inline PassOut summarize(double seconds, const AA& W, const AA& P, const AA& M, const Mat& r) {
  PassOut out;
  out.seconds = seconds;
  out.digests = {digest(W.row_keys(), W.col_keys(), W.matrix()),
                 digest(P.row_keys(), P.col_keys(), P.matrix()),
                 digest(M.row_keys(), M.col_keys(), M.matrix()),
                 digest(P.row_keys(), KeySet{}, r)};
  for (const Mat* m : {&P.matrix(), &M.matrix()}) {
    const auto nnz = static_cast<std::uint64_t>(m->nnz());
    out.mxm_out_nnz += nnz;
    out.mxm_out_bytes += nnz * (sizeof(Index) + sizeof(double)) +
                         static_cast<std::uint64_t>(m->nrows() + 1) * sizeof(Index);
  }
  return out;
}

inline Mat reduce_rows(const Mat& m) {
  return hs::sparse::reduce_rows<hs::semiring::AddMonoidOf<S>>(m);
}

/// The pass as a user writes it.
inline PassOut pass_array(const Window& a, const Window& b) {
  const std::uint64_t t0 = now_ns();
  const AA A(a.src, a.dst, a.w);
  const AA B(b.src, b.dst, b.w);
  const AA W = hs::array::add(A, B);
  const AA P = hs::array::mtimes(A, B.transpose());
  const AA M = hs::array::mtimes_masked(W, W, W);
  const Mat r = reduce_rows(P.matrix());
  return summarize(static_cast<double>(now_ns() - t0) / 1e9, W, P, M, r);
}

/// Wall time and worker tile time spent inside the product kernels, read
/// from the registry the runtime already exports (telemetry on only).
struct KernelTally {
  double wall_ns = 0;
  double tile_ns = 0;
};

inline double tile_ns_total() {
  return static_cast<double>(
      hs::util::metrics::Registry::instance().histogram_snapshot("parallel.tile_ns").sum);
}

template <class F>
auto spanned(SpanLane* lane, const char* name, F&& f) {
  Scoped s(lane, name);
  return f();
}

template <class F>
auto kernel(SpanLane* lane, const char* name, KernelTally* k, F&& f) {
  const double tile0 = k ? tile_ns_total() : 0;
  const std::uint64_t t0 = now_ns();
  auto out = spanned(lane, name, f);
  if (k) {
    k->wall_ns += static_cast<double>(now_ns() - t0);
    k->tile_ns += tile_ns_total() - tile0;
  }
  return out;
}

/// The same pass through the public calls array::add / mtimes /
/// mtimes_masked are made of, one span per call.
inline PassOut pass_decomposed(const Window& a, const Window& b, SpanLane* lane,
                               KernelTally* tally) {
  const std::uint64_t t0 = now_ns();
  const std::size_t root = lane ? lane->open("analytic.pass") : 0;
  const AA A = spanned(lane, "array.ingest", [&] { return AA(a.src, a.dst, a.w); });
  const AA B = spanned(lane, "array.ingest", [&] { return AA(b.src, b.dst, b.w); });
  const auto realign = [&](const AA& x, const KeySet& r, const KeySet& c) {
    return spanned(lane, "array.realign", [&] { return x.realign(r, c); });
  };
  // key_union is a hidden friend of KeySet, found by argument lookup.
  const auto unite = [&](const KeySet& x, const KeySet& y) {
    return spanned(lane, "array.key_union", [&] { return key_union(x, y); });
  };
  const auto wrap = [&](const KeySet& r, const KeySet& c, Mat m) {
    return spanned(lane, "array.wrap", [&] { return AA(r, c, std::move(m)); });
  };

  // W = A ⊕ B over the union key spaces.
  const KeySet rows = unite(A.row_keys(), B.row_keys());
  const KeySet cols = unite(A.col_keys(), B.col_keys());
  const AA xa = realign(A, rows, cols);
  const AA xb = realign(B, rows, cols);
  const AA W = wrap(xa.row_keys(), xa.col_keys(), spanned(lane, "sparse.ewise_add", [&] {
                      return hs::sparse::ewise_add<S>(xa.matrix(), xb.matrix());
                    }));

  // P = A ⊕.⊗ Bᵀ over the union inner key space.
  const AA Bt = spanned(lane, "array.transpose", [&] { return B.transpose(); });
  const KeySet inner = unite(A.col_keys(), Bt.row_keys());
  const AA pa = realign(A, A.row_keys(), inner);
  const AA pb = realign(Bt, inner, Bt.col_keys());
  const AA P = wrap(A.row_keys(), Bt.col_keys(), kernel(lane, "sparse.mxm", tally, [&] {
                      return hs::sparse::mxm<S>(pa.matrix(), pb.matrix());
                    }));

  // M = W ⊕.⊗ W ⟨W⟩.
  const KeySet winner = unite(W.col_keys(), W.row_keys());
  const AA ma = realign(W, W.row_keys(), winner);
  const AA mb = realign(W, winner, W.col_keys());
  const AA mm = realign(W, W.row_keys(), W.col_keys());
  const AA M = wrap(W.row_keys(), W.col_keys(), kernel(lane, "sparse.mxm_masked", tally, [&] {
                      return hs::sparse::mxm_masked<S>(ma.matrix(), mb.matrix(), mm.matrix());
                    }));

  const Mat r = spanned(lane, "sparse.reduce_rows", [&] { return reduce_rows(P.matrix()); });
  if (lane) lane->close(root);
  return summarize(static_cast<double>(now_ns() - t0) / 1e9, W, P, M, r);
}

}  // namespace e2e
