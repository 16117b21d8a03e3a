// Portable half of the batched small-GEMM engine: workspace, packing,
// same-order portable tile (used when AVX2 is absent), runtime kernel
// dispatch, and the fused transform/apply chains. Compiled with
// -ffp-contract=off so no path ever fuses multiply+add — the bitwise
// contract with the scalar reference kernels in gemm.cpp.
#include "linalg/batch_gemm.hpp"

#include <algorithm>
#include <atomic>
#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <utility>

#include "common/diagnostics.hpp"
#include "linalg/batch_gemm_kernels.hpp"

namespace mh::linalg {
namespace detail {
namespace {

// The contraction of one panel pass: `terms` segments of kc[mu] packed
// rows each, in order. Slot s's segment mu is blocks[s * terms + mu].
struct Segs {
  std::size_t terms;
  const std::size_t* kc;
};

// Tile epilogues, as in batch_gemm_avx2.cpp: where a finished accumulator
// element of slot s (panel row r, column j) goes; at(i0) is the epilogue
// of the panel whose first row is i0.

// mtxm: one block, c += acc.
struct AddInto {
  double* c;
  std::size_t ldc;

  AddInto at(std::size_t i0) const { return {c + i0 * ldc, ldc}; }
  void operator()(std::size_t, std::size_t r, std::size_t j,
                  double x) const {
    c[r * ldc + j] += x;
  }
};

// Store: one block, c = 0.0 + acc (bitwise a zeroed c plus acc).
struct StoreInto {
  double* c;
  std::size_t ldc;

  StoreInto at(std::size_t i0) const { return {c + i0 * ldc, ldc}; }
  void operator()(std::size_t, std::size_t r, std::size_t j,
                  double x) const {
    c[r * ldc + j] = 0.0 + x;
  }
};

// Fan-out: result += 0.0 + acc for every target of slot s; `row0`
// offsets each (dimi, k) result to the panel's first row.
struct AddIntoTargets {
  const std::size_t* start;
  double* const* targets;
  std::size_t k;
  std::size_t row0 = 0;

  AddIntoTargets at(std::size_t i0) const {
    return {start, targets, k, i0 * k};
  }
  void operator()(std::size_t s, std::size_t r, std::size_t j,
                  double x) const {
    const double z = 0.0 + x;
    const std::size_t off = row0 + r * k + j;
    for (std::size_t t = start[s]; t < start[s + 1]; ++t)
      targets[t][off] += z;
  }
};

// Packers: fill one 4-row panel k-major, rows past `rows` zero.

// mtxm: rows i0..i0+rows of a (row stride dimi).
struct PackPanel {
  std::size_t kc;
  const double* a;
  std::size_t dimi;

  void operator()(std::size_t i0, std::size_t rows, double* apack) const {
    for (std::size_t k = 0; k < kc; ++k) {
      const double* ak = a + k * dimi + i0;
      double* p = apack + 4 * k;
      p[0] = ak[0];
      p[1] = rows > 1 ? ak[1] : 0.0;
      p[2] = rows > 2 ? ak[2] : 0.0;
      p[3] = rows > 3 ? ak[3] : 0.0;
    }
  }
};

// Fan-out: every term's kc rows in turn, each element rounded once as
// coeffs[mu] * a_mu.
struct PackStacked {
  const FanOut& f;

  void operator()(std::size_t i0, std::size_t rows, double* apack) const {
    for (std::size_t mu = 0; mu < f.terms; ++mu) {
      const double c = f.coeffs[mu];
      for (std::size_t k = 0; k < f.kc[mu]; ++k) {
        const double* ak = f.a[mu] + k * f.dimi + i0;
        for (std::size_t r = 0; r < 4; ++r)
          apack[r] = r < rows ? c * ak[r] : 0.0;
        apack += 4;
      }
    }
  }
};

// One W-column tile of slot s (segments b) at columns j0..j0+W over the
// packed panel, accumulated in ascending stacked k.
template <std::size_t W, class Epi>
void tile(Segs sg, const double* ap, const double* const* b,
          std::size_t width, std::size_t s, std::size_t j0, std::size_t rows,
          const Epi& epi) {
  double acc[4][W] = {};
  for (std::size_t mu = 0; mu < sg.terms; ++mu) {
    for (std::size_t k = 0; k < sg.kc[mu]; ++k) {
      const double* bk = b[mu] + k * width + j0;
      const double* apk = ap + 4 * k;
      for (std::size_t r = 0; r < 4; ++r) {
        const double av = apk[r];
        for (std::size_t t = 0; t < W; ++t) acc[r][t] += av * bk[t];
      }
    }
    ap += 4 * sg.kc[mu];
  }
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t t = 0; t < W; ++t) epi(s, r, j0 + t, acc[r][t]);
}

// Packs each 4-row panel once and runs it over every slot: 4x8 and 4x4
// tiles, then the columns left one at a time.
template <class Pack, class Epi>
void panels(std::size_t dimi, Segs sg, const Pack& pack,
            const double* const* blocks, std::size_t n, std::size_t width,
            double* apack, const Epi& epi_rows) {
  const std::size_t tiled = width - width % 4;
  for (std::size_t i0 = 0; i0 < dimi; i0 += 4) {
    const std::size_t rows = std::min<std::size_t>(4, dimi - i0);
    pack(i0, rows, apack);
    const Epi epi = epi_rows.at(i0);
    for (std::size_t s = 0; s < n; ++s) {
      const double* const* b = blocks + s * sg.terms;
      std::size_t j0 = 0;
      for (; j0 + 8 <= tiled; j0 += 8)
        tile<8>(sg, apack, b, width, s, j0, rows, epi);
      if (j0 < tiled) tile<4>(sg, apack, b, width, s, j0, rows, epi);
      for (std::size_t j = tiled; j < width; ++j)
        tile<1>(sg, apack, b, width, s, j, rows, epi);
    }
  }
}

}  // namespace

// Portable twin of the AVX2 kernels in batch_gemm_avx2.cpp: identical
// packing (the fan-out's weights folded in as it packs) and the identical
// per-element operation order — zeroed accumulator, ascending stacked k,
// one final add — so the two agree bitwise and either can serve as the
// dispatch target.
void mtxm_portable(std::size_t dimi, std::size_t dimj, std::size_t kc,
                   double* c, const double* a, const double* b,
                   double* apack) {
  panels(dimi, Segs{1, &kc}, PackPanel{kc, a, dimi}, &b, 1, dimj, apack,
         AddInto{c, dimj});
}

void mtxm_store_portable(std::size_t dimi, std::size_t dimj, std::size_t kc,
                         double* c, const double* a, const double* b,
                         double* apack) {
  panels(dimi, Segs{1, &kc}, PackPanel{kc, a, dimi}, &b, 1, dimj, apack,
         StoreInto{c, dimj});
}

void fan_out_portable(const FanOut& f, double* apack) {
  panels(f.dimi, Segs{f.terms, f.kc}, PackStacked{f}, f.blocks, f.n, f.k,
         apack, AddIntoTargets{f.start, f.targets, f.k});
}

}  // namespace detail

namespace {

detail::MTxmKernelFn pick_kernel() noexcept {
#if defined(MH_LINALG_HAVE_AVX2_TU)
  if (__builtin_cpu_supports("avx2")) return detail::mtxm_avx2;
#endif
  return detail::mtxm_portable;
}

detail::MTxmKernelFn g_kernel = pick_kernel();

detail::FanOutKernelFn pick_fan_out() noexcept {
#if defined(MH_LINALG_HAVE_AVX2_TU)
  if (g_kernel == detail::mtxm_avx2) return detail::fan_out_avx2;
#endif
  return detail::fan_out_portable;
}

detail::FanOutKernelFn g_fan_out = pick_fan_out();

detail::MTxmKernelFn pick_store() noexcept {
#if defined(MH_LINALG_HAVE_AVX2_TU)
  if (g_kernel == detail::mtxm_avx2) return detail::mtxm_store_avx2;
#endif
  return detail::mtxm_store_portable;
}

detail::MTxmKernelFn g_store = pick_store();

// Central packed-GEMM call: every engine entry point funnels through here.
// `kernel` adds the product into c (g_kernel) or stores it (g_store).
void run_packed(detail::MTxmKernelFn kernel, std::size_t dimi,
                std::size_t dimj, std::size_t kc, double* c, const double* a,
                const double* b, GemmWorkspace& ws) {
  if (dimi == 0 || dimj == 0) return;
  double* apack = ws.pack_a(4 * std::max<std::size_t>(kc, 1));
  kernel(dimi, dimj, kc, c, a, b, apack);
  ws.stats().packed_gemms += 1;
  ws.stats().flops += 2.0 * static_cast<double>(dimi * dimj * kc);
}

// batch_fused_apply's last mode: one packed-GEMM call over the group's
// stacked contraction of `depth` rows, counted like run_packed's.
void run_fan_out(const detail::FanOut& f, std::size_t depth,
                 GemmWorkspace& ws) {
  double* apack = ws.pack_a(4 * std::max<std::size_t>(depth, 1));
  g_fan_out(f, apack);
  ws.stats().packed_gemms += 1;
  ws.stats().flops += 2.0 * static_cast<double>(f.dimi * depth * f.n * f.k);
}

std::size_t span_product(std::span<const std::size_t> shape) {
  std::size_t n = 1;
  for (std::size_t s : shape) n *= s;
  return n;
}

}  // namespace

std::uint64_t BlockTable::fresh_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void GemmWorkspace::StackRecord::forget() noexcept {
  table = 0;
  src.clear();
  copied = nullptr;
}

double* GemmWorkspace::Buffer::ensure(std::size_t n) {
  if (n > capacity) {
    const std::size_t want = std::max(n, capacity * 2);
    // std::vector<double> guarantees only alignof(double); over-allocate by
    // 7 doubles and round the base up to a 64-byte boundary.
    storage.assign(want + 7, 0.0);
    const auto addr = reinterpret_cast<std::uintptr_t>(storage.data());
    aligned = reinterpret_cast<double*>((addr + 63) & ~std::uintptr_t{63});
    capacity = want;
  }
  return aligned;
}

GemmWorkspace& thread_workspace() {
  thread_local GemmWorkspace ws;
  return ws;
}

namespace detail {
FanOutKernelFn fan_out_kernel() noexcept { return g_fan_out; }
MTxmKernelFn mtxm_store_kernel() noexcept { return g_store; }
}  // namespace detail

bool packed_kernels_use_avx2() noexcept {
#if defined(MH_LINALG_HAVE_AVX2_TU)
  return g_kernel == detail::mtxm_avx2;
#else
  return false;
#endif
}

void mTxm_packed(std::size_t dimi, std::size_t dimj, std::size_t dimk,
                 std::size_t kred, double* c, const double* a,
                 const double* b, GemmWorkspace& ws) {
  run_packed(g_kernel, dimi, dimj, std::min(kred, dimk), c, a, b, ws);
}

void fused_transform_chain(std::span<const std::size_t> shape,
                           const double* src, std::span<const GemmMat> mats,
                           std::size_t kred, double* out, GemmWorkspace& ws) {
  const std::size_t n = mats.size();
  MH_CHECK(n <= shape.size(), "transform chain longer than tensor rank");
  std::size_t size = span_product(shape);
  MH_CHECK(size > 0, "fused_transform_chain on empty tensor");
  if (n == 0) {
    std::memcpy(out, src, size * sizeof(double));
    return;
  }
  // Size both ping-pong buffers to the largest intermediate up front so a
  // later ensure() can never move data the current step still reads.
  std::size_t s = size;
  std::size_t maxbuf = 0;
  for (std::size_t m = 0; m < n; ++m) {
    MH_CHECK(mats[m].rows == shape[m], "contraction extent mismatch");
    s = s / mats[m].rows * mats[m].cols;
    if (m + 1 < n) maxbuf = std::max(maxbuf, s);
  }
  double* ping = maxbuf > 0 ? ws.ping(maxbuf) : nullptr;
  double* pong = n > 2 ? ws.pong(maxbuf) : nullptr;
  const double* cur = src;
  std::size_t cursize = size;
  for (std::size_t m = 0; m < n; ++m) {
    const std::size_t rows = mats[m].rows;
    const std::size_t cols = mats[m].cols;
    const std::size_t rest = cursize / rows;
    const std::size_t osize = rest * cols;
    double* dst = (m + 1 == n) ? out : (m % 2 == 0 ? ping : pong);
    run_packed(g_store, rest, cols, std::min(kred, rows), dst, cur,
               mats[m].ptr, ws);
    cur = dst;
    cursize = osize;
  }
}

namespace {

// The grouping walk both entry points run. The call's items are
// sc.entries, their columns sc.cols ([item * d + mode]) and their kc
// vectors sc.kc ([item * stride + term]; stride 0: one vector for all).
// Term mu's block in column c is blocks[mu * width + c]. `table` is the
// blocks' BlockTable::id, 0 for none. Every ordering and grouping decision
// compares integers: source ranks, columns, term counts and kc.
void walk(std::size_t d, std::size_t k, const double* const* blocks,
          std::size_t width, std::uint64_t table, std::size_t stride,
          GemmWorkspace& ws) {
  GemmWorkspace::ShareScratch& sc = ws.share_scratch();
  const std::size_t count = sc.entries.size();
  std::size_t terms = 0;
  for (const auto& e : sc.entries) terms = std::max(terms, e.terms);
  std::size_t size = 1;
  for (std::size_t m = 0; m < d; ++m) size *= k;
  const std::size_t rest = size / k;
  const std::size_t depth = d - 1;  // prefix modes per term
  // All buffers are sized up front, so no ensure() moves data in use. Term
  // mu's mode-m intermediate (m < d - 1) lives at node(mu, m).
  double* stack = ws.prefix(terms * depth * size);
  const auto node = [&](std::size_t mu, std::size_t m) {
    return stack + (mu * depth + m) * size;
  };
  // What the stacks hold carries over from the last call only within one
  // table, and only for the source the record keeps a copy of, while that
  // source still holds the copied values. A term whose stack came from
  // another source is dropped: its values cannot be checked.
  GemmWorkspace::StackRecord& rec = ws.stack_record();
  if (table == 0 || rec.table != table || rec.d != d || rec.k != k) {
    rec.forget();
  } else if (rec.copied != nullptr &&
             std::any_of(sc.entries.begin(), sc.entries.end(),
                         [&](const auto& e) { return e.src == rec.copied; }) &&
             std::memcmp(rec.copied, rec.copy.data(), size * sizeof(double))) {
    rec.forget();
  }
  for (const double*& held : rec.src)
    if (held != rec.copied) held = nullptr;
  rec.table = table;
  rec.d = d;
  rec.k = k;
  if (rec.src.size() < terms) {
    rec.src.resize(terms, nullptr);
    rec.kc.resize(terms);
    rec.blocks.resize(terms * depth);
  }
  const auto kcs = [&](std::size_t i) { return sc.kc.data() + i * stride; };
  const auto cols = [&](std::size_t i) { return sc.cols.data() + i * d; };
  // A source is an item's (src, weights), ranked by first appearance; the
  // search starts at the latest, which a leaf's tasks hit at once.
  sc.sources.clear();
  for (auto& e : sc.entries) {
    const std::pair source(e.src, e.coeffs);
    auto seen = std::find(sc.sources.rbegin(), sc.sources.rend(), source);
    if (seen == sc.sources.rend()) {
      sc.sources.push_back(source);
      seen = sc.sources.rbegin();
    }
    e.source = static_cast<std::size_t>(sc.sources.rend() - seen) - 1;
  }
  // Items compare by source rank, columns of modes 0..d-2, term count
  // and kc vector, then by last column and position; those that tie on the
  // first four share every term's A segment, so they may share a fan-out
  // group. The groups of one prefix differ only in kc, and a term's prefix
  // is shared between adjacent groups only, so their order decides how
  // often it is recomputed: kc vectors compare from the last term down,
  // which on the rank-reduced coulomb_smoothing input runs 4% fewer prefix
  // GEMMs than comparing from term 0 up (EXPERIMENTS.md).
  const auto group_order = [&](std::size_t a, std::size_t b) {
    const auto& ea = sc.entries[a];
    const auto& eb = sc.entries[b];
    auto c = ea.source <=> eb.source;
    if (c == 0) {
      c = std::lexicographical_compare_three_way(cols(a), cols(a) + depth,
                                                 cols(b), cols(b) + depth);
    }
    if (c == 0) c = ea.terms <=> eb.terms;
    for (std::size_t mu = ea.terms; c == 0 && stride != 0 && mu-- > 0;)
      c = kcs(a)[mu] <=> kcs(b)[mu];
    return c;
  };
  sc.order.clear();
  for (std::size_t i = 0; i < count; ++i)
    if (sc.entries[i].terms != 0) sc.order.push_back(i);
  std::sort(sc.order.begin(), sc.order.end(),
            [&](std::size_t a, std::size_t b) {
              if (const auto c = group_order(a, b); c != 0) return c < 0;
              return std::pair(cols(a)[depth], a) <
                     std::pair(cols(b)[depth], b);
            });
  sc.group_a.resize(terms);
  sc.fan_blocks.resize(count * terms);
  sc.fan_start.resize(count + 1);
  sc.fan_targets.resize(count);
  BatchGemmStats& st = ws.stats();
  for (std::size_t pos = 0; pos < sc.order.size();) {
    const std::size_t li = sc.order[pos];
    const auto& lead = sc.entries[li];
    const std::size_t t = lead.terms;
    if (table != 0 && lead.src != rec.copied) {
      rec.copy.assign(lead.src, lead.src + size);
      rec.copied = lead.src;
    }
    // Each term's prefix: recompute modes 0..d-2 from the first whose
    // (src, kc, block) differs from the record's. The record keeps blocks,
    // not columns: a term's stack depends on that term's blocks alone.
    std::size_t stacked = 0;
    for (std::size_t mu = 0; mu < t; ++mu) {
      const std::size_t kc = kcs(li)[mu];
      const double* const* row = blocks + mu * width;
      const double** held = rec.blocks.data() + mu * depth;
      std::size_t m = 0;
      if (rec.src[mu] == lead.src && rec.kc[mu] == kc) {
        while (m < depth && held[m] == row[cols(li)[m]]) ++m;
      }
      rec.src[mu] = lead.src;
      rec.kc[mu] = kc;
      for (; m < depth; ++m) {
        held[m] = row[cols(li)[m]];
        run_packed(g_store, rest, k, kc, node(mu, m),
                   m == 0 ? lead.src : node(mu, m - 1), held[m], ws);
        ++st.prefix_nodes;
      }
      sc.group_a[mu] = depth == 0 ? lead.src : node(mu, depth - 1);
      stacked += kc;
    }
    // The group's slots: its distinct last columns, up to the fan-out
    // limit; the order keeps each slot's items (its targets) adjacent.
    const std::size_t cap = fan_out_limit(k);
    std::size_t n = 0;
    std::size_t end = pos;
    for (; end < sc.order.size(); ++end) {
      const std::size_t item = sc.order[end];
      if (end > pos && group_order(li, item) != 0) break;
      if (end == pos || cols(item)[depth] != cols(sc.order[end - 1])[depth]) {
        if (n == cap) break;
        for (std::size_t mu = 0; mu < t; ++mu)
          sc.fan_blocks[n * t + mu] = blocks[mu * width + cols(item)[depth]];
        sc.fan_start[n++] = end - pos;
      }
      sc.fan_targets[end - pos] = sc.entries[item].result;
    }
    sc.fan_start[n] = end - pos;
    // Last mode: one packed pass over the stacked terms of the n slots,
    // adding each product into its results from the tile's registers.
    run_fan_out({rest, k, t, kcs(li), sc.group_a.data(),
                 lead.coeffs, sc.fan_blocks.data(), n, sc.fan_start.data(),
                 sc.fan_targets.data()},
                stacked, ws);
    st.prefix_nodes += n * t;
    pos = end;
  }
  st.fused_chains += count;
}

}  // namespace

void batch_fused_apply(std::size_t d, std::size_t k, const BlockTable& table,
                       std::span<const double> coeffs,
                       std::span<const std::size_t> kcap,
                       std::span<const DisplacementItem> items,
                       GemmWorkspace& ws) {
  MH_CHECK(d >= 1 && k >= 1, "fused apply needs d, k >= 1");
  const std::size_t terms = coeffs.size();
  MH_CHECK(kcap.empty() || kcap.size() == terms,
           "kcap must be empty or one per term");
  GemmWorkspace::ShareScratch& sc = ws.share_scratch();
  const bool ranked = table.ranks != nullptr;
  sc.entries.resize(items.size());
  sc.cols.resize(items.size() * d);
  sc.kc.resize(ranked ? items.size() * terms : terms);
  for (std::size_t mu = 0; !ranked && mu < terms; ++mu)
    sc.kc[mu] = kcap.empty() ? k : std::min(kcap[mu], k);
  const auto width = static_cast<std::int64_t>(table.width);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const DisplacementItem& item = items[i];
    sc.entries[i] = {item.src, item.result, coeffs.data(), terms, 0};
    std::size_t* cols = sc.cols.data() + i * d;
    for (std::size_t m = 0; m < d; ++m) {
      const std::int64_t c = table.origin + item.disp[m];
      MH_CHECK(c >= 0 && c < width, "displacement outside the block table");
      cols[m] = static_cast<std::size_t>(c);
    }
    // Each term contracts its least rank over the item's d blocks.
    for (std::size_t mu = 0; ranked && mu < terms; ++mu) {
      const std::size_t* ranks = table.ranks + mu * table.width;
      std::size_t kc = kcap.empty() ? k : std::min(kcap[mu], k);
      for (std::size_t m = 0; m < d; ++m) kc = std::min(kc, ranks[cols[m]]);
      sc.kc[i * terms + mu] = kc;
    }
  }
  walk(d, k, table.blocks, table.width, table.id, ranked ? terms : 0, ws);
}

void batch_fused_apply(std::size_t d, std::size_t k,
                       std::span<const FusedApplyItem> items,
                       GemmWorkspace& ws) {
  MH_CHECK(d >= 1 && k >= 1, "fused apply needs d, k >= 1");
  std::size_t terms = 0;
  bool ranked = false;
  for (const FusedApplyItem& item : items) {
    const std::size_t t = item.coeffs.size();
    MH_CHECK(item.mats.size() == t * d, "need terms*d operator blocks");
    MH_CHECK(item.kreds.empty() || item.kreds.size() == t,
             "kreds must be empty or one per term");
    for (const GemmMat& h : item.mats)
      MH_CHECK(h.rows == k && h.cols == k, "apply blocks must be (k, k)");
    terms = std::max(terms, t);
    ranked = ranked || !item.kreds.empty();
  }
  GemmWorkspace::ShareScratch& sc = ws.share_scratch();
  sc.entries.resize(items.size());
  sc.kc.assign(ranked ? items.size() * terms : terms, k);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const FusedApplyItem& item = items[i];
    const std::size_t t = item.coeffs.size();
    sc.entries[i] = {item.src, item.result, item.coeffs.data(), t, 0};
    for (std::size_t mu = 0; ranked && mu < t; ++mu) {
      sc.kc[i * terms + mu] =
          item.kreds.empty() ? k : std::min(item.kreds[mu], k);
    }
  }
  // An item's blocks of one mode are a tuple (nullptr past its terms); the
  // call's distinct tuples are the columns of a per-call table, numbered in
  // address order, the blocks' only identity. Tuples that share term 0's
  // block are almost always equal, so such a run is sorted only when not.
  using Tuple = GemmWorkspace::ShareScratch::Tuple;
  const auto block = [d](const Tuple& x, std::size_t mu) {
    return mu < x.terms ? x.blocks[mu * d].ptr : nullptr;
  };
  const std::less<const double*> before;
  const auto tuple_less = [&](const Tuple& a, const Tuple& b) {
    std::size_t mu = 0;
    while (mu < terms && block(a, mu) == block(b, mu)) ++mu;
    return mu < terms && before(block(a, mu), block(b, mu));
  };
  const auto same = [d](const Tuple& a, const Tuple& b) {
    if (a.terms != b.terms) return false;
    for (std::size_t mu = 0; mu < a.terms; ++mu)
      if (a.blocks[mu * d].ptr != b.blocks[mu * d].ptr) return false;
    return true;
  };
  sc.tuples.clear();
  for (std::size_t i = 0; i < items.size(); ++i) {
    for (std::size_t m = 0; m < d; ++m)
      sc.tuples.push_back(
          {items[i].mats.data() + m, items[i].coeffs.size(), i * d + m});
  }
  std::sort(sc.tuples.begin(), sc.tuples.end(),
            [&](const Tuple& a, const Tuple& b) {
              return before(block(a, 0), block(b, 0));
            });
  sc.cols.resize(sc.tuples.size());
  std::size_t width = 0;
  for (auto run = sc.tuples.begin(); run != sc.tuples.end();) {
    auto stop = run + 1;
    bool uniform = true;
    for (; stop != sc.tuples.end() && block(*stop, 0) == block(*run, 0);
         ++stop)
      uniform = uniform && same(*run, *stop);
    if (!uniform) std::sort(run, stop, tuple_less);
    for (auto x = run; x != stop; ++x) {
      if (x == run || (!uniform && !same(x[-1], *x))) ++width;
      sc.cols[x->at] = width - 1;
    }
    run = stop;
  }
  sc.table.resize(terms * width);
  for (std::size_t q = 0; q < sc.tuples.size(); ++q) {
    const std::size_t col = sc.cols[sc.tuples[q].at];
    if (q > 0 && col == sc.cols[sc.tuples[q - 1].at]) continue;
    for (std::size_t mu = 0; mu < terms; ++mu)
      sc.table[mu * width + col] = block(sc.tuples[q], mu);
  }
  walk(d, k, sc.table.data(), width, /*table=*/0, ranked ? terms : 0, ws);
}

}  // namespace mh::linalg
