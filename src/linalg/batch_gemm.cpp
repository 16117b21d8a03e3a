// Portable half of the batched small-GEMM engine: workspace, packing,
// same-order portable tile (used when AVX2 is absent), runtime kernel
// dispatch, and the fused transform/apply chains. Compiled with
// -ffp-contract=off so no path ever fuses multiply+add — the bitwise
// contract with the scalar reference kernels in gemm.cpp.
#include "linalg/batch_gemm.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/diagnostics.hpp"
#include "linalg/batch_gemm_kernels.hpp"

namespace mh::linalg {
namespace detail {
namespace {

// Tile epilogues, as in batch_gemm_avx2.cpp: where a finished accumulator
// element of block s (panel row r, column j) goes.

// mtxm: one block, c += acc, c already offset to the panel's first row.
struct AddInto {
  double* c;
  std::size_t ldc;

  void operator()(std::size_t, std::size_t r, std::size_t j,
                  double x) const {
    c[r * ldc + j] += x;
  }
};

// Fan-out: result += coeff * (0.0 + acc) for every target of block s.
struct ScaledAddInto {
  const std::size_t* start;
  const FanOutTarget* targets;
  std::size_t row0;
  std::size_t k;

  void operator()(std::size_t s, std::size_t r, std::size_t j,
                  double x) const {
    const double z = 0.0 + x;
    const std::size_t off = row0 + r * k + j;
    for (std::size_t t = start[s]; t < start[s + 1]; ++t)
      targets[t].result[off] += targets[t].coeff * z;
  }
};

void pack_panel(std::size_t kc, const double* a, std::size_t dimi,
                std::size_t i0, std::size_t rows, double* apack) {
  for (std::size_t k = 0; k < kc; ++k) {
    const double* ak = a + k * dimi + i0;
    double* p = apack + 4 * k;
    p[0] = ak[0];
    p[1] = rows > 1 ? ak[1] : 0.0;
    p[2] = rows > 2 ? ak[2] : 0.0;
    p[3] = rows > 3 ? ak[3] : 0.0;
  }
}

// Every tile of one packed panel across n (kc, width) blocks: each
// block's 4x8 and 4x4 tiles, then the columns left in every block as one
// run of column vectors.
template <class Epi>
void panel_tiles(std::size_t kc, const double* apack,
                 const double* const* blocks, std::size_t n,
                 std::size_t width, std::size_t rows, const Epi& epi) {
  const std::size_t tiled = width - width % 4;
  for (std::size_t s = 0; s < n; ++s) {
    const double* b = blocks[s];
    std::size_t j0 = 0;
    for (; j0 + 8 <= tiled; j0 += 8) {
      double acc[4][8] = {};
      for (std::size_t k = 0; k < kc; ++k) {
        const double* bk = b + k * width + j0;
        const double* apk = apack + 4 * k;
        for (std::size_t r = 0; r < 4; ++r) {
          const double av = apk[r];
          for (std::size_t t = 0; t < 8; ++t) acc[r][t] += av * bk[t];
        }
      }
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t t = 0; t < 8; ++t) epi(s, r, j0 + t, acc[r][t]);
    }
    if (j0 < tiled) {
      double acc[4][4] = {};
      for (std::size_t k = 0; k < kc; ++k) {
        const double* bk = b + k * width + j0;
        const double* apk = apack + 4 * k;
        for (std::size_t r = 0; r < 4; ++r) {
          const double av = apk[r];
          for (std::size_t t = 0; t < 4; ++t) acc[r][t] += av * bk[t];
        }
      }
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t t = 0; t < 4; ++t) epi(s, r, j0 + t, acc[r][t]);
    }
  }
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t j = tiled; j < width; ++j) {
      double acc[4] = {};
      for (std::size_t k = 0; k < kc; ++k) {
        for (std::size_t r = 0; r < 4; ++r)
          acc[r] += apack[4 * k + r] * blocks[s][k * width + j];
      }
      for (std::size_t r = 0; r < rows; ++r) epi(s, r, j, acc[r]);
    }
  }
}

// Packs each 4-row panel of a once and runs it over all n blocks;
// epi_at(i0) is the epilogue of the panel whose first row is i0.
template <class EpiAt>
void panels(std::size_t dimi, std::size_t kc, const double* a,
            const double* const* blocks, std::size_t n, std::size_t width,
            double* apack, const EpiAt& epi_at) {
  for (std::size_t i0 = 0; i0 < dimi; i0 += 4) {
    const std::size_t rows = std::min<std::size_t>(4, dimi - i0);
    pack_panel(kc, a, dimi, i0, rows, apack);
    panel_tiles(kc, apack, blocks, n, width, rows, epi_at(i0));
  }
}

}  // namespace

// Portable mirror of the AVX2 macro/micro structure in batch_gemm_avx2.cpp:
// identical packing, identical 4x8 / 4x4 / column-vector tail tiling,
// identical per-element operation order — only the vector ISA differs, so
// the two kernels agree bitwise and either can serve as the dispatch target.
void mtxm_portable(std::size_t dimi, std::size_t dimj, std::size_t kc,
                   double* c, const double* a, const double* b,
                   double* apack) {
  panels(dimi, kc, a, &b, 1, dimj, apack,
         [&](std::size_t i0) { return AddInto{c + i0 * dimj, dimj}; });
}

void fan_out_portable(std::size_t dimi, std::size_t k, std::size_t kc,
                      const double* a, const double* const* blocks,
                      std::size_t n, const std::size_t* start,
                      const FanOutTarget* targets, double* apack) {
  panels(dimi, kc, a, blocks, n, k, apack, [&](std::size_t i0) {
    return ScaledAddInto{start, targets, i0 * k, k};
  });
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

// Central packed-GEMM call: every engine entry point funnels through here.
void run_packed(std::size_t dimi, std::size_t dimj, std::size_t kc, double* c,
                const double* a, const double* b, GemmWorkspace& ws) {
  if (dimi == 0 || dimj == 0) return;
  double* apack = ws.pack_a(4 * std::max<std::size_t>(kc, 1));
  g_kernel(dimi, dimj, kc, c, a, b, apack);
  ws.stats().packed_gemms += 1;
}

// batch_fused_apply's last mode: one packed-GEMM call, counted like
// run_packed's, over n blocks and their slot lists (see the kernel header).
void run_fan_out(std::size_t dimi, std::size_t k, std::size_t kc,
                 const double* a, const double* const* blocks, std::size_t n,
                 const std::size_t* start, const FanOutTarget* targets,
                 GemmWorkspace& ws) {
  double* apack = ws.pack_a(4 * std::max<std::size_t>(kc, 1));
  g_fan_out(dimi, k, kc, a, blocks, n, start, targets, apack);
  ws.stats().packed_gemms += 1;
}

std::size_t span_product(std::span<const std::size_t> shape) {
  std::size_t n = 1;
  for (std::size_t s : shape) n *= s;
  return n;
}

}  // namespace

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
  run_packed(dimi, dimj, std::min(kred, dimk), c, a, b, ws);
}

std::size_t chain_output_size(std::span<const std::size_t> shape,
                              std::span<const GemmMat> mats) {
  MH_CHECK(mats.size() <= shape.size(),
           "transform chain longer than tensor rank");
  std::size_t size = span_product(shape);
  for (std::size_t m = 0; m < mats.size(); ++m) {
    MH_CHECK(mats[m].rows == shape[m], "contraction extent mismatch");
    size = size / mats[m].rows * mats[m].cols;
  }
  return size;
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
    std::memset(dst, 0, osize * sizeof(double));
    run_packed(rest, cols, std::min(kred, rows), dst, cur, mats[m].ptr, ws);
    cur = dst;
    cursize = osize;
  }
}

void fused_apply_chain(std::size_t d, std::size_t k, const double* src,
                       std::span<const GemmMat> mats,
                       std::span<const double> coeffs,
                       std::span<const std::size_t> kreds, double* result,
                       GemmWorkspace& ws) {
  const FusedApplyItem item{src, mats, coeffs, kreds, result};
  batch_fused_apply(d, k, {&item, 1}, ws);
}

void batch_fused_apply(std::size_t d, std::size_t k,
                       std::span<const FusedApplyItem> items,
                       GemmWorkspace& ws) {
  MH_CHECK(d >= 1 && k >= 1, "fused apply needs d, k >= 1");
  std::size_t terms = 0;
  for (const FusedApplyItem& item : items) {
    const std::size_t t = item.coeffs.size();
    MH_CHECK(item.mats.size() == t * d, "need terms*d operator blocks");
    MH_CHECK(item.kreds.empty() || item.kreds.size() == t,
             "kreds must be empty or one per term");
    for (const GemmMat& h : item.mats)
      MH_CHECK(h.rows == k && h.cols == k, "apply blocks must be (k, k)");
    terms = std::max(terms, t);
  }
  std::size_t size = 1;
  for (std::size_t m = 0; m < d; ++m) size *= k;
  const std::size_t rest = size / k;
  // Most distinct last blocks one fan-out group can hold.
  const std::size_t widest =
      std::min(fan_out_limit(k), std::max<std::size_t>(items.size(), 1));
  // All buffers are sized up front, so no ensure() moves data in use.
  // stack + m*size holds the current mode-0..m intermediate, m < d - 1.
  double* stack = ws.prefix((d - 1) * size);
  // Sharing key of an item for the current term: (src, kc, d block
  // pointers). Items sharing the first j + 2 words share the mode-0..j-1
  // intermediate; the first d + 1 words name the fan-out group.
  const std::size_t width = d + 2;
  GemmWorkspace::ShareScratch& sc = ws.share_scratch();
  sc.keys.resize(items.size() * width);
  sc.fan_blocks.resize(widest);
  sc.fan_slot.resize(items.size());
  sc.fan_start.resize(widest + 2);
  sc.fan_targets.resize(items.size());
  sc.kc_start.resize(k + 2);
  const auto row = [&](std::size_t i) { return sc.keys.data() + i * width; };
  const auto fill_key = [&](std::size_t i, std::size_t mu) {
    const FusedApplyItem& item = items[i];
    std::uintptr_t* key = row(i);
    key[0] = reinterpret_cast<std::uintptr_t>(item.src);
    key[1] = item.kreds.empty() ? k : std::min(item.kreds[mu], k);
    for (std::size_t m = 0; m < d; ++m)
      key[2 + m] = reinterpret_cast<std::uintptr_t>(item.mats[mu * d + m].ptr);
  };
  // One ordering per call, by src and term-0 blocks but not kc, which may
  // differ per term. It keeps every term's equal prefixes adjacent when
  // the blocks are a function of per-mode identities (see the header).
  sc.order.clear();
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].coeffs.empty()) continue;
    fill_key(i, 0);
    sc.order.push_back(i);
  }
  std::sort(sc.order.begin(), sc.order.end(),
            [&](std::size_t a, std::size_t b) {
              const std::uintptr_t* ka = row(a);
              const std::uintptr_t* kb = row(b);
              if (ka[0] != kb[0]) return ka[0] < kb[0];
              return std::lexicographical_compare(ka + 2, ka + width, kb + 2,
                                                  kb + width);
            });
  sc.term_order.resize(sc.order.size());
  BatchGemmStats& st = ws.stats();
  for (std::size_t mu = 0; mu < terms; ++mu) {
    // Regroup the call's order by kc, stably (a counting pass), so items
    // of equal kc stay in that order.
    std::fill(sc.kc_start.begin(), sc.kc_start.end(), 0);
    for (const std::size_t i : sc.order) {
      if (mu >= items[i].coeffs.size()) continue;
      fill_key(i, mu);
      ++sc.kc_start[row(i)[1] + 1];
    }
    for (std::size_t c = 1; c <= k + 1; ++c)
      sc.kc_start[c] += sc.kc_start[c - 1];
    const std::size_t count = sc.kc_start[k + 1];
    for (const std::size_t i : sc.order) {
      if (mu < items[i].coeffs.size())
        sc.term_order[sc.kc_start[row(i)[1]]++] = i;
    }
    const std::uintptr_t* prev = nullptr;
    for (std::size_t pos = 0; pos < count;) {
      const FusedApplyItem& lead = items[sc.term_order[pos]];
      const std::uintptr_t* key = row(sc.term_order[pos]);
      const std::size_t kc = key[1];
      // Recompute modes 0..d-2 from the first whose prefix differs from the
      // previous group's: w key words shared cover w - 2 modes.
      std::size_t w = 0;
      while (prev != nullptr && w + 1 < width && key[w] == prev[w]) ++w;
      for (std::size_t m = w < 2 ? 0 : w - 2; m + 1 < d; ++m) {
        const double* cur = m == 0 ? lead.src : stack + (m - 1) * size;
        double* dst = stack + m * size;
        std::memset(dst, 0, size * sizeof(double));
        run_packed(rest, k, kc, dst, cur, lead.mats[mu * d + m].ptr, ws);
        ++st.prefix_nodes;
      }
      // The fan-out group: the following items below the same mode-(d-2)
      // node, up to `widest` distinct last blocks; duplicates share a
      // slot.
      std::size_t n = 0;
      std::size_t end = pos;
      for (; end < count; ++end) {
        const std::size_t i = sc.term_order[end];
        if (std::memcmp(row(i), key, (width - 1) * sizeof(std::uintptr_t)))
          break;
        const double* h = items[i].mats[mu * d + d - 1].ptr;
        std::size_t slot = 0;
        while (slot < n && sc.fan_blocks[slot] != h) ++slot;
        if (slot == n) {
          if (n == widest) break;
          sc.fan_blocks[n++] = h;
        }
        sc.fan_slot[end - pos] = slot;
      }
      // Each block's slot list: the items that read it, grouped by slot
      // with a counting pass that leaves fan_start[s] at slot s's start.
      std::fill_n(sc.fan_start.begin(), n + 2, 0);
      for (std::size_t q = pos; q < end; ++q)
        ++sc.fan_start[sc.fan_slot[q - pos] + 2];
      for (std::size_t s = 2; s < n + 2; ++s)
        sc.fan_start[s] += sc.fan_start[s - 1];
      for (std::size_t q = pos; q < end; ++q) {
        const FusedApplyItem& item = items[sc.term_order[q]];
        sc.fan_targets[sc.fan_start[sc.fan_slot[q - pos] + 1]++] = {
            item.result, item.coeffs[mu]};
      }
      // Last mode: one packed pass over the n blocks in place, adding
      // coeffs[mu] * chain into each result from the tile's registers.
      const double* cur = d == 1 ? lead.src : stack + (d - 2) * size;
      run_fan_out(rest, k, kc, cur, sc.fan_blocks.data(), n,
                  sc.fan_start.data(), sc.fan_targets.data(), ws);
      st.prefix_nodes += n;
      prev = key;
      pos = end;
    }
  }
  st.fused_chains += items.size();
}

}  // namespace mh::linalg
