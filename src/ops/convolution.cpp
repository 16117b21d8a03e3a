#include "ops/convolution.hpp"

#include <algorithm>
#include <cmath>

#include "common/diagnostics.hpp"
#include "linalg/gemm.hpp"
#include "mra/legendre.hpp"
#include "mra/quadrature.hpp"
#include "mra/twoscale.hpp"

namespace mh::ops {
namespace {

// Quadrature orders for the block integrals. The outer integral is
// panelized for sharp Gaussians (transition layers of width 1/sqrt(beta)
// at the panel ends), the inner one is windowed around the Gaussian.
constexpr std::size_t kInnerOrder = 24;
constexpr std::size_t kOuterOrder = 20;

/// A non-owning handle on a table entry: the aliasing constructor over an
/// empty owner touches no reference count. Valid as long as the operator.
std::shared_ptr<const Tensor> borrowed(const Tensor& t) {
  return {std::shared_ptr<const Tensor>(), &t};
}

/// The calling thread's hit counter of the operator it used last, and of
/// every operator it has used, keyed by serial (never reused, so an entry
/// of a destroyed operator is never matched). The last one is two plain
/// thread-locals: the lookup path reads them without a TLS guard.
thread_local std::uint64_t last_serial = 0;
thread_local std::atomic<std::size_t>* last_hits = nullptr;
thread_local std::vector<std::pair<std::uint64_t, std::atomic<std::size_t>*>>
    all_hits;

/// The calling thread's row of ranks for one (level table, tolerance):
/// ranks[mu * width + c] for every column c with filled[c] set.
struct RankRow {
  std::uint64_t table = 0;
  double tol = 0.0;
  std::vector<unsigned char> filled;
  std::vector<std::size_t> ranks;
  std::vector<std::int64_t> fresh;  ///< a call's columns not yet filled
};
thread_local RankRow rank_row;

/// The distinct displacement components `items` read in their `d` modes,
/// each within the table's `width` columns around 0; a per-thread list
/// valid until the calling thread's next call.
const std::vector<std::int64_t>& components(
    std::span<const linalg::DisplacementItem> items, std::size_t d,
    std::size_t width) {
  thread_local std::vector<unsigned char> seen;
  thread_local std::vector<std::int64_t> out;
  const auto reach = static_cast<std::int64_t>(width / 2);
  seen.assign(width, 0);
  out.clear();
  for (const linalg::DisplacementItem& item : items) {
    for (std::size_t dim = 0; dim < d; ++dim) {
      const std::int64_t m = item.disp[dim];
      MH_CHECK(m >= -reach && m <= reach,
               "displacement outside the operator table");
      unsigned char& s = seen[static_cast<std::size_t>(m + reach)];
      if (s == 0) out.push_back(m);
      s = 1;
    }
  }
  return out;
}

}  // namespace

Tensor gaussian_block(std::size_t k, double beta, std::int64_t m) {
  MH_CHECK(k >= 1, "basis size must be positive");
  MH_CHECK(beta > 0.0, "gaussian exponent must be positive");
  Tensor block({k, k});  // block(j, i)

  const double width = 1.0 / std::sqrt(beta);
  // Beyond |u - v + m| > 6.07 widths the Gaussian is < 1e-16.
  const double window = 6.07 * width;
  // Quick reject: the closest approach of (u - v + m) for u,v in [0,1] is
  // |m| - 1 (adjacent boxes touch at 0).
  const double closest = std::max(0.0, std::abs(static_cast<double>(m)) - 1.0);
  if (closest > window) return block;  // all zero

  const auto& inner_rule = mra::gauss_legendre(kInnerOrder);
  const auto& outer_rule = mra::gauss_legendre(kOuterOrder);

  // Panelize the outer (v) integral so the error-function transition layers
  // of sharp Gaussians are resolved: panel size ~ a few Gaussian widths.
  const std::size_t panels = static_cast<std::size_t>(std::clamp(
      std::ceil(1.0 / (4.0 * width)), 1.0, 64.0));

  std::vector<double> phi_j(k), phi_i(k), inner(k);
  for (std::size_t p = 0; p < panels; ++p) {
    const double v_lo = static_cast<double>(p) / static_cast<double>(panels);
    const double v_len = 1.0 / static_cast<double>(panels);
    for (std::size_t qv = 0; qv < kOuterOrder; ++qv) {
      const double v = v_lo + v_len * outer_rule.x[qv];
      const double wv = v_len * outer_rule.w[qv];

      // Inner integral over u restricted to the Gaussian window around
      // u = v - m, panelized so sharp Gaussians stay resolved.
      const double center = v - static_cast<double>(m);
      const double u_lo = std::max(0.0, center - window);
      const double u_hi = std::min(1.0, center + window);
      if (u_lo >= u_hi) continue;
      const std::size_t ipanels = static_cast<std::size_t>(std::clamp(
          std::ceil((u_hi - u_lo) / (2.5 * width)), 1.0, 8.0));

      std::fill(inner.begin(), inner.end(), 0.0);
      for (std::size_t ip = 0; ip < ipanels; ++ip) {
        const double p_lo =
            u_lo + (u_hi - u_lo) * static_cast<double>(ip) /
                       static_cast<double>(ipanels);
        const double p_len = (u_hi - u_lo) / static_cast<double>(ipanels);
        for (std::size_t qu = 0; qu < kInnerOrder; ++qu) {
          const double u = p_lo + p_len * inner_rule.x[qu];
          const double w = u - v + static_cast<double>(m);
          const double g = std::exp(-beta * w * w);
          if (g < 1e-300) continue;
          mra::legendre_scaling(u, phi_i);
          const double f = p_len * inner_rule.w[qu] * g;
          for (std::size_t i = 0; i < k; ++i) inner[i] += f * phi_i[i];
        }
      }

      mra::legendre_scaling(v, phi_j);
      for (std::size_t j = 0; j < k; ++j) {
        const double fj = wv * phi_j[j];
        if (fj == 0.0) continue;
        double* row = block.data() + j * k;
        for (std::size_t i = 0; i < k; ++i) row[i] += fj * inner[i];
      }
    }
  }
  return block;
}

SeparatedConvolution::SeparatedConvolution(Params params,
                                           SeparatedKernel kernel)
    : params_(params), kernel_(std::move(kernel)) {
  MH_CHECK(params_.ndim >= 1 && params_.ndim <= kMaxTensorDim,
           "operator order out of range");
  MH_CHECK(params_.k >= 1, "basis size must be positive");
  MH_CHECK(!kernel_.terms.empty(), "kernel must have at least one term");
  MH_CHECK(params_.max_disp >= 1, "displacement cap must be positive");
  reach_ = 2 * params_.max_disp + 1;
  width_ = static_cast<std::size_t>(2 * reach_ + 1);
  for (const auto& term : kernel_.terms) coeffs_.push_back(term.coeff);
}

std::size_t SeparatedConvolution::Block::rank_for(double tol) const {
  std::size_t r = h.dim(0);
  while (r > 1 && tail[r - 1] < tol) --r;
  return r;
}

SeparatedConvolution::Level& SeparatedConvolution::level(int n) const {
  MH_CHECK(n >= 0 && n < kLevels, "operator level out of range");
  auto& entry = levels_[static_cast<std::size_t>(n)];
  if (Level* l = entry.get()) return *l;
  std::scoped_lock lock(mu_);
  if (Level* l = entry.get()) return *l;
  return entry.publish(std::make_unique<Level>(rank() * width_));
}

std::size_t SeparatedConvolution::index(std::size_t mu, std::int64_t m) const {
  MH_CHECK(mu < rank(), "term index out of range");
  MH_CHECK(m >= -reach_ && m <= reach_,
           "displacement outside the operator table");
  return mu * width_ + static_cast<std::size_t>(m + reach_);
}

SeparatedConvolution::Slot& SeparatedConvolution::slot(const Level& level,
                                                       std::size_t mu,
                                                       std::int64_t m) const {
  return level.slot[index(mu, m)];
}

const SeparatedConvolution::Block& SeparatedConvolution::block(
    const Level& level, std::size_t mu, int n, std::int64_t m,
    std::size_t& hits) const {
  auto& entry = slot(level, mu, m).block;
  if (const Block* b = entry.get()) return ++hits, *b;
  std::scoped_lock lock(mu_);
  if (const Block* b = entry.get()) return ++hits, *b;
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto b = std::make_unique<Block>();
  b->h = gaussian_block(params_.k,
                        kernel_.terms[mu].exponent * std::pow(4.0, -n), m);
  b->h.scale(std::pow(2.0, -n));
  // Truncation norms from the largest corner down: shrinking from r to r-1
  // drops row r-1 and column r-1 of the leading r x r corner.
  const std::size_t k = params_.k;
  b->tail.assign(k, b->h.normf());
  double outside2 = 0.0;
  for (std::size_t r = k; r > 1; --r) {
    double add2 = 0.0;
    for (std::size_t i = 0; i < r; ++i) {
      const double row = b->h.at({r - 1, i});
      add2 += row * row;
    }
    for (std::size_t j = 0; j + 1 < r; ++j) {
      const double col = b->h.at({j, r - 1});
      add2 += col * col;
    }
    b->tail[r - 1] = std::sqrt(outside2 + add2);
    outside2 += add2;
  }
  level.h[index(mu, m)] = b->h.data();
  return entry.publish(std::move(b));
}

void SeparatedConvolution::count_hits(std::size_t hits) const {
  if (hits == 0) return;
  if (last_serial != serial_) {
    auto it = std::find_if(
        all_hits.rbegin(), all_hits.rend(),
        [this](const auto& e) { return e.first == serial_; });
    if (it == all_hits.rend()) {
      std::scoped_lock lock(hits_mu_);
      all_hits.emplace_back(
          serial_, &hits_.emplace_back(std::make_unique<HitCounter>())->hits);
      it = all_hits.rbegin();
    }
    last_serial = serial_;
    last_hits = it->second;
  }
  last_hits->store(last_hits->load(std::memory_order_relaxed) + hits,
                   std::memory_order_relaxed);
}

const SeparatedConvolution::Block& SeparatedConvolution::lookup(
    std::size_t mu, int n, std::int64_t m) const {
  std::size_t hits = 0;
  const Block& b = block(level(n), mu, n, m, hits);
  count_hits(hits);
  return b;
}

std::shared_ptr<const Tensor> SeparatedConvolution::h_block(
    std::size_t mu, int n, std::int64_t m) const {
  return borrowed(lookup(mu, n, m).h);
}

double SeparatedConvolution::h_block_norm(std::size_t mu, int n,
                                          std::int64_t m) const {
  return lookup(mu, n, m).tail[0];
}

std::shared_ptr<const Tensor> SeparatedConvolution::ns_block(
    std::size_t mu, int n, std::int64_t m, NsPart part) const {
  const Level& lvl = level(n);
  const std::size_t p = part == NsPart::kFull ? 0 : 1;
  auto& entry = slot(lvl, mu, m).ns[p];
  if (const Tensor* t = entry.get()) return borrowed(*t);
  std::scoped_lock lock(mu_);
  if (const Tensor* t = entry.get()) return borrowed(*t);

  const std::size_t k = params_.k;
  const std::size_t n2 = 2 * k;
  // M in the level-(n+1) children basis: block (source child b, output
  // child a) is the child-level block at image displacement 2m + a - b.
  // Layout everywhere: (source row, output column).
  const Level& children = level(n + 1);
  std::size_t hits = 0;
  Tensor mmat({n2, n2});
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t a = 0; a < 2; ++a) {
      const std::int64_t child_m = 2 * m + static_cast<std::int64_t>(a) -
                                   static_cast<std::int64_t>(b);
      const Tensor& blk = block(children, mu, n + 1, child_m, hits).h;
      for (std::size_t j = 0; j < k; ++j) {
        for (std::size_t i = 0; i < k; ++i) {
          mmat.at({b * k + j, a * k + i}) = blk.at({j, i});
        }
      }
    }
  }
  count_hits(hits);

  // U = W M W^T: rotate both indices into the combined {phi, psi} basis.
  const mra::TwoScaleCoeffs& ts = mra::two_scale(k);
  Tensor tmp({n2, n2});  // W M
  linalg::mxm(n2, n2, n2, tmp.data(), ts.w.data(), mmat.data());
  Tensor u({n2, n2});  // (W M) W^T
  linalg::mxmT(n2, n2, n2, u.data(), tmp.data(), ts.w.data());

  if (part == NsPart::kSsOnly) {
    // Keep only the scaling->scaling quadrant (the level-(n-1) overlap the
    // telescoping subtracts).
    for (std::size_t j = 0; j < n2; ++j) {
      for (std::size_t i = 0; i < n2; ++i) {
        if (j >= k || i >= k) u.at({j, i}) = 0.0;
      }
    }
  }
  auto t = std::make_unique<const Tensor>(std::move(u));
  lvl.ns[p * rank() * width_ + index(mu, m)] = t->data();
  return borrowed(entry.publish(std::move(t)));
}

std::size_t SeparatedConvolution::reduced_rank(std::size_t mu, int n,
                                               std::int64_t m,
                                               double tol) const {
  MH_CHECK(tol > 0.0, "rank tolerance must be positive");
  return lookup(mu, n, m).rank_for(tol);
}

linalg::BlockTable SeparatedConvolution::h_table(
    int n, std::span<const linalg::DisplacementItem> items,
    double rank_tol) const {
  const Level& lvl = level(n);
  RankRow& row = rank_row;
  if (row.table != lvl.h_id || row.tol != rank_tol) {
    row.table = lvl.h_id;
    row.tol = rank_tol;
    row.filled.assign(width_, 0);
    if (rank_tol > 0.0) row.ranks.resize(rank() * width_);
  }
  // The items' columns this thread has not looked up under this key, in
  // first-read order; each is marked filled only once all its terms are.
  row.fresh.clear();
  for (const linalg::DisplacementItem& item : items) {
    for (std::size_t dim = 0; dim < params_.ndim; ++dim) {
      const std::int64_t m = item.disp[dim];
      MH_CHECK(m >= -reach_ && m <= reach_,
               "displacement outside the operator table");
      if (row.filled[static_cast<std::size_t>(m + reach_)] == 0 &&
          std::find(row.fresh.begin(), row.fresh.end(), m) == row.fresh.end())
        row.fresh.push_back(m);
    }
  }
  std::size_t hits = 0;
  for (std::size_t mu = 0; mu < rank(); ++mu) {
    for (const std::int64_t m : row.fresh) {
      const Block& b = block(lvl, mu, n, m, hits);
      if (rank_tol > 0.0) row.ranks[index(mu, m)] = b.rank_for(rank_tol);
    }
  }
  for (const std::int64_t m : row.fresh)
    row.filled[static_cast<std::size_t>(m + reach_)] = 1;
  // Each item reads rank() * ndim blocks (and as many ranks): every read
  // but this call's first fills (the misses above) is a hit.
  const std::size_t reads = items.size() * rank() * params_.ndim;
  const std::size_t misses = rank() * row.fresh.size() - hits;
  count_hits(reads - misses + (rank_tol > 0.0 ? reads : 0));
  return {lvl.h.get(), width_, reach_,
          rank_tol > 0.0 ? row.ranks.data() : nullptr, lvl.h_id};
}

linalg::BlockTable SeparatedConvolution::ns_table(
    int n, std::span<const linalg::DisplacementItem> items) const {
  const std::vector<std::int64_t>& read =
      components(items, params_.ndim, width_);
  for (std::size_t mu = 0; mu < rank(); ++mu) {
    for (const std::int64_t m : read) {
      ns_block(mu, n, m, NsPart::kFull);
      if (n > 0) ns_block(mu, n, m, NsPart::kSsOnly);
    }
  }
  const Level& lvl = level(n);
  return {lvl.ns.get(), width_, reach_, nullptr, lvl.ns_id};
}

const std::vector<Displacement>& SeparatedConvolution::displacements(
    int n) const {
  Level& lvl = level(n);
  if (const auto* disps = lvl.displacements.get()) return *disps;
  std::scoped_lock lock(mu_);
  if (const auto* disps = lvl.displacements.get()) return *disps;

  const std::size_t d = params_.ndim;
  const std::int64_t cap = params_.max_disp;
  // 1-D screening norms: sum over terms of |c_mu| * block norm, per |m|.
  std::size_t hits = 0;
  std::vector<double> norm1d(static_cast<std::size_t>(cap) + 1, 0.0);
  for (std::int64_t m = 0; m <= cap; ++m) {
    for (std::size_t mu = 0; mu < kernel_.rank(); ++mu) {
      norm1d[static_cast<std::size_t>(m)] +=
          std::abs(kernel_.terms[mu].coeff) *
          block(lvl, mu, n, m, hits).tail[0];
    }
  }
  count_hits(hits);

  std::vector<Displacement> out;
  // Enumerate the lattice [-cap, cap]^d with product screening: the operator
  // contribution of displacement (m_1..m_d) is bounded by the product of the
  // per-dimension screened norms (all terms folded into norm1d, which is an
  // upper bound on any single term's product factor mix).
  std::vector<std::int64_t> m(d, -cap);
  const double tol = params_.thresh;
  while (true) {
    double bound = 1.0;
    for (std::size_t dim = 0; dim < d; ++dim) {
      bound *= norm1d[static_cast<std::size_t>(std::llabs(m[dim]))];
    }
    bool zero = true;
    for (std::size_t dim = 0; dim < d; ++dim) zero = zero && m[dim] == 0;
    if (zero || bound > tol) {
      Displacement disp{};
      for (std::size_t dim = 0; dim < d; ++dim) disp[dim] = m[dim];
      out.push_back(disp);
    }
    std::size_t dim = 0;
    while (dim < d && ++m[dim] > cap) {
      m[dim] = -cap;
      ++dim;
    }
    if (dim == d) break;
  }
  // Component 0 slowest (see the header); components past d are zero.
  std::sort(out.begin(), out.end());
  return lvl.displacements.publish(
      std::make_unique<const std::vector<Displacement>>(std::move(out)));
}

CacheStats SeparatedConvolution::cache_stats() const {
  CacheStats stats{0, misses_.load(std::memory_order_relaxed)};
  std::scoped_lock lock(hits_mu_);
  for (const auto& counter : hits_)
    stats.hits += counter->hits.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace mh::ops
