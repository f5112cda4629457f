#include "native/real_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "core/fastmath.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/units.hpp"

namespace mdm::native {
namespace {

const double kTwoOverSqrtPi = 2.0 / std::sqrt(std::numbers::pi);
constexpr std::size_t kNoSkip = std::numeric_limits<std::size_t>::max();

}  // namespace

NativeRealKernel::NativeRealKernel(const Config& config)
    : cfg_(config), cells_(config.box, config.r_cut) {
  if (!(cfg_.box > 0.0) || !(cfg_.beta > 0.0) || !(cfg_.r_cut > 0.0))
    throw std::invalid_argument("NativeRealKernel: bad parameters");
  if (cfg_.r_cut > 0.5 * cfg_.box + 1e-12)
    throw std::invalid_argument("NativeRealKernel: r_cut must be <= L/2");
  cutoff2_ = cfg_.r_cut * cfg_.r_cut;
  if (cfg_.include_tosi_fumi) {
    if (cfg_.tosi_fumi.species_count > TosiFumiParameters::kMaxSpecies)
      throw std::invalid_argument("NativeRealKernel: too many species");
    inv_rho_ = 1.0 / cfg_.tosi_fumi.rho;
    if (cfg_.tf_shift_energy)
      for (int i = 0; i < cfg_.tosi_fumi.species_count; ++i)
        for (int j = 0; j < cfg_.tosi_fumi.species_count; ++j)
          shift_[i][j] = cfg_.tosi_fumi.pair_energy(i, j, cfg_.r_cut);
  }
}

/// One i particle against the contiguous slot range [jb, je), in two
/// stages over the worker's store (DESIGN.md §11):
///  1. filter: minimum image, r^2 and the cutoff test for every candidate;
///     in-range partners other than `skip` are packed in j order, the slot
///     in `idx` and dx, dy, dz, r^2 in the store lanes;
///  2. evaluate: the fused erfc/exp/Tosi-Fumi math on the packed pairs
///     only, overwriting the lanes with fx, fy, fz, virial and potential.
/// The Newton j-scatter and the per-i sums then walk the packed pairs in j
/// order. Out-of-range candidates contributed exact zeros before they were
/// dropped, so every sum is the one a masked full sweep would produce.
template <bool kNewton>
void NativeRealKernel::pair_range(double xi, double yi, double zi,
                                  double qi_ke, const double* cb,
                                  const double* c6r, const double* d8r,
                                  const double* shr, std::size_t jb,
                                  std::size_t je, std::size_t skip,
                                  double* jfx, double* jfy, double* jfz,
                                  double* lanes, std::uint32_t* idx,
                                  Acc& acc) const {
  const double box = cfg_.box;
  const double half = 0.5 * box;
  const double cutoff2 = cutoff2_;
  const double beta = cfg_.beta;
  const double inv_rho = inv_rho_;
  double* l_x = lanes;
  double* l_y = lanes + tmp_stride_;
  double* l_z = lanes + 2 * tmp_stride_;
  double* l_r2 = lanes + 3 * tmp_stride_;
  double* l_pot = lanes + 4 * tmp_stride_;

  // Stage 1. Every candidate writes slot m and advances m only when in
  // range (no data-dependent branch; m <= j - jb, inside the store).
  std::size_t m = 0;
  for (std::size_t j = jb; j < je; ++j) {
    // Minimum image by compare-blend: coordinates are wrapped into
    // [0, box), so one correction per axis suffices.
    double dx = xi - xs_[j];
    double dy = yi - ys_[j];
    double dz = zi - zs_[j];
    dx += dx < -half ? box : 0.0;
    dx -= dx > half ? box : 0.0;
    dy += dy < -half ? box : 0.0;
    dy -= dy > half ? box : 0.0;
    dz += dz < -half ? box : 0.0;
    dz -= dz > half ? box : 0.0;
    const double r2 = dx * dx + dy * dy + dz * dz;
    idx[m] = static_cast<std::uint32_t>(j);
    l_x[m] = dx;
    l_y[m] = dy;
    l_z[m] = dz;
    l_r2[m] = r2;
    m += static_cast<std::size_t>((r2 < cutoff2) & (j != skip));
  }

  // Stage 2: in-range pairs only, so r > 0 and nothing needs masking.
  for (std::size_t p = 0; p < m; ++p) {
    const std::size_t j = idx[p];
    const double r2 = l_r2[p];
    const double r = std::sqrt(r2);
    const double inv_r = 1.0 / r;
    const double inv_r2 = inv_r * inv_r;
    // Ewald real space, eq. 2.
    const double bx = beta * r;
    const double eg = fastmath::fast_exp(-bx * bx);
    const double erfc = fastmath::erfc_from_exp(bx, eg);
    const double qq = qi_ke * qs_[j];
    const double pot_c = qq * erfc * inv_r;
    double s = (pot_c + qq * kTwoOverSqrtPi * bx * eg * inv_r) * inv_r2;
    // Tosi-Fumi short range, eq. 15 (coefficient rows are all-zero when the
    // kernel is Coulomb-only, so these lines contribute exactly 0).
    const double be = cb[j] * fastmath::fast_exp(-r * inv_rho);
    const double inv_r6 = inv_r2 * inv_r2 * inv_r2;
    const double inv_r8 = inv_r6 * inv_r2;
    s += be * inv_rho * inv_r - 6.0 * c6r[j] * inv_r8 -
         8.0 * d8r[j] * inv_r8 * inv_r2;
    l_pot[p] = pot_c + be - c6r[j] * inv_r6 - d8r[j] * inv_r8 - shr[j];
    l_x[p] *= s;
    l_y[p] *= s;
    l_z[p] *= s;
    l_r2[p] = s * r2;
  }

  if constexpr (kNewton) {
    for (std::size_t p = 0; p < m; ++p) {
      const std::size_t j = idx[p];
      jfx[j] -= l_x[p];
      jfy[j] -= l_y[p];
      jfz[j] -= l_z[p];
    }
  }
  for (std::size_t p = 0; p < m; ++p) {
    acc.fx += l_x[p];
    acc.fy += l_y[p];
    acc.fz += l_z[p];
    acc.pot += l_pot[p];
    acc.vir += l_r2[p];
  }
  acc.pairs += static_cast<double>(m);
}

void NativeRealKernel::prepare(const SoaParticles& soa) {
  const std::size_t n = soa.size();
  if (std::abs(soa.box - cfg_.box) > 1e-12)
    throw std::invalid_argument("NativeRealKernel: box mismatch");
  cells_.build_auto(soa.pos, cfg_.r_cut);
  n2_ = cells_.use_n2_fallback(cfg_.r_cut);
  xs_.resize(n);
  ys_.resize(n);
  zs_.resize(n);
  qs_.resize(n);
  ts_.resize(n);
  if (n2_) {
    // Slots are particle ids in the fallback traversal.
    std::copy(soa.x.begin(), soa.x.end(), xs_.begin());
    std::copy(soa.y.begin(), soa.y.end(), ys_.begin());
    std::copy(soa.z.begin(), soa.z.end(), zs_.begin());
    std::copy(soa.q.begin(), soa.q.end(), qs_.begin());
    std::copy(soa.type.begin(), soa.type.end(), ts_.begin());
  } else {
    const auto order = cells_.order();
    for (std::size_t s = 0; s < n; ++s) {
      const std::uint32_t id = order[s];
      xs_[s] = soa.x[id];
      ys_[s] = soa.y[id];
      zs_[s] = soa.z[id];
      qs_[s] = soa.q[id];
      ts_[s] = soa.type[id];
    }
  }
  // Coefficient rows depend only on the slot->type mapping: rebuild them
  // when that mapping changed (or on first use), not every step. Keying on
  // the gathered type stream itself — not on the cell rebuild — matters in
  // the parallel app, where migration and halo churn can swap which species
  // a slot holds without triggering a rebuild (the N^2 fallback never
  // rebuilds, and the half-skin check can miss a same-size set change).
  const int rows = std::max(1, cfg_.include_tosi_fumi
                                   ? cfg_.tosi_fumi.species_count
                                   : soa.species_count);
  const bool types_changed = ts_ != coef_ts_;
  if (types_changed || !coef_valid_ || rows != coef_rows_) {
    coef_rows_ = rows;
    cb_.resize(static_cast<std::size_t>(rows) * n);
    cc6_.resize(static_cast<std::size_t>(rows) * n);
    cd8_.resize(static_cast<std::size_t>(rows) * n);
    csh_.resize(static_cast<std::size_t>(rows) * n);
    for (int ti = 0; ti < rows; ++ti) {
      const std::size_t base = static_cast<std::size_t>(ti) * n;
      for (std::size_t s = 0; s < n; ++s) {
        const int tj = ts_[s];
        const bool tf = cfg_.include_tosi_fumi;
        cb_[base + s] = tf ? cfg_.tosi_fumi.born_prefactor[ti][tj] : 0.0;
        cc6_[base + s] = tf ? cfg_.tosi_fumi.c6[ti][tj] : 0.0;
        cd8_[base + s] = tf ? cfg_.tosi_fumi.d8[ti][tj] : 0.0;
        csh_[base + s] = tf ? shift_[ti][tj] : 0.0;
      }
    }
    coef_ts_ = ts_;
    coef_valid_ = true;
  }
}

void NativeRealKernel::ensure_scratch(std::size_t n, int chunks,
                                      unsigned workers) {
  // Stores must cover the longest j-range: a full row in N^2 mode, one
  // cell's occupancy otherwise.
  std::size_t stride = n;
  if (!n2_) {
    std::uint32_t max_occ = 1;
    for (int c = 0; c < cells_.cell_count(); ++c)
      max_occ = std::max(max_occ, cells_.cell_range(c).size());
    stride = max_occ;
  }
  if (n == scr_slots_ && chunks == scr_chunks_ && stride <= tmp_stride_ &&
      workers <= scr_workers_)
    return;
  scr_slots_ = n;
  scr_chunks_ = chunks;
  scr_workers_ = std::max(workers, scr_workers_);
  tmp_stride_ = std::max(stride, tmp_stride_);
  const std::size_t cn = static_cast<std::size_t>(chunks) * n;
  jfx_.assign(cn, 0.0);
  jfy_.assign(cn, 0.0);
  jfz_.assign(cn, 0.0);
  dirty_.assign(static_cast<std::size_t>(chunks), {0, 0});
  tally_.assign(static_cast<std::size_t>(chunks), {});
  tmp_.resize(scr_workers_ * kLanes * tmp_stride_);
  idx_.resize(scr_workers_ * tmp_stride_);
}

void NativeRealKernel::run_chunk(std::size_t k, int chunks, std::size_t n,
                                 unsigned worker) {
  double* jfx = jfx_.data() + k * n;
  double* jfy = jfy_.data() + k * n;
  double* jfz = jfz_.data() + k * n;
  double* lanes = tmp_.data() + worker * kLanes * tmp_stride_;
  std::uint32_t* idx = idx_.data() + worker * tmp_stride_;
  std::uint32_t lo = static_cast<std::uint32_t>(n);
  std::uint32_t hi = 0;
  ChunkTally tally;
  const auto touch = [&](std::uint32_t b, std::uint32_t e) {
    lo = std::min(lo, b);
    hi = std::max(hi, e);
  };
  const auto flush_i = [&](std::size_t slot, const Acc& acc) {
    jfx[slot] += acc.fx;
    jfy[slot] += acc.fy;
    jfz[slot] += acc.fz;
    touch(static_cast<std::uint32_t>(slot),
          static_cast<std::uint32_t>(slot) + 1);
    tally.pot += acc.pot;
    tally.vir += acc.vir;
    tally.pairs += acc.pairs;
  };

  if (n2_) {
    const std::size_t i_begin = k * n / static_cast<std::size_t>(chunks);
    const std::size_t i_end = (k + 1) * n / static_cast<std::size_t>(chunks);
    for (std::size_t i = i_begin; i < i_end; ++i) {
      const std::size_t base = static_cast<std::size_t>(ts_[i]) * n;
      Acc acc;
      pair_range<true>(xs_[i], ys_[i], zs_[i], units::kCoulomb * qs_[i],
                       cb_.data() + base, cc6_.data() + base,
                       cd8_.data() + base, csh_.data() + base, i + 1, n,
                       kNoSkip, jfx, jfy, jfz, lanes, idx, acc);
      touch(static_cast<std::uint32_t>(i + 1), static_cast<std::uint32_t>(n));
      flush_i(i, acc);
    }
  } else {
    const auto cell_count = static_cast<std::size_t>(cells_.cell_count());
    const int c_begin =
        static_cast<int>(k * cell_count / static_cast<std::size_t>(chunks));
    const int c_end = static_cast<int>((k + 1) * cell_count /
                                       static_cast<std::size_t>(chunks));
    const int m = cells_.cells_per_side();
    for (int c = c_begin; c < c_end; ++c) {
      const CellList::Range own = cells_.cell_range(c);
      if (own.size() == 0) continue;
      const int ix = c % m;
      const int iy = (c / m) % m;
      const int iz = c / (m * m);
      for (std::uint32_t a = own.begin; a < own.end; ++a) {
        const std::size_t base = static_cast<std::size_t>(ts_[a]) * n;
        const double* cb = cb_.data() + base;
        const double* c6r = cc6_.data() + base;
        const double* d8r = cd8_.data() + base;
        const double* shr = csh_.data() + base;
        const double qi_ke = units::kCoulomb * qs_[a];
        Acc acc;
        // Same-cell partners after i (each unordered pair once)...
        pair_range<true>(xs_[a], ys_[a], zs_[a], qi_ke, cb, c6r, d8r, shr,
                         a + 1, own.end, kNoSkip, jfx, jfy, jfz, lanes, idx,
                         acc);
        touch(a + 1, own.end);
        // ...then the 13 forward neighbour cells of the half stencil.
        for (const auto& off : CellList::kHalfStencil) {
          const int nc =
              cells_.cell_index(ix + off[0], iy + off[1], iz + off[2]);
          const CellList::Range other = cells_.cell_range(nc);
          if (other.size() == 0) continue;
          pair_range<true>(xs_[a], ys_[a], zs_[a], qi_ke, cb, c6r, d8r, shr,
                           other.begin, other.end, kNoSkip, jfx, jfy, jfz,
                           lanes, idx, acc);
          touch(other.begin, other.end);
        }
        flush_i(a, acc);
      }
    }
  }
  dirty_[k] = {lo, lo < hi ? hi : lo};
  tally_[k] = tally;
}

ForceResult NativeRealKernel::sweep(const SoaParticles& soa,
                                    std::span<Vec3> forces,
                                    ThreadPool* pool) {
  MDM_TRACE_SCOPE("native.real_space");
  prepare(soa);
  const std::size_t n = soa.size();
  const std::size_t units =
      n2_ ? n : static_cast<std::size_t>(cells_.cell_count());
  const int chunks = static_cast<int>(
      std::min<std::size_t>(CellList::kPairChunks, units ? units : 1));
  const bool fan_out = pool && pool->size() > 1;
  // Stores are per pool worker (only that many chunks run at once); the
  // j-side buffers and tallies stay per chunk for the ordered reduction.
  ensure_scratch(n, chunks, fan_out ? pool->size() : 1);

  if (fan_out) {
    pool_for(
        *pool, static_cast<std::size_t>(chunks),
        [&](unsigned worker, std::size_t begin, std::size_t end) {
          for (std::size_t k = begin; k < end; ++k)
            run_chunk(k, chunks, n, worker);
        },
        /*min_parallel=*/0);
  } else {
    for (std::size_t k = 0; k < static_cast<std::size_t>(chunks); ++k)
      run_chunk(k, chunks, n, 0);
  }

  // Chunk-ordered reduction into the caller's force array (slot -> particle
  // through the cell order); buffers are re-zeroed for the next sweep.
  const auto order = cells_.order();
  ForceResult result;
  double pairs = 0.0;
  for (int k = 0; k < chunks; ++k) {
    double* jfx = jfx_.data() + static_cast<std::size_t>(k) * n;
    double* jfy = jfy_.data() + static_cast<std::size_t>(k) * n;
    double* jfz = jfz_.data() + static_cast<std::size_t>(k) * n;
    const auto [lo, hi] = dirty_[static_cast<std::size_t>(k)];
    for (std::uint32_t s = lo; s < hi; ++s) {
      const std::uint32_t id = n2_ ? s : order[s];
      forces[id] += Vec3{jfx[s], jfy[s], jfz[s]};
      jfx[s] = 0.0;
      jfy[s] = 0.0;
      jfz[s] = 0.0;
    }
    result.potential += tally_[static_cast<std::size_t>(k)].pot;
    result.virial += tally_[static_cast<std::size_t>(k)].vir;
    pairs += tally_[static_cast<std::size_t>(k)].pairs;
  }
  last_pairs_ = static_cast<std::uint64_t>(pairs);
  static obs::Counter& pair_counter =
      obs::Registry::global().counter("native.real_pairs");
  pair_counter.add(last_pairs_);
  return result;
}

ForceResult NativeRealKernel::one_sided(const SoaParticles& soa,
                                        std::size_t n_i,
                                        std::span<Vec3> forces) {
  MDM_TRACE_SCOPE("native.real_space_one_sided");
  prepare(soa);
  const std::size_t n = soa.size();
  ensure_scratch(n, 1, 1);
  double* lanes = tmp_.data();
  std::uint32_t* idx = idx_.data();
  ForceResult result;
  double pairs = 0.0;

  const auto eval_i = [&](std::size_t slot, std::size_t id, auto&& ranges) {
    const std::size_t base = static_cast<std::size_t>(ts_[slot]) * n;
    Acc acc;
    ranges([&](std::uint32_t jb, std::uint32_t je) {
      pair_range<false>(xs_[slot], ys_[slot], zs_[slot],
                        units::kCoulomb * qs_[slot], cb_.data() + base,
                        cc6_.data() + base, cd8_.data() + base,
                        csh_.data() + base, jb, je, slot, nullptr, nullptr,
                        nullptr, lanes, idx, acc);
    });
    forces[id] += Vec3{acc.fx, acc.fy, acc.fz};
    result.potential += acc.pot;
    result.virial += acc.vir;
    pairs += acc.pairs;
  };

  if (n2_) {
    for (std::size_t i = 0; i < std::min(n_i, n); ++i)
      eval_i(i, i, [&](auto&& range) {
        range(0, static_cast<std::uint32_t>(n));
      });
  } else {
    const auto order = cells_.order();
    for (int c = 0; c < cells_.cell_count(); ++c) {
      const CellList::Range own = cells_.cell_range(c);
      if (own.size() == 0) continue;
      const auto neigh = cells_.neighbors27(c);
      for (std::uint32_t a = own.begin; a < own.end; ++a) {
        const std::uint32_t id = order[a];
        if (id >= n_i) continue;  // halo particle: no force wanted
        eval_i(a, id, [&](auto&& range) {
          for (const int nc : neigh) {
            const CellList::Range r = cells_.cell_range(nc);
            if (r.size() != 0) range(r.begin, r.end);
          }
        });
      }
    }
  }
  last_pairs_ = static_cast<std::uint64_t>(pairs);
  static obs::Counter& pair_counter =
      obs::Registry::global().counter("native.real_pairs");
  pair_counter.add(last_pairs_);
  return result;
}

}  // namespace mdm::native
