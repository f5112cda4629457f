#pragma once

/// \file real_kernel.hpp
/// Real-space pair kernel of the native backend (DESIGN.md §11).
///
/// One fused evaluation computes the erfc-damped Ewald real-space force
/// (paper eq. 2) and, optionally, the Tosi-Fumi short-range terms (eq. 15)
/// — the work MDGRAPE-2 performs in three separate emulated passes. Unlike
/// the hardware, which streams every candidate of the 27-cell scan through
/// its pipelines (eq. 6), the kernel pays that math only for in-range pairs
/// (eq. 5). Each i particle meets a contiguous j-range of cell-sorted
/// structure-of-arrays streams in three steps:
///
///  * filter: minimum image (two compare-blend corrections per axis;
///    positions are pre-wrapped, so |dx| < box), r^2 and the cutoff test
///    over every candidate; in-range partners are packed in j order into a
///    per-worker store (slot index in its own uint32 buffer, dx, dy, dz
///    and r^2 in double lanes);
///  * evaluate: erfc/exp from the rationals of core/fastmath.hpp and the
///    Tosi-Fumi terms on the packed pairs only, overwriting the lanes with
///    fx, fy, fz, virial and potential. Tosi-Fumi coefficients are per-slot
///    streams pre-gathered per i-species row, so species lookup is one
///    indexed load, never a type-pair table lookup;
///  * sum: the Newton j-scatter and the per-i sums walk the packed pairs in
///    j order. A masked full sweep would add exact zeros for the dropped
///    candidates, so results do not depend on the filter.
///
/// The loops are scalar: GCC does not vectorize them under the build's
/// strict FP flags (the minimum-image blend becomes a conditional subtract
/// under -ftrapping-math, the loop needs more alias checks than it will
/// version for, and fast_exp's double <-> int64 conversions have no SSE2
/// form). With those removed the evaluate stage vectorizes but runs no
/// faster, so the kernel keeps the default flags.
///
/// Parallel sweeps reuse the repo's fixed-chunk discipline (CellList
/// kPairChunks): the chunk partition depends only on the grid, j-side
/// forces land in per-chunk buffers reduced in chunk order, so results are
/// bit-identical at ANY pool size. The cell list itself is maintained with
/// CellList::build_auto (half-skin displacement tracking): the native
/// backend's accuracy contract is the envelope, not bit-equality across
/// restarts, so it may skip rebuilds the reference path would perform.

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/cell_list.hpp"
#include "core/force_field.hpp"
#include "core/tosi_fumi.hpp"
#include "native/soa.hpp"
#include "util/thread_pool.hpp"

namespace mdm::native {

class NativeRealKernel {
 public:
  struct Config {
    double box = 0.0;
    double beta = 0.0;   ///< alpha / L, 1/A
    double r_cut = 0.0;  ///< A, must be <= L/2
    bool include_tosi_fumi = false;
    /// Subtract phi_sr(r_cut) per pair (serve software-path convention);
    /// forces are unchanged either way.
    bool tf_shift_energy = false;
    TosiFumiParameters tosi_fumi{};
  };

  explicit NativeRealKernel(const Config& config);

  /// Newton half-stencil sweep: every unordered in-range pair once, forces
  /// accumulated for both partners. Adds into `forces` (indexed like
  /// soa streams); returns summed pair potential and virial. Bit-identical
  /// for any pool size (nullptr = serial).
  ForceResult sweep(const SoaParticles& soa, std::span<Vec3> forces,
                    ThreadPool* pool = nullptr);

  /// One-sided sweep for the parallel ranks: forces on particles with index
  /// < n_i (the rank's owned particles, listed first) from ALL particles,
  /// Newton's third law forgone exactly like the hardware scan. The
  /// returned potential/virial double-count owned-owned pairs; the caller
  /// halves them (host/parallel_app convention). Serial — each rank is
  /// already one thread.
  ForceResult one_sided(const SoaParticles& soa, std::size_t n_i,
                        std::span<Vec3> forces);

  /// In-range pair interactions evaluated by the last sweep/one_sided call.
  std::uint64_t last_pairs() const { return last_pairs_; }
  const CellList& cells() const { return cells_; }

  /// Drop the lazy cell-list anchor and cached coefficient rows; the next
  /// sweep rebuilds from scratch. Required after checkpoint restore or any
  /// other position teleport (see CellList::invalidate).
  void invalidate() {
    cells_.invalidate();
    coef_valid_ = false;
  }

 private:
  struct Acc {
    double fx = 0, fy = 0, fz = 0, pot = 0, vir = 0, pairs = 0;
  };

  /// Maintain the cell list (build_auto) and regather the sorted streams.
  void prepare(const SoaParticles& soa);

  /// Double lanes per worker store: dx/fx, dy/fy, dz/fz, r^2/virial and
  /// potential.
  static constexpr std::size_t kLanes = 5;

  /// Stores for `workers` concurrent pool workers, j-side buffers and
  /// tallies for `chunks` chunks.
  void ensure_scratch(std::size_t n, int chunks, unsigned workers);

  template <bool kNewton>
  void pair_range(double xi, double yi, double zi, double qi_ke,
                  const double* cb, const double* c6r, const double* d8r,
                  const double* shr, std::size_t jb, std::size_t je,
                  std::size_t skip, double* jfx, double* jfy, double* jfz,
                  double* lanes, std::uint32_t* idx, Acc& acc) const;

  void run_chunk(std::size_t k, int chunks, std::size_t n, unsigned worker);

  Config cfg_;
  double inv_rho_ = 0.0;
  double cutoff2_ = 0.0;
  /// phi_sr(r_cut) per type pair (zero unless tf_shift_energy).
  std::array<std::array<double, TosiFumiParameters::kMaxSpecies>,
             TosiFumiParameters::kMaxSpecies>
      shift_{};

  CellList cells_;
  bool n2_ = false;
  int coef_rows_ = 0;
  bool coef_valid_ = false;
  /// Slot->type stream the coefficient rows were built for; a mismatch
  /// (migration/halo churn in the parallel app) forces a rebuild.
  std::vector<std::int32_t> coef_ts_;

  /// Cell-sorted streams (slot order == CellList::order(); identity in the
  /// N^2 fallback).
  std::vector<double> xs_, ys_, zs_, qs_;
  std::vector<std::int32_t> ts_;
  /// Per-i-species coefficient rows, [ti * n + slot]: Born prefactor, c6,
  /// d8 and energy shift of the (ti, type[slot]) pair.
  std::vector<double> cb_, cc6_, cd8_, csh_;

  /// Per-chunk j-side force accumulators, [chunk * n + slot], kept zero
  /// outside each chunk's dirty range.
  std::vector<double> jfx_, jfy_, jfz_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> dirty_;
  struct ChunkTally {
    double pot = 0, vir = 0, pairs = 0;
  };
  std::vector<ChunkTally> tally_;
  /// Per-worker stores of the filter/evaluate stages: kLanes double lanes
  /// of tmp_stride_ each in tmp_, the packed slot indices in idx_.
  std::vector<double> tmp_;
  std::vector<std::uint32_t> idx_;
  std::size_t tmp_stride_ = 0;
  std::size_t scr_slots_ = 0;
  int scr_chunks_ = 0;
  unsigned scr_workers_ = 0;

  std::uint64_t last_pairs_ = 0;
};

}  // namespace mdm::native
