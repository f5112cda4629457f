#pragma once

/// \file distributed_pme.hpp
/// Distributed smooth particle-mesh Ewald over the wavenumber process group
/// (DESIGN.md §12): the K^3 charge mesh is slab-decomposed along z across
/// the W k-space ranks, spreading/gathering use a deterministic ghost-plane
/// exchange, and the two forward 3D FFTs of the serial solver become
/// per-plane 2D transforms bracketing an all-to-all transpose plus a
/// contiguous z transform.
///
/// The spline weights and influence function come from ewald/pme_kernels, so
/// this engine evaluates EXACTLY the same arithmetic as the serial SmoothPme
/// and cross-validation between the two measures only the decomposition.
/// The distributed transform applies axes in the order (x, y) | transpose |
/// z, where the serial Grid3D::transform runs x, y, z over the whole cube;
/// the results are mathematically identical and differ only in
/// floating-point summation order (~1e-13 relative), so parity against the
/// serial solver is asserted at an RMS tolerance, not bit equality.

#include <span>
#include <vector>

#include "ewald/pme.hpp"
#include "ewald/pme_kernels.hpp"
#include "host/vmpi.hpp"
#include "util/fft.hpp"
#include "util/vec3.hpp"

namespace mdm::host {

/// z-slab layout of a K^3 PME mesh over W wavenumber ranks. Rank w owns the
/// contiguous planes [w * planes, (w + 1) * planes). B-spline support of
/// order p spreads DOWNWARD from a particle's base plane (pme_kernels.hpp
/// conventions), so the ghost region of a rank is the (p - 1) planes below
/// its slab.
struct PmeSlabLayout {
  int grid = 0;    ///< K, mesh points per axis
  int order = 0;   ///< B-spline order p
  int ranks = 0;   ///< W, wavenumber ranks sharing the mesh
  int planes = 0;  ///< K / W, z-planes owned per rank

  /// Validate and build a layout; throws std::invalid_argument with a
  /// configuration-error message naming the offending numbers (grid not
  /// divisible by the rank count, non-positive rank count, ...).
  static PmeSlabLayout create(int grid, int order, int ranks);

  int first_plane(int w) const { return w * planes; }
  int owner_of_plane(int z) const { return z / planes; }

  /// Ghost planes below a slab: p - 1, clamped so the window never exceeds
  /// the grid (the clamp only binds at W == 1, where the window is the
  /// whole mesh and spreading wraps inside it).
  int ghost_planes() const {
    const int g = order - 1;
    return g < grid - planes ? g : grid - planes;
  }

  /// Base spreading plane of a z coordinate — the same floor(wrap(z)/L * K)
  /// the spline kernel computes, so routing and spreading can never
  /// disagree about ownership.
  int base_plane(double z, double box) const;

  /// Wavenumber rank that owns a particle (the owner of its base plane).
  int route(double z, double box) const {
    return owner_of_plane(base_plane(z, box));
  }
};

/// Per-rank distributed PME engine, one instance per wavenumber rank.
/// Every rank calls step() collectively once per force evaluation with the
/// particles routed to it (PmeSlabLayout::route); ranks with no particles
/// still participate (all exchanges have layout-determined sizes, so empty
/// ranks cannot stall the transform).
class DistributedPmeRank {
 public:
  /// `params` must already be validated (validated_pme); `comm` is the
  /// wavenumber subgroup communicator (copied; cheap).
  DistributedPmeRank(const PmeParameters& params, double box,
                     const vmpi::Communicator& comm);

  /// One reciprocal-space evaluation. Fills `forces` (resized to match
  /// `positions`) with the reciprocal forces of the routed particles,
  /// mean-force-corrected over the GLOBAL particle count exactly like the
  /// serial solver. Returns the total reciprocal energy (identical on
  /// every rank). Collective over the wavenumber group.
  double step(std::span<const Vec3> positions,
              std::span<const double> charges, std::vector<Vec3>& forces);

  const PmeSlabLayout& layout() const { return layout_; }

 private:
  /// Offset of global plane (base - jz) mod K inside the local window of
  /// ghost_ + planes planes (ghost region first, owned slab after).
  int window_offset(int base, int jz) const {
    int l = base - jz - first_ + ghost_;
    if (l < 0) l += layout_.grid;  // wraps only when the window is the mesh
    return l;
  }

  void spread(std::span<const Vec3> positions,
              std::span<const double> charges);
  void exchange_ghost_spread();
  /// Per-plane 2D FFT of the owned slab (x lines then y lines, mirroring
  /// Grid3D::transform's axis order within a plane). Forward transform.
  void transform_xy();
  void transpose_forward();   ///< z-slabs -> y-slabs (z contiguous)
  void transpose_backward();  ///< y-slabs -> z-slabs
  /// theta * conj() convolution in the transposed layout; returns this
  /// rank's partial of sum theta |A|^2.
  double convolve();
  void exchange_ghost_phi();
  double gather(std::span<const Vec3> positions,
                std::span<const double> charges, double energy_partial,
                std::vector<Vec3>& forces);

  PmeParameters params_;
  double box_;
  vmpi::Communicator comm_;
  PmeSlabLayout layout_;
  int first_ = 0;  ///< first owned plane
  int ghost_ = 0;  ///< ghost planes below the slab

  std::vector<double> b2_;     ///< per-axis |b(n)|^2 (pme::axis_b2)
  std::vector<double> theta_;  ///< influence over the owned y-slab, t_ layout

  // Step scratch, reused between calls (no steady-state allocations).
  std::vector<pme::SplineWeights> spline_;  ///< per routed particle
  std::vector<double> accum_;  ///< (ghost+planes) x K x K spread window
  std::vector<Complex> slab_;  ///< planes x K x K, [(z_local*K + y)*K + x]
  std::vector<Complex> t_;     ///< planes x K x K, [(y_local*K + x)*K + z]
  std::vector<double> phi_;    ///< (ghost+planes) x K x K potential window
  std::vector<double> plane_buf_;   ///< one K x K plane (exchange scratch)
  std::vector<Complex> pack_buf_;   ///< transpose packing scratch
};

}  // namespace mdm::host
