#include "host/distributed_pme.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

#include "util/units.hpp"

namespace mdm::host {
namespace {

constexpr double kPi = std::numbers::pi;

/// Point-to-point tags on the wavenumber subgroup. Must avoid the
/// parallel-app tags (100..701, 9001/9002), the WINE-2 library's 7001+
/// block and the native structure-factor tags 7101/7103.
enum PmeTag : int {
  kGhostSpread = 7301,
  kTransposeFwd = 7303,
  kTransposeBack = 7305,
  kGhostPhi = 7307,
  kPmeReduce = 7309,
};

}  // namespace

PmeSlabLayout PmeSlabLayout::create(int grid, int order, int ranks) {
  if (ranks < 1)
    throw std::invalid_argument(
        "distributed PME: need >= 1 wavenumber rank (got " +
        std::to_string(ranks) + ")");
  if (order < 2 || order > pme::kMaxOrder)
    throw std::invalid_argument("distributed PME: B-spline order " +
                                std::to_string(order) +
                                " outside [2, 10]");
  if (grid < 1 || grid % ranks != 0)
    throw std::invalid_argument(
        "distributed PME: mesh K=" + std::to_string(grid) +
        " is not divisible into z-slabs over W=" + std::to_string(ranks) +
        " wavenumber ranks (K % W must be 0)");
  PmeSlabLayout layout;
  layout.grid = grid;
  layout.order = order;
  layout.ranks = ranks;
  layout.planes = grid / ranks;
  return layout;
}

int PmeSlabLayout::base_plane(double z, double box) const {
  const double u = wrap_coordinate(z, box) / box * grid;
  int base = static_cast<int>(std::floor(u));
  // wrap_coordinate returns [0, box), so base is already in [0, K); the
  // modulo only guards the u == K rounding edge.
  return ((base % grid) + grid) % grid;
}

DistributedPmeRank::DistributedPmeRank(const PmeParameters& params,
                                       double box,
                                       const vmpi::Communicator& comm)
    : params_(params),
      box_(box),
      comm_(comm),
      layout_(PmeSlabLayout::create(params.grid, params.order, comm.size())),
      b2_(pme::axis_b2(params.grid, params.order)) {
  first_ = layout_.first_plane(comm_.rank());
  ghost_ = layout_.ghost_planes();
  const std::size_t k = static_cast<std::size_t>(layout_.grid);
  const std::size_t s = static_cast<std::size_t>(layout_.planes);
  // Influence function over this rank's y-slab, matching the transposed
  // buffer layout [(y_local*K + x)*K + z].
  theta_.resize(s * k * k);
  for (std::size_t yl = 0; yl < s; ++yl)
    for (std::size_t x = 0; x < k; ++x)
      for (std::size_t z = 0; z < k; ++z)
        theta_[(yl * k + x) * k + z] = pme::influence_theta(
            static_cast<int>(x), first_ + static_cast<int>(yl),
            static_cast<int>(z), layout_.grid, params_.alpha, b2_);
  accum_.resize((ghost_ + layout_.planes) * k * k);
  slab_.resize(s * k * k);
  t_.resize(s * k * k);
  phi_.resize((ghost_ + layout_.planes) * k * k);
  plane_buf_.resize(k * k);
  pack_buf_.resize(s * s * k);
}

void DistributedPmeRank::spread(std::span<const Vec3> positions,
                                std::span<const double> charges) {
  const int k = layout_.grid;
  const int p = params_.order;
  spline_.resize(positions.size());
  std::fill(accum_.begin(), accum_.end(), 0.0);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    pme::SplineWeights& s = spline_[i];
    pme::spline_weights(positions[i], box_, k, p, s);
    const double q = charges[i];
    for (int jz = 0; jz < p; ++jz) {
      const std::size_t l = static_cast<std::size_t>(
          window_offset(s.base[2], jz));
      double* plane = accum_.data() + l * k * k;
      for (int jy = 0; jy < p; ++jy) {
        const int gy = ((s.base[1] - jy) % k + k) % k;
        const double wyz = s.w[1][jy] * s.w[2][jz] * q;
        for (int jx = 0; jx < p; ++jx) {
          const int gx = ((s.base[0] - jx) % k + k) % k;
          plane[gy * k + gx] += wyz * s.w[0][jx];
        }
      }
    }
  }
}

void DistributedPmeRank::exchange_ghost_spread() {
  const int k = layout_.grid;
  const int w = comm_.rank();
  const std::size_t plane_size = static_cast<std::size_t>(k) * k;
  // Ship every ghost plane to its owner (never self: the ghost region lies
  // strictly below the owned slab whenever it is non-empty).
  for (int j = 1; j <= ghost_; ++j) {
    const int gz = ((first_ - j) % k + k) % k;
    const double* src = accum_.data() + (ghost_ - j) * plane_size;
    plane_buf_.assign(src, src + plane_size);
    comm_.send(layout_.owner_of_plane(gz), kGhostSpread, plane_buf_);
  }
  // Receive the matching contributions into the owned slab. Both sides
  // enumerate (source rank, j) from the layout alone, in the same order, so
  // the messages need no headers.
  for (int src = 0; src < layout_.ranks; ++src) {
    if (src == w) continue;
    const int src_first = layout_.first_plane(src);
    for (int j = 1; j <= ghost_; ++j) {
      const int gz = ((src_first - j) % k + k) % k;
      if (layout_.owner_of_plane(gz) != w) continue;
      const auto part = comm_.recv<double>(src, kGhostSpread);
      double* dst = accum_.data() +
                    (ghost_ + gz - first_) * plane_size;
      for (std::size_t i = 0; i < plane_size; ++i) dst[i] += part[i];
    }
  }
  // Owned slab (real charge) -> complex FFT buffer.
  const double* owned = accum_.data() + ghost_ * plane_size;
  for (std::size_t i = 0; i < slab_.size(); ++i)
    slab_[i] = Complex{owned[i], 0.0};
}

void DistributedPmeRank::transform_xy() {
  const std::size_t k = static_cast<std::size_t>(layout_.grid);
  for (int zl = 0; zl < layout_.planes; ++zl) {
    Complex* plane = slab_.data() + static_cast<std::size_t>(zl) * k * k;
    for (std::size_t y = 0; y < k; ++y)
      fft_strided(plane + y * k, k, 1, false);
    for (std::size_t x = 0; x < k; ++x)
      fft_strided(plane + x, k, k, false);
  }
}

void DistributedPmeRank::transpose_forward() {
  const std::size_t k = static_cast<std::size_t>(layout_.grid);
  const std::size_t s = static_cast<std::size_t>(layout_.planes);
  const int w = comm_.rank();
  for (int d = 0; d < layout_.ranks; ++d) {
    if (d == w) continue;
    std::size_t idx = 0;
    for (std::size_t yl = 0; yl < s; ++yl) {
      const std::size_t y = static_cast<std::size_t>(d) * s + yl;
      for (std::size_t x = 0; x < k; ++x)
        for (std::size_t zl = 0; zl < s; ++zl)
          pack_buf_[idx++] = slab_[(zl * k + y) * k + x];
    }
    comm_.send(d, kTransposeFwd, pack_buf_);
  }
  // Own block, no message.
  for (std::size_t yl = 0; yl < s; ++yl) {
    const std::size_t y = static_cast<std::size_t>(w) * s + yl;
    for (std::size_t x = 0; x < k; ++x)
      for (std::size_t zl = 0; zl < s; ++zl)
        t_[(yl * k + x) * k + static_cast<std::size_t>(w) * s + zl] =
            slab_[(zl * k + y) * k + x];
  }
  for (int src = 0; src < layout_.ranks; ++src) {
    if (src == w) continue;
    const auto part = comm_.recv<Complex>(src, kTransposeFwd);
    std::size_t idx = 0;
    for (std::size_t yl = 0; yl < s; ++yl)
      for (std::size_t x = 0; x < k; ++x)
        for (std::size_t zl = 0; zl < s; ++zl)
          t_[(yl * k + x) * k + static_cast<std::size_t>(src) * s + zl] =
              part[idx++];
  }
}

double DistributedPmeRank::convolve() {
  // Full z lines are contiguous in the transposed layout.
  const std::size_t k = static_cast<std::size_t>(layout_.grid);
  const std::size_t s = static_cast<std::size_t>(layout_.planes);
  for (std::size_t line = 0; line < s * k; ++line)
    fft_strided(t_.data() + line * k, k, 1, false);

  // A = F(Q); energy partial = sum theta |A|^2 over the owned y-slab and
  // G-hat = theta conj(A), exactly the serial solver's convolution.
  double energy = 0.0;
  for (std::size_t i = 0; i < t_.size(); ++i) {
    const double theta = theta_[i];
    const Complex a = t_[i];
    energy += theta * std::norm(a);
    t_[i] = theta * std::conj(a);
  }

  // Second forward transform, z axis first (still contiguous here).
  for (std::size_t line = 0; line < s * k; ++line)
    fft_strided(t_.data() + line * k, k, 1, false);
  return energy;
}

void DistributedPmeRank::transpose_backward() {
  const std::size_t k = static_cast<std::size_t>(layout_.grid);
  const std::size_t s = static_cast<std::size_t>(layout_.planes);
  const int w = comm_.rank();
  for (int d = 0; d < layout_.ranks; ++d) {
    if (d == w) continue;
    std::size_t idx = 0;
    for (std::size_t zl = 0; zl < s; ++zl) {
      const std::size_t z = static_cast<std::size_t>(d) * s + zl;
      for (std::size_t yl = 0; yl < s; ++yl)
        for (std::size_t x = 0; x < k; ++x)
          pack_buf_[idx++] = t_[(yl * k + x) * k + z];
    }
    comm_.send(d, kTransposeBack, pack_buf_);
  }
  for (std::size_t zl = 0; zl < s; ++zl) {
    const std::size_t z = static_cast<std::size_t>(w) * s + zl;
    for (std::size_t yl = 0; yl < s; ++yl) {
      const std::size_t y = static_cast<std::size_t>(w) * s + yl;
      for (std::size_t x = 0; x < k; ++x)
        slab_[(zl * k + y) * k + x] = t_[(yl * k + x) * k + z];
    }
  }
  for (int src = 0; src < layout_.ranks; ++src) {
    if (src == w) continue;
    const auto part = comm_.recv<Complex>(src, kTransposeBack);
    std::size_t idx = 0;
    for (std::size_t zl = 0; zl < s; ++zl)
      for (std::size_t yl = 0; yl < s; ++yl) {
        const std::size_t y = static_cast<std::size_t>(src) * s + yl;
        for (std::size_t x = 0; x < k; ++x)
          slab_[(zl * k + y) * k + x] = part[idx++];
      }
  }
}

void DistributedPmeRank::exchange_ghost_phi() {
  const int k = layout_.grid;
  const int w = comm_.rank();
  const std::size_t plane_size = static_cast<std::size_t>(k) * k;
  // phi is real by symmetry (the serial solver reads .real() too); the
  // owned window planes come straight from the slab.
  for (int zl = 0; zl < layout_.planes; ++zl) {
    const Complex* src = slab_.data() + zl * plane_size;
    double* dst = phi_.data() + (ghost_ + zl) * plane_size;
    for (std::size_t i = 0; i < plane_size; ++i) dst[i] = src[i].real();
  }
  // Mirror of the spread exchange, reversed: the owner of each plane in
  // rank r's ghost window sends it to r. Same layout-determined order on
  // both sides.
  for (int dst = 0; dst < layout_.ranks; ++dst) {
    if (dst == w) continue;
    const int dst_first = layout_.first_plane(dst);
    for (int j = 1; j <= ghost_; ++j) {
      const int gz = ((dst_first - j) % k + k) % k;
      if (layout_.owner_of_plane(gz) != w) continue;
      const double* src = phi_.data() +
                          (ghost_ + gz - first_) * plane_size;
      plane_buf_.assign(src, src + plane_size);
      comm_.send(dst, kGhostPhi, plane_buf_);
    }
  }
  for (int j = 1; j <= ghost_; ++j) {
    const int gz = ((first_ - j) % k + k) % k;
    const auto part =
        comm_.recv<double>(layout_.owner_of_plane(gz), kGhostPhi);
    std::copy(part.begin(), part.end(),
              phi_.begin() + (ghost_ - j) * plane_size);
  }
}

double DistributedPmeRank::gather(std::span<const Vec3> positions,
                                  std::span<const double> charges,
                                  double energy_partial,
                                  std::vector<Vec3>& forces) {
  const int k = layout_.grid;
  const int p = params_.order;
  const std::size_t plane_size = static_cast<std::size_t>(k) * k;
  const double phi_pref = units::kCoulomb / (kPi * box_);
  const double scale = static_cast<double>(k) / box_;

  forces.assign(positions.size(), Vec3{});
  Vec3 net;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const pme::SplineWeights& s = spline_[i];
    Vec3 f;
    for (int jz = 0; jz < p; ++jz) {
      const double* plane =
          phi_.data() + window_offset(s.base[2], jz) * plane_size;
      for (int jy = 0; jy < p; ++jy) {
        const int gy = ((s.base[1] - jy) % k + k) % k;
        for (int jx = 0; jx < p; ++jx) {
          const int gx = ((s.base[0] - jx) % k + k) % k;
          const double phi = phi_pref * plane[gy * k + gx];
          f.x += s.dw[0][jx] * s.w[1][jy] * s.w[2][jz] * phi;
          f.y += s.w[0][jx] * s.dw[1][jy] * s.w[2][jz] * phi;
          f.z += s.w[0][jx] * s.w[1][jy] * s.dw[2][jz] * phi;
        }
      }
    }
    forces[i] = (-charges[i] * scale) * f;
    net += forces[i];
  }

  // One combined reduction: energy partial, net reciprocal force and the
  // particle count for the serial solver's mean-force momentum fix.
  std::vector<double> red{energy_partial, net.x, net.y, net.z,
                          static_cast<double>(positions.size())};
  comm_.allreduce_sum(red, kPmeReduce);
  const double energy = red[0] * units::kCoulomb / (2.0 * kPi * box_);
  if (red[4] > 0.0) {
    const Vec3 mean{red[1] / red[4], red[2] / red[4], red[3] / red[4]};
    for (auto& f : forces) f -= mean;
  }
  return energy;
}

double DistributedPmeRank::step(std::span<const Vec3> positions,
                                std::span<const double> charges,
                                std::vector<Vec3>& forces) {
  if (positions.size() != charges.size())
    throw std::invalid_argument("distributed PME: positions/charges mismatch");
  spread(positions, charges);
  exchange_ghost_spread();
  transform_xy();
  transpose_forward();
  const double energy_partial = convolve();
  transpose_backward();
  transform_xy();
  exchange_ghost_phi();
  return gather(positions, charges, energy_partial, forces);
}

}  // namespace mdm::host
