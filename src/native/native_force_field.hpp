#pragma once

/// \file native_force_field.hpp
/// The native SIMD backend as a ForceField (DESIGN.md §11): the same Ewald
/// physics as the emulated machine — real-space erfc sum, half-space
/// wavenumber DFT/IDFT, self and background corrections, optional fused
/// Tosi-Fumi short range — evaluated by the vectorized structure-of-arrays
/// kernels instead of the fixed-point hardware pipelines.
///
/// Accuracy contract: double precision throughout; agrees with the
/// reference solver to rounding error and therefore sits WELL inside the
/// emulator envelope (~1e-7 real-space, ~10^-4.5 wavenumber RMS relative)
/// enforced by the `backend` ctest label. Unlike the emulator path it needs
/// no box >= 3 r_cut guarantee (only the universal r_cut <= L/2) and it
/// reports the virial, so pressure comes free.

#include <span>

#include "core/force_field.hpp"
#include "core/particle_system.hpp"
#include "core/tosi_fumi.hpp"
#include "ewald/ewald.hpp"
#include "ewald/kvectors.hpp"
#include "native/kspace.hpp"
#include "native/real_kernel.hpp"
#include "native/soa.hpp"
#include "util/thread_pool.hpp"

namespace mdm::native {

struct NativeForceFieldConfig {
  EwaldParameters ewald;
  bool include_tosi_fumi = true;
  TosiFumiParameters tosi_fumi = TosiFumiParameters::nacl();
  /// Serve software-path convention (energy continuous at the cutoff);
  /// the emulator-parity configuration leaves it off.
  bool tf_shift_energy = false;
};

/// Real-space kernel settings of an Ewald + Tosi-Fumi field. Shared by
/// NativeForceField and the parallel app's native real ranks.
NativeRealKernel::Config real_kernel_config(
    const NativeForceFieldConfig& config, double box);

class NativeForceField final : public ForceField {
 public:
  NativeForceField(const NativeForceFieldConfig& config, double box);

  ForceResult add_forces(const ParticleSystem& system,
                         std::span<Vec3> forces) override;
  std::string name() const override { return "native-simd"; }
  /// The real-space kernel tracks displacement against lazily anchored
  /// positions (CellList::build_auto); a restore must reset that anchor.
  void invalidate_caches() override { real_.invalidate(); }

  /// Real-space sweep runs on the pool (bit-identical at any size); the
  /// k-space kernel is serial (a few percent of the step at machine alpha).
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Components, exposed for the parity suite and bench_backend. Each adds
  /// into `forces`.
  ForceResult add_real_space(const ParticleSystem& system,
                             std::span<Vec3> forces);
  ForceResult add_wavenumber_space(const ParticleSystem& system,
                                   std::span<Vec3> forces);
  double self_energy(const ParticleSystem& system) const;
  double background_energy(const ParticleSystem& system) const;

  const EwaldParameters& parameters() const { return config_.ewald; }
  const KVectorTable& kvectors() const { return kvectors_; }

 private:
  NativeForceFieldConfig config_;
  double box_;
  double beta_;
  KVectorTable kvectors_;
  SoaParticles soa_;
  NativeRealKernel real_;
  NativeKspace kspace_;
  StructureFactors sf_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace mdm::native
