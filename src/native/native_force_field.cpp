#include "native/native_force_field.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/step_breakdown.hpp"
#include "obs/trace.hpp"
#include "util/units.hpp"

namespace mdm::native {

NativeRealKernel::Config real_kernel_config(
    const NativeForceFieldConfig& config, double box) {
  NativeRealKernel::Config rc;
  rc.box = box;
  rc.beta = config.ewald.alpha / box;
  rc.r_cut = config.ewald.r_cut;
  rc.include_tosi_fumi = config.include_tosi_fumi;
  rc.tf_shift_energy = config.tf_shift_energy;
  rc.tosi_fumi = config.tosi_fumi;
  return rc;
}

NativeForceField::NativeForceField(const NativeForceFieldConfig& config,
                                   double box)
    : config_(config),
      box_(box),
      beta_(config.ewald.alpha / box),
      kvectors_(box, config.ewald.alpha, config.ewald.lk_cut),
      real_(real_kernel_config(config, box)),
      kspace_(kvectors_) {}

ForceResult NativeForceField::add_real_space(const ParticleSystem& system,
                                             std::span<Vec3> forces) {
  obs::ScopedPhase real_phase(obs::Phase::kRealSpace);
  soa_.sync(system);
  return real_.sweep(soa_, forces, pool_);
}

ForceResult NativeForceField::add_wavenumber_space(
    const ParticleSystem& system, std::span<Vec3> forces) {
  obs::ScopedPhase wave_phase(obs::Phase::kWavenumber);
  soa_.sync(system);
  kspace_.dft(soa_, sf_);
  kspace_.idft(soa_, sf_, forces);
  return kspace_.energy_virial(sf_);
}

double NativeForceField::self_energy(const ParticleSystem& system) const {
  return -units::kCoulomb * beta_ / std::sqrt(std::numbers::pi) *
         system.total_charge_squared();
}

double NativeForceField::background_energy(
    const ParticleSystem& system) const {
  const double q = system.total_charge();
  const double l3 = box_ * box_ * box_;
  return -units::kCoulomb * std::numbers::pi / (2.0 * beta_ * beta_ * l3) *
         q * q;
}

ForceResult NativeForceField::add_forces(const ParticleSystem& system,
                                         std::span<Vec3> forces) {
  if (forces.size() != system.size())
    throw std::invalid_argument("NativeForceField: force array size mismatch");
  MDM_TRACE_SCOPE("native.add_forces");
  // One sync feeds both kernels (the components above re-sync so they stay
  // usable standalone; the double sync costs O(N), noise next to the sweep).
  soa_.sync(system);
  ForceResult result;
  {
    obs::ScopedPhase real_phase(obs::Phase::kRealSpace);
    result += real_.sweep(soa_, forces, pool_);
  }
  {
    obs::ScopedPhase wave_phase(obs::Phase::kWavenumber);
    kspace_.dft(soa_, sf_);
    kspace_.idft(soa_, sf_, forces);
    result += kspace_.energy_virial(sf_);
  }
  result.potential += self_energy(system);
  result.potential += background_energy(system);
  return result;
}

}  // namespace mdm::native
