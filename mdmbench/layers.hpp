#pragma once
/// \file layers.hpp
/// Per-layer instruments of the traced run. Every figure comes from timing
/// calls into a layer's public functions from here, or from reading the
/// always-on counters, gauges and spans the program already exports; the
/// program itself is not instrumented further.
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/force_field.hpp"
#include "core/particle_system.hpp"
#include "ewald/pme.hpp"
#include "native/native_force_field.hpp"

namespace mdmbench {

/// Decorator that splits a NativeForceField evaluation into its public
/// components (real-space sweep, k-space DFT/IDFT, self and background
/// terms) and times each. Same accumulation order as
/// NativeForceField::add_forces, so forces and energies are unchanged.
class LayerTimingField final : public mdm::ForceField {
 public:
  explicit LayerTimingField(mdm::native::NativeForceField& inner)
      : inner_(inner) {}
  mdm::ForceResult add_forces(const mdm::ParticleSystem& system,
                              std::span<mdm::Vec3> forces) override;
  std::string name() const override { return "layer-timing"; }
  void invalidate_caches() override { inner_.invalidate_caches(); }
  void set_box(double box) override { inner_.set_box(box); }

  /// Per call, in call order (call 0 is the integrator's priming pass).
  std::vector<double> real_s, kspace_s, total_s;
  std::uint64_t pairs = 0;  ///< native.real_pairs counted over all calls

 private:
  mdm::native::NativeForceField& inner_;
};

/// Candidate pairs of a half-list real-space sweep at `r_cut`, from the
/// public CellList geometry: unique pairs within the 27-cell neighbourhood,
/// or all N(N-1)/2 pairs where the kernel falls back to the N^2 loop.
double half_list_candidates(const mdm::ParticleSystem& system, double r_cut);

/// Median wall time (ms) of SmoothPme::add_reciprocal on `system`.
double probe_serial_pme_ms(const mdm::PmeParameters& pme,
                           const mdm::ParticleSystem& system, int reps);

/// Median wall time (ms) of one forward plus one inverse Grid3D::transform.
double probe_fft_ms(int grid, int reps, std::uint64_t seed);

/// Busy time (ms) of the slab-decomposed PME k-space group in isolation:
/// W vmpi ranks run DistributedPmeRank::step on their routed particles;
/// returns the slowest rank's median step, and each rank's in `per_rank`.
double probe_distributed_pme_ms(const mdm::PmeParameters& pme,
                                const mdm::ParticleSystem& system, int ranks,
                                int reps, std::vector<double>* per_rank);

/// Median wall times (ms) of NativeForceField::add_real_space and
/// add_wavenumber_space on `system`, with the in-range pair count.
struct NativeProbe {
  double real_ms = 0.0;
  double kspace_ms = 0.0;
  std::uint64_t pairs = 0;
};
NativeProbe probe_native(const mdm::native::NativeForceFieldConfig& config,
                         const mdm::ParticleSystem& system, int reps);

/// Counter value from the global registry (0 when absent).
std::uint64_t counter(const char* name);
double gauge(const std::string& name);

/// Mean duration (ms) of the spans named `name` recorded so far (0 if none).
double span_mean_ms(const std::string& name);

/// Write the chrome trace of everything recorded so far.
void write_trace(const std::string& path);

}  // namespace mdmbench
