#pragma once

/// \file builder.hpp
/// Turn a validated ScenarioSpec into runnable pieces: the particle system
/// (lattice or insert-N random placement), the force field (Ewald Coulomb +
/// Tosi-Fumi on either backend, or Lorentz-Berthelot-mixed Lennard-Jones),
/// the Simulation protocol and the barostat. The NaCl examples build
/// through these same functions, so the bundled nacl_melt spec is the
/// hard-coded driver — bit-for-bit.

#include <memory>

#include "core/backend.hpp"
#include "core/barostat.hpp"
#include "core/force_field.hpp"
#include "core/lennard_jones.hpp"
#include "core/particle_system.hpp"
#include "core/simulation.hpp"
#include "ewald/parameters.hpp"
#include "scenario/spec.hpp"
#include "util/thread_pool.hpp"

namespace mdm::scenario {

/// Build the initial configuration with Maxwell-Boltzmann velocities at the
/// run temperature. Lattice: rock-salt supercell of the two species.
/// Random: insert each species' count at uniform positions, rejecting any
/// candidate within min_distance of a placed particle (minimum image);
/// throws ScenarioError if the box cannot host the request.
ParticleSystem build_system(const ScenarioSpec& spec);

/// Resolved Ewald parameters for this spec/system (spec alpha or the
/// flop-balanced software choice, r_cut clamped to L/2).
EwaldParameters ewald_parameters(const ScenarioSpec& spec,
                                 const ParticleSystem& system);

/// Build the force field on `backend`. kEmulator composes the software
/// reference fields (Ewald Coulomb + Tosi-Fumi, or Lennard-Jones); kNative
/// runs Ewald Coulomb + Tosi-Fumi through the fused native kernels and
/// throws ScenarioError for anything else (Lennard-Jones, coulomb = false).
/// `pool` (nullable, borrowed) is handed to each pair sweep.
std::unique_ptr<ForceField> build_force_field(
    const ScenarioSpec& spec, const ParticleSystem& system,
    ThreadPool* pool = nullptr, Backend backend = Backend::kEmulator);

/// Map the spec's ensemble + schedule onto the Simulation protocol:
/// NVE runs equilibration NVT steps then production NVE steps (the paper's
/// protocol); NVT and NPT thermostat the whole run.
SimulationConfig build_protocol(const ScenarioSpec& spec);

/// The spec's barostat, or nullptr for NVE/NVT. Wire it up with
/// `sim.set_barostat(barostat.get(), spec.ensemble.barostat_interval)`.
std::unique_ptr<Barostat> build_barostat(const ScenarioSpec& spec);

/// Lorentz-Berthelot pair table over the spec's species (LJ force field).
LennardJonesParameters mixed_lj_parameters(const ScenarioSpec& spec);

/// The scenario equivalent of the hard-coded NaCl melt drivers: rock-salt
/// lattice at the paper's density, Tosi-Fumi + Ewald, NVT for 2/3 of
/// `steps` then NVE — reproduces examples/nacl_melt.cpp bit-for-bit.
ScenarioSpec nacl_melt_scenario(int cells, int steps, double temperature_K,
                                std::uint64_t seed);

}  // namespace mdm::scenario
