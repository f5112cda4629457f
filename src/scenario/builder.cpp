#include "scenario/builder.hpp"

#include <algorithm>
#include <cmath>

#include "core/lattice.hpp"
#include "core/lennard_jones.hpp"
#include "core/tosi_fumi.hpp"
#include "ewald/ewald.hpp"
#include "native/native_force_field.hpp"
#include "scenario/parser.hpp"
#include "util/random.hpp"
#include "util/units.hpp"

namespace mdm::scenario {

namespace {

ParticleSystem build_random_system(const ScenarioSpec& spec) {
  const auto& sys = spec.system;
  ParticleSystem system(sys.box);
  for (const auto& s : spec.species)
    system.add_species({s.name, s.mass, s.charge});

  // Placement draws come after the velocity stream seed is fixed, so use an
  // independent stream: seed ^ tag keeps placement and velocities decoupled
  // while both remain functions of the spec seed alone.
  Random rng(sys.seed ^ 0x9e3779b97f4a7c15ULL);
  const double d2 = sys.min_distance * sys.min_distance;
  std::vector<Vec3> placed;
  // Generous but finite: validate() already rejected over-packed requests,
  // so exhausting this means pathological bad luck, not user error.
  long long total = 0;
  for (const auto& s : spec.species) total += s.count;
  long long attempts_left = 1000LL * std::max<long long>(total, 1);

  for (std::size_t type = 0; type < spec.species.size(); ++type) {
    for (int k = 0; k < spec.species[type].count; ++k) {
      for (;;) {
        if (attempts_left-- <= 0)
          throw ScenarioError(
              "random placement failed: could not insert " +
              std::to_string(total) + " particles at min_distance " +
              std::to_string(sys.min_distance) + " A into a " +
              std::to_string(sys.box) + " A box (over-packed)");
        const Vec3 candidate{rng.uniform(0.0, sys.box),
                             rng.uniform(0.0, sys.box),
                             rng.uniform(0.0, sys.box)};
        bool ok = true;
        for (const auto& p : placed) {
          if (norm2(minimum_image(candidate, p, sys.box)) < d2) {
            ok = false;
            break;
          }
        }
        if (ok) {
          placed.push_back(candidate);
          system.add_particle(static_cast<int>(type), candidate);
          break;
        }
      }
    }
  }
  return system;
}

}  // namespace

ParticleSystem build_system(const ScenarioSpec& spec) {
  ParticleSystem system =
      spec.system.kind == SystemKind::kLattice
          ? make_rock_salt_crystal(
                spec.system.cells, spec.system.lattice_constant,
                {spec.species[0].name, spec.species[0].mass,
                 spec.species[0].charge},
                {spec.species[1].name, spec.species[1].mass,
                 spec.species[1].charge})
          : build_random_system(spec);
  assign_maxwell_velocities(system, spec.run.temperature_K,
                            spec.system.seed);
  return system;
}

EwaldParameters ewald_parameters(const ScenarioSpec& spec,
                                 const ParticleSystem& system) {
  EwaldParameters params =
      spec.forcefield.alpha > 0.0
          ? parameters_from_alpha(spec.forcefield.alpha, system.box())
          : software_parameters(static_cast<double>(system.size()),
                                system.box());
  if (spec.forcefield.r_cut > 0.0) params.r_cut = spec.forcefield.r_cut;
  return clamp_to_box(params, system.box());
}

LennardJonesParameters mixed_lj_parameters(const ScenarioSpec& spec) {
  std::vector<double> eps, sig;
  for (const auto& s : spec.species) {
    eps.push_back(s.eps);
    sig.push_back(s.sigma);
  }
  return LennardJonesParameters::lorentz_berthelot(eps, sig);
}

std::unique_ptr<ForceField> build_force_field(const ScenarioSpec& spec,
                                              const ParticleSystem& system,
                                              ThreadPool* pool,
                                              Backend backend) {
  const bool tosi_fumi =
      spec.forcefield.kind != ForceFieldKind::kLennardJones;
  if (backend == Backend::kNative) {
    if (!tosi_fumi || !spec.forcefield.coulomb)
      throw ScenarioError(
          "scenario '" + spec.name + "': backend native evaluates Ewald "
          "Coulomb + Tosi-Fumi only, not " +
          (tosi_fumi ? std::string("coulomb = false")
                     : to_string(spec.forcefield.kind)));
    native::NativeForceFieldConfig nc;
    nc.ewald = ewald_parameters(spec, system);
    nc.tosi_fumi = spec.forcefield.kind == ForceFieldKind::kTosiFumiNaCl
                       ? TosiFumiParameters::nacl()
                       : TosiFumiParameters::kcl();
    nc.tf_shift_energy = spec.forcefield.shift_energy;
    auto field = std::make_unique<native::NativeForceField>(nc, system.box());
    field->set_thread_pool(pool);
    return field;
  }

  auto composite = std::make_unique<CompositeForceField>();

  double short_range_cut = spec.forcefield.r_cut;
  if (spec.forcefield.coulomb) {
    const EwaldParameters params = ewald_parameters(spec, system);
    if (short_range_cut <= 0.0) short_range_cut = params.r_cut;
    auto coulomb = std::make_unique<EwaldCoulomb>(params, system.box());
    coulomb->set_thread_pool(pool);
    composite->add(std::move(coulomb));
  } else if (short_range_cut <= 0.0) {
    double sigma_max = 0.0;
    for (const auto& s : spec.species)
      sigma_max = std::max(sigma_max, s.sigma);
    short_range_cut = 2.5 * sigma_max;
  }
  short_range_cut = std::min(short_range_cut, 0.5 * system.box());

  switch (spec.forcefield.kind) {
    case ForceFieldKind::kTosiFumiNaCl:
    case ForceFieldKind::kTosiFumiKCl: {
      const TosiFumiParameters params =
          spec.forcefield.kind == ForceFieldKind::kTosiFumiNaCl
              ? TosiFumiParameters::nacl()
              : TosiFumiParameters::kcl();
      auto tf = std::make_unique<TosiFumiShortRange>(
          params, short_range_cut, spec.forcefield.shift_energy);
      tf->set_thread_pool(pool);
      composite->add(std::move(tf));
      break;
    }
    case ForceFieldKind::kLennardJones: {
      auto lj = std::make_unique<LennardJones>(mixed_lj_parameters(spec),
                                               short_range_cut);
      lj->set_thread_pool(pool);
      composite->add(std::move(lj));
      break;
    }
  }
  return composite;
}

SimulationConfig build_protocol(const ScenarioSpec& spec) {
  SimulationConfig protocol;
  protocol.dt_fs = spec.run.dt_fs;
  protocol.temperature_K = spec.run.temperature_K;
  protocol.sample_interval = spec.run.sample_interval;
  protocol.rescale_interval = spec.run.rescale_interval;
  protocol.thermostat = spec.ensemble.thermostat;
  protocol.thermostat_tau_fs = spec.ensemble.thermostat_tau_fs;
  if (spec.ensemble.kind == EnsembleKind::kNve) {
    protocol.nvt_steps = spec.run.equilibration;
    protocol.nve_steps = spec.run.production;
  } else {
    // NVT / NPT: thermostat through production too. The health monitor's
    // NVE drift check never engages.
    protocol.nvt_steps = spec.run.equilibration + spec.run.production;
    protocol.nve_steps = 0;
  }
  return protocol;
}

std::unique_ptr<Barostat> build_barostat(const ScenarioSpec& spec) {
  if (spec.ensemble.kind != EnsembleKind::kNpt) return nullptr;
  const auto& e = spec.ensemble;
  if (e.barostat == BarostatKind::kBerendsen)
    return std::make_unique<BerendsenBarostat>(e.pressure_GPa,
                                               e.barostat_tau_fs,
                                               e.compressibility_per_GPa);
  return std::make_unique<MonteCarloBarostat>(e.pressure_GPa,
                                              spec.run.temperature_K,
                                              e.max_volume_change,
                                              e.barostat_seed);
}

ScenarioSpec nacl_melt_scenario(int cells, int steps, double temperature_K,
                                std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "nacl-melt";
  spec.species = {
      {"Na", units::kMassNa, +1.0, 0.0, 0.0, 0},
      {"Cl", units::kMassCl, -1.0, 0.0, 0.0, 0},
  };
  spec.system.kind = SystemKind::kLattice;
  spec.system.cells = cells;
  spec.system.lattice_constant = kPaperLatticeConstant;
  spec.system.seed = seed;
  spec.forcefield.kind = ForceFieldKind::kTosiFumiNaCl;
  spec.forcefield.coulomb = true;
  spec.forcefield.shift_energy = true;
  spec.ensemble.kind = EnsembleKind::kNve;
  spec.run.dt_fs = 2.0;
  spec.run.temperature_K = temperature_K;
  spec.run.equilibration = 2 * steps / 3;  // the paper's 2000/1000 split
  spec.run.production = steps - spec.run.equilibration;
  return spec;
}

}  // namespace mdm::scenario
