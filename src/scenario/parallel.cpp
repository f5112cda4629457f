#include "scenario/parallel.hpp"

#include "core/tosi_fumi.hpp"
#include "host/mdm_force_field.hpp"
#include "perf/solver_select.hpp"
#include "scenario/builder.hpp"
#include "scenario/parser.hpp"

namespace mdm::scenario {

host::ParallelAppConfig parallel_app_config(const ScenarioSpec& spec,
                                            const Machine& machine,
                                            const ParticleSystem& system) {
  if (spec.system.kind != SystemKind::kLattice)
    throw ScenarioError(
        "parallel runs need a lattice system (random placement does not "
        "domain-decompose deterministically)");
  if (spec.forcefield.kind == ForceFieldKind::kLennardJones)
    throw ScenarioError(
        "parallel runs support the Tosi-Fumi salts only (lennard-jones is "
        "single-process for now)");
  if (!spec.forcefield.coulomb)
    throw ScenarioError("parallel runs require coulomb = true");
  if (spec.ensemble.kind == EnsembleKind::kNpt)
    throw ScenarioError(
        "parallel runs do not support npt (box changes do not decompose)");
  if (spec.ensemble.thermostat != ThermostatKind::kVelocityScaling)
    throw ScenarioError(
        "parallel runs support the velocity-scaling thermostat only");

  host::ParallelAppConfig config;
  config.real_processes = machine.real_ranks;
  config.wn_processes = machine.kspace_ranks > 0 ? machine.kspace_ranks : 1;
  config.backend = machine.backend;
  config.protocol = build_protocol(spec);
  config.include_tosi_fumi = true;
  config.tosi_fumi = spec.forcefield.kind == ForceFieldKind::kTosiFumiNaCl
                         ? TosiFumiParameters::nacl()
                         : TosiFumiParameters::kcl();

  const double n = static_cast<double>(system.size());
  const double box = system.box();
  EwaldParameters ewald =
      spec.forcefield.alpha > 0.0
          ? parameters_from_alpha(spec.forcefield.alpha, box)
          : host::mdm_parameters(n, box);
  if (spec.forcefield.r_cut > 0.0) ewald.r_cut = spec.forcefield.r_cut;
  config.ewald = clamp_to_box(ewald, box);

  // K-space solver selection (DESIGN.md §12): explicit sf/pme, or the perf
  // model's pick at the accuracy target.
  config.pme.order = machine.pme_order;
  config.pme.grid = machine.pme_grid > 0
                        ? machine.pme_grid
                        : perf::recommended_pme_mesh(config.ewald,
                                                     config.pme.order);
  if (machine.solver == "auto")
    config.kspace_solver =
        perf::recommended_app_solver(perf::SolverCostModel{}, n, box,
                                     config.ewald, host::resolved_pme(config),
                                     machine.accuracy_target) ==
                perf::KspaceMethod::kPme
            ? host::KspaceSolver::kPme
            : host::KspaceSolver::kStructureFactor;
  else
    config.kspace_solver = host::kspace_solver_from_string(machine.solver);
  return config;
}

}  // namespace mdm::scenario
