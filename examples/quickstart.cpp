/// \file quickstart.cpp
/// Five-minute tour of the library: build a small NaCl melt, attach the
/// simulated MDM machine (WINE-2 + MDGRAPE-2 + host orchestration) as the
/// force provider, run the paper's NVT->NVE protocol and print the sampled
/// observables.
///
///   ./quickstart [--cells 2] [--nvt 20] [--nve 20] [--temperature 1200]

#include <cstdio>

#include "core/lattice.hpp"
#include "core/simulation.hpp"
#include "host/mdm_force_field.hpp"
#include "util/cli.hpp"

static int cli_main(const mdm::CommandLine& cli) {
  using namespace mdm;
  const int cells = static_cast<int>(cli.get_int("cells", 2));
  const double temperature = cli.get_double("temperature", 1200.0);

  // 1. The system: an n x n x n rock-salt supercell at the paper's melt
  //    density, with Maxwell-Boltzmann velocities.
  auto system = make_nacl_crystal(cells);
  assign_maxwell_velocities(system, temperature, /*seed=*/2000);
  std::printf("NaCl melt: %zu ions, box %.2f A, density %.4f 1/A^3\n",
              system.size(), system.box(), system.number_density());

  // 2. The machine: Ewald parameters sized for the hardware (the cell-index
  //    board needs box >= 3 r_cut), one MDGRAPE-2 cluster + one small
  //    WINE-2 slice.
  host::MdmForceFieldConfig config;
  config.ewald = host::mdm_parameters(double(system.size()), system.box());
  config.mdgrape = {.clusters = 1, .boards_per_cluster = 2};
  config.wine = {.clusters = 1, .boards_per_cluster = 1, .chips_per_board = 4};
  host::MdmForceField machine(config, system.box());
  std::printf("Ewald: alpha=%.2f r_cut=%.2f A, Lk_cut=%.2f (%zu k-vectors)\n",
              config.ewald.alpha, config.ewald.r_cut, config.ewald.lk_cut,
              machine.kvectors().size());

  // 3. The protocol: velocity-scaling NVT, then NVE (sec. 5 of the paper).
  SimulationConfig protocol;
  protocol.temperature_K = temperature;
  protocol.nvt_steps = static_cast<int>(cli.get_int("nvt", 20));
  protocol.nve_steps = static_cast<int>(cli.get_int("nve", 20));
  protocol.sample_interval = 5;
  Simulation sim(system, machine, protocol);

  std::printf("\n%6s %9s %12s %14s %14s\n", "step", "time/ps", "T/K",
              "E_pot/eV", "E_tot/eV");
  sim.run([](const Sample& s) {
    std::printf("%6d %9.4f %12.2f %14.4f %14.4f\n", s.step, s.time_ps,
                s.temperature_K, s.potential_eV, s.total_eV);
  });

  std::printf("\nNVE energy drift: %.2e relative\n", sim.nve_energy_drift());
  std::printf("MDGRAPE-2 pair operations: %llu\n",
              static_cast<unsigned long long>(machine.mdgrape_pair_operations()));
  std::printf("WINE-2 wave-particle operations: %llu\n",
              static_cast<unsigned long long>(
                  machine.wine_wave_particle_operations()));
  return 0;
}

int main(int argc, char** argv) { return mdm::run_cli(argc, argv, cli_main); }
