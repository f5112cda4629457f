/// \file nacl_melt.cpp
/// The paper's production workload at laptop scale: molten NaCl at 1200 K
/// with the Tosi-Fumi force field and full (untruncated) Coulomb via Ewald
/// summation. The run mirrors sec. 5: start from the crystal at the melt
/// density, NVT with velocity scaling for the first 2/3 of the steps, NVE
/// for the last 1/3, dt = 2 fs. Writes the temperature/energy series to CSV
/// and optionally XYZ frames.
///
///   ./nacl_melt [--cells 4] [--steps 300] [--temperature 1200]
///               [--mdm] [--csv melt.csv] [--xyz melt.xyz] [--seed 1]
///               [--threads N]
///
/// --mdm runs on the simulated special-purpose machine instead of the
/// double-precision software path (slower, bit-faithful to the hardware).

#include <cstdio>
#include <memory>

#include "core/io.hpp"
#include "core/simulation.hpp"
#include "ewald/parameters.hpp"
#include "host/mdm_force_field.hpp"
#include "scenario/builder.hpp"
#include "util/cli.hpp"
#include "util/statistics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

static int cli_main(const mdm::CommandLine& cli) {
  using namespace mdm;
  // Size the global pool before anything touches it (same effect as
  // MDM_THREADS, but scriptable per invocation).
  if (const long threads = cli.get_int("threads", 0); threads >= 1)
    ThreadPool::set_global_threads(static_cast<unsigned>(threads));
  const int cells = static_cast<int>(cli.get_int("cells", 4));
  const int steps = static_cast<int>(cli.get_int("steps", 300));
  const double temperature = cli.get_double("temperature", 1200.0);
  const bool use_mdm = cli.get_bool("mdm");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  // The workload as a declarative scenario (src/scenario): the same spec is
  // bundled as examples/scenarios/nacl_melt.toml and runnable through
  // mdm_scenario and the service — bit-for-bit with this driver.
  const scenario::ScenarioSpec spec =
      scenario::nacl_melt_scenario(cells, steps, temperature, seed);
  auto system = scenario::build_system(spec);
  std::printf("NaCl melt: N=%zu (n=%d supercell), L=%.2f A, T=%.0f K\n",
              system.size(), cells, system.box(), temperature);

  // Force field: Ewald Coulomb + Tosi-Fumi short range, either as the
  // double-precision reference or on the simulated MDM.
  std::unique_ptr<ForceField> field;
  EwaldParameters params;
  if (use_mdm) {
    params = host::mdm_parameters(double(system.size()), system.box());
    host::MdmForceFieldConfig config;
    config.ewald = params;
    config.mdgrape = {.clusters = 2, .boards_per_cluster = 2};
    config.wine = {.clusters = 1, .boards_per_cluster = 2,
                   .chips_per_board = 4};
    config.potential_interval = 10;
    field = std::make_unique<host::MdmForceField>(config, system.box());
    std::printf("backend: simulated MDM machine\n");
  } else {
    params = scenario::ewald_parameters(spec, system);
    field = scenario::build_force_field(spec, system);
    std::printf("backend: double-precision software Ewald\n");
  }
  std::printf("Ewald: alpha=%.2f, r_cut=%.2f A, Lk_cut=%.2f\n", params.alpha,
              params.r_cut, params.lk_cut);

  const SimulationConfig protocol = scenario::build_protocol(spec);
  Simulation sim(system, *field, protocol);

  Timer timer;
  int printed = 0;
  sim.run([&](const Sample& s) {
    if (s.step % 50 == 0 || s.step == protocol.nvt_steps) {
      std::printf("  step %5d  t=%7.3f ps  T=%8.2f K  E=%12.4f eV%s\n",
                  s.step, s.time_ps, s.temperature_K, s.total_eV,
                  s.step == protocol.nvt_steps ? "  <- NVT->NVE" : "");
      ++printed;
    }
  });
  const double elapsed = timer.seconds();

  // Fluctuation statistics over the NVE phase (the physics of Fig. 2).
  RunningStats t_stats;
  for (const auto& s : sim.nve_samples()) t_stats.add(s.temperature_K);
  std::printf("\nNVE phase: <T> = %.2f K, sigma_T/<T> = %.4f "
              "(ideal-sampler 1/sqrt(N) prediction: %.4f)\n",
              t_stats.mean(), t_stats.stddev() / t_stats.mean(),
              std::sqrt(2.0 / (3.0 * double(system.size()))));
  std::printf("NVE energy drift: %.2e relative\n", sim.nve_energy_drift());
  std::printf("wall clock: %.2f s (%.3f s/step)\n", elapsed,
              elapsed / steps);

  if (const auto csv = cli.value("csv"); csv && !csv->empty()) {
    write_samples_csv(*csv, sim.samples());
    std::printf("wrote %s\n", csv->c_str());
  }
  if (const auto xyz = cli.value("xyz"); xyz && !xyz->empty()) {
    write_xyz_frame(*xyz, system, "final frame");
    std::printf("wrote %s\n", xyz->c_str());
  }
  return 0;
}

int main(int argc, char** argv) { return mdm::run_cli(argc, argv, cli_main); }
