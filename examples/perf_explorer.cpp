/// \file perf_explorer.cpp
/// Interactive front-end to the performance model: predict the step time,
/// optimal alpha and speeds for any machine configuration and workload
/// (the what-if tool behind sec. 6's upgrade discussion).
///
///   ./perf_explorer [--n 18821096] [--box 850]
///                   [--mdgrape-chips 64] [--wine-chips 2240]
///                   [--mdgrape-eff 0.26] [--wine-eff 0.29] [--alpha 0]

#include <cstdio>

#include "perf/machine_model.hpp"
#include "perf/table4.hpp"
#include "util/cli.hpp"

static int cli_main(const mdm::CommandLine& cli) {
  using namespace mdm;
  using namespace mdm::perf;

  PaperWorkload workload;
  workload.n_particles = cli.get_double("n", 18821096.0);
  workload.box = cli.get_double("box", 850.0);

  MachineModel machine = MachineModel::mdm_current();
  machine.name = "custom";
  machine.mdgrape_chips =
      static_cast<int>(cli.get_int("mdgrape-chips", machine.mdgrape_chips));
  machine.wine_chips =
      static_cast<int>(cli.get_int("wine-chips", machine.wine_chips));
  machine.mdgrape_efficiency =
      cli.get_double("mdgrape-eff", machine.mdgrape_efficiency);
  machine.wine_efficiency =
      cli.get_double("wine-eff", machine.wine_efficiency);

  double alpha = cli.get_double("alpha", 0.0);
  if (alpha <= 0.0) alpha = optimal_alpha(machine, workload.n_particles);
  const auto params =
      parameters_from_alpha(alpha, workload.box, workload.accuracy);
  const auto flops =
      ewald_step_flops(workload.n_particles, workload.box, params);
  const auto timing =
      predict_step(machine, workload.n_particles, workload.box, params);

  std::printf("Machine: %d MDGRAPE-2 chips (%.1f Tflops peak, %.0f%% eff), "
              "%d WINE-2 chips (%.1f Tflops peak, %.0f%% eff)\n",
              machine.mdgrape_chips, machine.mdgrape_peak_flops() / 1e12,
              100 * machine.mdgrape_efficiency, machine.wine_chips,
              machine.wine_peak_flops() / 1e12,
              100 * machine.wine_efficiency);
  std::printf("Workload: N=%.0f, L=%.0f A\n\n", workload.n_particles,
              workload.box);
  std::printf("optimal alpha            : %.1f\n", alpha);
  std::printf("r_cut / Lk_cut           : %.1f A / %.1f\n", params.r_cut,
              params.lk_cut);
  std::printf("real-space flops/step    : %.3e (N_int_g = %.3e)\n",
              flops.real_grape, flops.n_int_g);
  std::printf("wavenumber flops/step    : %.3e (N_wv = %.3e)\n",
              flops.wavenumber, flops.n_wv);
  std::printf("predicted step time      : %.2f s (real %.2f | wn %.2f | "
              "host %.3f | comm %.3f)\n",
              timing.total_seconds(), timing.real_seconds,
              timing.wavenumber_seconds, timing.host_seconds,
              timing.comm_seconds);
  std::printf("calculation speed        : %.2f Tflops\n",
              flops.total_grape() / timing.total_seconds() / 1e12);

  const double min_flops =
      ewald_step_flops(workload.n_particles, workload.box,
                       parameters_from_alpha(
                           balanced_alpha(workload.n_particles), workload.box))
          .total_host();
  std::printf("effective speed          : %.2f Tflops (vs %.3e min flops)\n",
              min_flops / timing.total_seconds() / 1e12, min_flops);
  return 0;
}

int main(int argc, char** argv) { return mdm::run_cli(argc, argv, cli_main); }
