/// \file parallel_mdm.cpp
/// The full sec. 4 software stack: the MD program parallelized over
/// real-space processes (domain decomposition + halo exchange + MDGRAPE-2
/// clusters) and wavenumber processes (the MPI-parallel WINE-2 library),
/// running on the virtual MPI world. Default layout is the paper's 16 + 8,
/// scaled down in workload.
///
///   ./parallel_mdm [--cells 2] [--real-ranks 16] [--kspace-ranks 8]
///                  [--nx 0 --ny 0 --nz 0] [--nvt 6] [--nve 6] [--boards 2]
///                  [--threads N] [--backend emulator|native]
///                  [--solver sf|pme|auto] [--accuracy 5e-4]
///                  [--pme-grid 0] [--pme-order 6]
///
/// `--real-ranks R --kspace-ranks W` choose ANY decomposition (the paper's
/// 16 + 8 is just the default); `--nx/--ny/--nz` pin the real-space domain
/// grid instead of the near-cubic auto factorization. `--solver pme` runs
/// the slab-decomposed particle-mesh engine on the wavenumber ranks;
/// `--solver auto` lets the perf model pick the cheaper of the exact
/// structure-factor sum and PME at the `--accuracy` RMS force-error target
/// (DESIGN.md §12). `--pme-grid 0` sizes the mesh from the Ewald wave
/// cutoff. `--real/--wn` remain as aliases.
///
/// Fault-tolerance demo (DESIGN.md "Failure model of the virtual fabric"):
///   MDM_FAULT_SPEC="drop:tag=200,count=1" ./parallel_mdm     # retransmit
///   MDM_FAULT_SPEC="failboard:rank=1,board=0,step=3" ...     # degrade
///   MDM_FAULT_SPEC="failrank:rank=5,step=4" ...              # clean error
///
/// Checkpoint/restart demo (DESIGN.md §8):
///   ./parallel_mdm --checkpoint-every 2 --checkpoint-dir ckpt
///   ./parallel_mdm --restore ckpt/ckpt.000004.mdm            # resume a file
///   MDM_FAULT_SPEC="failrank:rank=1,step=4" ./parallel_mdm
///       --checkpoint-every 2 --checkpoint-dir ckpt --recover # kill + resume

#include <cstdio>
#include <exception>

#include <string>

#include "core/checkpoint.hpp"
#include "host/parallel_app.hpp"
#include "scenario/builder.hpp"
#include "scenario/parallel.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

static int cli_main(const mdm::CommandLine& cli) {
  using namespace mdm;
  // Size the global pool before anything touches it (same effect as
  // MDM_THREADS, but scriptable per invocation).
  if (const long threads = cli.get_int("threads", 0); threads >= 1)
    ThreadPool::set_global_threads(static_cast<unsigned>(threads));
  const int cells = static_cast<int>(cli.get_int("cells", 2));

  // The workload as a declarative scenario (src/scenario): the shared NaCl
  // helper builds the crystal + velocities, and the parallel bridge
  // resolves the machine the flags name as run_scenario does.
  scenario::ScenarioSpec spec =
      scenario::nacl_melt_scenario(cells, /*steps=*/12, 1200.0, /*seed=*/42);
  spec.run.equilibration = static_cast<int>(cli.get_int("nvt", 6));
  spec.run.production = static_cast<int>(cli.get_int("nve", 6));
  auto system = scenario::build_system(spec);

  scenario::Machine machine;
  machine.backend = backend_from_string(cli.get_string("backend", "emulator"));
  machine.real_ranks = static_cast<int>(
      cli.get_int("real-ranks", cli.get_int("real", 16)));
  machine.kspace_ranks = static_cast<int>(
      cli.get_int("kspace-ranks", cli.get_int("wn", 8)));
  machine.solver = cli.get_string("solver", "sf");
  machine.accuracy_target = cli.get_double("accuracy", 5e-4);
  machine.pme_grid = static_cast<int>(cli.get_int("pme-grid", 0));
  machine.pme_order = static_cast<int>(cli.get_int("pme-order", 6));
  host::ParallelAppConfig config =
      scenario::parallel_app_config(spec, machine, system);
  config.domain_nx = static_cast<int>(cli.get_int("nx", 0));
  config.domain_ny = static_cast<int>(cli.get_int("ny", 0));
  config.domain_nz = static_cast<int>(cli.get_int("nz", 0));
  config.mdgrape_boards_per_process =
      static_cast<int>(cli.get_int("boards", 2));
  config.wine_boards_per_process = 1;
  config.checkpoint_interval =
      static_cast<int>(cli.get_int("checkpoint-every", 0));
  config.checkpoint_dir = cli.get_string(
      "checkpoint-dir", config.checkpoint_interval > 0 ? "ckpt" : "");
  config.checkpoint_keep = static_cast<int>(cli.get_int("checkpoint-keep", 3));
  const std::string restore = cli.get_string("restore", "");
  config.auto_recover = cli.get_bool("recover");
  if (machine.solver == "auto")
    std::printf("--solver auto: perf model picked %s\n",
                host::to_string(config.kspace_solver));

  std::printf("MDM parallel application: %d real-space + %d wavenumber "
              "processes, N=%zu, backend=%s, k-space=%s\n",
              config.real_processes, config.wn_processes, system.size(),
              to_string(config.backend),
              host::to_string(config.kspace_solver));
  const auto grid =
      config.domain_nx > 0
          ? host::DomainGrid(config.domain_nx, config.domain_ny,
                             config.domain_nz, system.box())
          : host::DomainGrid::for_processes(config.real_processes,
                                            system.box());
  std::printf("domain grid: %d x %d x %d, Ewald alpha=%.2f r_cut=%.2f",
              grid.nx(), grid.ny(), grid.nz(), config.ewald.alpha,
              config.ewald.r_cut);
  if (config.kspace_solver == host::KspaceSolver::kPme)
    std::printf(", PME mesh %d^3 order %d", config.pme.grid,
                config.pme.order);
  std::printf("\n");

  Timer timer;
  host::ParallelRunResult result;
  try {
    if (!restore.empty()) config.restore = read_checkpoint_file(restore);
    result = host::MdmParallelApp(config).run(system);
  } catch (const std::exception& e) {
    // A failed rank (injected or real) surfaces here as the original error
    // instead of a hung world.
    std::fprintf(stderr, "parallel_mdm: run failed: %s\n", e.what());
    return 1;
  }
  if (result.recoveries > 0)
    std::printf("recovered from %d rank failure(s); resumed from checkpoint "
                "at step %llu\n",
                result.recoveries,
                static_cast<unsigned long long>(result.restored_from_step));
  std::printf("\n%6s %9s %12s %14s\n", "step", "time/ps", "T/K", "E_tot/eV");
  for (const auto& s : result.samples)
    std::printf("%6d %9.4f %12.2f %14.4f\n", s.step, s.time_ps,
                s.temperature_K, s.total_eV);
  std::printf("\nwall clock: %.2f s for %zu ranks (threads)\n",
              timer.seconds(),
              std::size_t(config.real_processes + config.wn_processes));
  return 0;
}

int main(int argc, char** argv) { return mdm::run_cli(argc, argv, cli_main); }
