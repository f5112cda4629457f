#include "serve/runner.hpp"

#include <utility>

#include "core/lattice.hpp"
#include "host/mdm_force_field.hpp"
#include "host/parallel_app.hpp"
#include "perf/solver_select.hpp"
#include "scenario/engine.hpp"
#include "scenario/parser.hpp"

namespace mdm::serve {
namespace {

/// The MDM parallel backend (spec.parallel_real > 0): the same workload on
/// the full sec. 4 application — real-space + wavenumber ranks over the
/// virtual MPI fabric, MDGRAPE-2/WINE-2 simulators underneath. The caller's
/// ambient trace context (the job's) flows into every rank thread, so the
/// served job stays one trace across all ranks.
JobResult run_parallel_job(const JobSpec& spec, const RunOptions& options) {
  auto system = make_nacl_crystal(spec.cells);
  assign_maxwell_velocities(system, spec.temperature_K, spec.seed);

  host::ParallelAppConfig config;
  config.real_processes = spec.parallel_real;
  config.wn_processes = spec.parallel_wn > 0 ? spec.parallel_wn : 1;
  config.protocol.dt_fs = spec.dt_fs;
  config.protocol.temperature_K = spec.temperature_K;
  config.protocol.nvt_steps = spec.nvt_steps;
  config.protocol.nve_steps = spec.nve_steps;
  // The machine preset, not software_parameters: its higher alpha keeps
  // r_cut <= L/3, which the MDGRAPE cell-index scan requires even for the
  // smallest served jobs (software_parameters only guarantees L/2).
  config.ewald = host::mdm_parameters(double(system.size()), system.box());
  config.backend = spec.backend;
  config.cancel = options.cancel;

  // K-space solver selection (DESIGN.md §12): explicit sf/pme, or the perf
  // model's pick at the job's accuracy target.
  config.pme.order = spec.pme_order;
  config.pme.grid = spec.pme_grid > 0
                        ? spec.pme_grid
                        : perf::recommended_pme_mesh(config.ewald,
                                                     config.pme.order);
  if (spec.solver == "auto") {
    config.kspace_solver =
        perf::recommended_app_solver(
            perf::SolverCostModel{}, double(system.size()), system.box(),
            config.ewald, host::resolved_pme(config),
            spec.accuracy_target) == perf::KspaceMethod::kPme
            ? host::KspaceSolver::kPme
            : host::KspaceSolver::kStructureFactor;
  } else {
    config.kspace_solver = host::kspace_solver_from_string(spec.solver);
  }
  if (spec.checkpoint_interval > 0 && !options.checkpoint_dir.empty()) {
    config.checkpoint_dir = options.checkpoint_dir;
    config.checkpoint_interval = spec.checkpoint_interval;
    config.checkpoint_keep = options.keep_generations;
  }

  host::MdmParallelApp app(config);
  JobResult out;
  try {
    auto run = app.run(system);
    out.samples = std::move(run.samples);
    out.positions = std::move(run.positions);
    out.velocities = std::move(run.velocities);
    out.resumed_from_step = run.restored_from_step;
    out.completed_steps = spec.total_steps();
    out.state = JobState::kCompleted;
    // The parallel app has no per-step observer hook; stream the whole
    // trajectory at completion so pollers still converge to the full set.
    if (options.on_sample)
      for (const auto& s : out.samples) options.on_sample(s);
  } catch (const host::ParallelCancelled&) {
    out.state = JobState::kCancelled;
  }
  return out;
}

}  // namespace

JobResult run_job(const JobSpec& spec, const RunOptions& options) {
  if (spec.parallel_real > 0 && spec.scenario.empty())
    return run_parallel_job(spec, options);

  // Every other job is one scenario on the single-process engine, which
  // owns checkpoint/manifest resume, the cancel drain and streaming.
  const scenario::ScenarioSpec sc = job_scenario(spec);
  scenario::validate(sc, "job");

  scenario::ScenarioOptions so;
  so.pool = options.pool;
  so.backend = spec.backend;
  so.cancel = options.cancel;
  so.output_dir = spec.analysis_dir;
  so.on_sample = options.on_sample;
  if (spec.checkpoint_interval > 0 && !options.checkpoint_dir.empty()) {
    so.checkpoint_dir = options.checkpoint_dir;
    so.checkpoint_interval = spec.checkpoint_interval;
    so.keep_generations = options.keep_generations;
    so.resume = true;
  }
  so.checkpoint_on_cancel = options.checkpoint_on_cancel;

  scenario::ScenarioResult run = scenario::run_scenario(sc, so);
  JobResult out;
  out.state = run.cancelled ? JobState::kCancelled : JobState::kCompleted;
  out.samples = std::move(run.samples);
  out.positions = std::move(run.positions);
  out.velocities = std::move(run.velocities);
  out.completed_steps = run.completed_steps;
  out.resumed_from_step = run.resumed_from_step;
  return out;
}

}  // namespace mdm::serve
