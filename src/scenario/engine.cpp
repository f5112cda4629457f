#include "scenario/engine.hpp"

#include <cstdio>
#include <optional>

#include "core/checkpoint.hpp"
#include "core/manifest.hpp"
#include "scenario/analysis.hpp"
#include "scenario/builder.hpp"
#include "scenario/parallel.hpp"

namespace mdm::scenario {

namespace {
struct CancelledSignal {};
}  // namespace

std::string run_key(const std::string& spec_text, const Machine& machine) {
  char accuracy[32];
  std::snprintf(accuracy, sizeof accuracy, "%.17g", machine.accuracy_target);
  return spec_text + "\n[machine]\nbackend=" + to_string(machine.backend) +
         ";preal=" + std::to_string(machine.real_ranks) +
         ";pwn=" + std::to_string(machine.kspace_ranks) +
         ";solver=" + machine.solver + ";acc=" + accuracy +
         ";pmegrid=" + std::to_string(machine.pme_grid) +
         ";pmeorder=" + std::to_string(machine.pme_order) + ";";
}

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const ScenarioOptions& options) {
  ParticleSystem system = build_system(spec);
  const int equilibration = spec.run.equilibration;
  const int total = equilibration + spec.run.production;

  ScenarioResult out;
  std::optional<CheckpointManager> checkpoints;
  std::optional<ManifestStore> manifests;
  std::optional<CheckpointState> resume_state;
  // Manifest identity: what this run computes. A directory holding another
  // spec's (or machine's) pairs is never resumed.
  std::uint64_t job_key = 0;
  const bool checkpointing =
      options.checkpoint_interval > 0 && !options.checkpoint_dir.empty();
  if (checkpointing) {
    checkpoints.emplace(options.checkpoint_dir, options.keep_generations);
    manifests.emplace(options.checkpoint_dir, options.keep_generations);
    job_key = job_key_hash(run_key(spec.canonical_text(), options.machine));
    if (options.resume) {
      if (auto rp = find_resume_point(options.checkpoint_dir, job_key,
                                      system.size());
          rp && rp->state.step > 0) {
        out.resumed_from_step = rp->state.step;
        out.samples = std::move(rp->manifest.samples);
        while (!out.samples.empty() &&
               out.samples.back().step > static_cast<int>(rp->state.step))
          out.samples.pop_back();
        resume_state = std::move(rp->state);
      }
    }
  }
  out.completed_steps = static_cast<int>(out.resumed_from_step);
  if (options.on_sample)
    for (const auto& s : out.samples) options.on_sample(s);

  // Checkpoint first, then the manifest naming it, so the newest manifest
  // always points at an on-disk generation.
  auto write_manifest = [&](std::uint64_t step,
                            const std::vector<Sample>& tail) {
    JobResumeManifest m;
    m.job_key = job_key;
    m.step = step;
    m.total_steps = static_cast<std::uint32_t>(total);
    m.samples = out.samples;
    m.samples.insert(m.samples.end(), tail.begin(), tail.end());
    manifests->write(m);
  };

  if (options.machine.real_ranks > 0) {
    // The parallel engine: the app writes each generation and its hook the
    // manifest, before the ranks move on. Analyses need the configuration
    // at every sample, which stays spread over the ranks.
    host::ParallelAppConfig config =
        parallel_app_config(spec, options.machine, system);
    config.cancel = options.cancel;
    config.restore = std::move(resume_state);
    config.on_sample = [&](const Sample& s) {
      out.samples.push_back(s);
      if (options.on_sample) options.on_sample(s);
    };
    if (checkpointing) {
      config.checkpoint_dir = options.checkpoint_dir;
      config.checkpoint_interval = options.checkpoint_interval;
      config.checkpoint_keep = options.keep_generations;
      config.on_checkpoint = [&](const CheckpointState& state) {
        write_manifest(state.step, {});
      };
    }
    host::ParallelRunResult run = host::MdmParallelApp(config).run(system);
    out.cancelled = run.cancelled;
    out.completed_steps = run.completed_steps;
    out.final_box_A = system.box();
    if (!spec.analyses.empty())
      out.analysis_report = "analyses skipped on the parallel engine\n";
    out.positions = std::move(run.positions);
    out.velocities = std::move(run.velocities);
    return out;
  }

  auto field = build_force_field(spec, system, options.pool,
                                 options.machine.backend);
  auto barostat = build_barostat(spec);
  Simulation sim(system, *field, build_protocol(spec));
  if (barostat)
    sim.set_barostat(barostat.get(), spec.ensemble.barostat_interval);
  if (resume_state) sim.restore(*resume_state);

  int last_pair_step = out.completed_steps;
  auto write_pair = [&](int step) {
    checkpoints->write(sim.checkpoint_state());
    write_manifest(static_cast<std::uint64_t>(step), sim.samples());
    last_pair_step = step;
  };

  AnalysisSet analyses(spec, options.output_dir);
  double pressure_sum = 0.0;
  double box_sum = 0.0;
  std::size_t production_samples = 0;

  try {
    sim.run(
        [&](const Sample& s) {
          if (s.step > equilibration) {
            analyses.sample(system, s);
            pressure_sum += s.pressure_GPa;
            box_sum += system.box();
            ++production_samples;
          }
          if (options.on_sample) options.on_sample(s);
        },
        // End of step: the barostat has coupled, so a pair written here
        // resumes at step + 1 without skipping that step's volume move.
        [&](int step) {
          out.completed_steps = step;
          const bool unsaved = checkpointing && step > last_pair_step;
          const bool cancel = options.cancel && step < total &&
                              options.cancel->load(std::memory_order_relaxed);
          if (unsaved && (step % options.checkpoint_interval == 0 ||
                          (cancel && options.checkpoint_on_cancel)))
            write_pair(step);
          if (cancel) throw CancelledSignal{};
        });
  } catch (const CancelledSignal&) {
    out.cancelled = true;
  }

  out.samples.insert(out.samples.end(), sim.samples().begin(),
                     sim.samples().end());
  if (production_samples > 0) {
    out.mean_pressure_GPa =
        pressure_sum / static_cast<double>(production_samples);
    out.mean_box_A = box_sum / static_cast<double>(production_samples);
  }
  out.final_box_A = system.box();
  if (spec.ensemble.kind == EnsembleKind::kNve)
    out.nve_energy_drift = sim.nve_energy_drift();
  out.outputs = analyses.finalize();
  out.analysis_report = analyses.report();
  out.positions.assign(system.positions().begin(), system.positions().end());
  out.velocities.assign(system.velocities().begin(),
                        system.velocities().end());
  return out;
}

}  // namespace mdm::scenario
