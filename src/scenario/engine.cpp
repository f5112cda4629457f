#include "scenario/engine.hpp"

#include <optional>

#include "core/checkpoint.hpp"
#include "core/manifest.hpp"
#include "scenario/analysis.hpp"
#include "scenario/builder.hpp"

namespace mdm::scenario {

namespace {
struct CancelledSignal {};
}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const ScenarioOptions& options) {
  ParticleSystem system = build_system(spec);
  auto field =
      build_force_field(spec, system, options.pool, options.backend);
  auto barostat = build_barostat(spec);

  Simulation sim(system, *field, build_protocol(spec));
  if (barostat)
    sim.set_barostat(barostat.get(), spec.ensemble.barostat_interval);

  const int equilibration = spec.run.equilibration;
  const int total = equilibration + spec.run.production;

  ScenarioResult out;
  std::optional<CheckpointManager> checkpoints;
  std::optional<ManifestStore> manifests;
  // Manifest identity: what this run computes. A directory holding another
  // spec's (or backend's) pairs is never resumed.
  std::uint64_t job_key = 0;
  const bool checkpointing =
      options.checkpoint_interval > 0 && !options.checkpoint_dir.empty();
  if (checkpointing) {
    checkpoints.emplace(options.checkpoint_dir, options.keep_generations);
    manifests.emplace(options.checkpoint_dir, options.keep_generations);
    job_key = job_key_hash(spec.canonical_text() + "backend=" +
                           to_string(options.backend));
    if (options.resume) {
      if (auto rp = find_resume_point(options.checkpoint_dir, job_key,
                                      system.size());
          rp && rp->state.step > 0) {
        sim.restore(rp->state);
        out.resumed_from_step = rp->state.step;
        out.samples = std::move(rp->manifest.samples);
        while (!out.samples.empty() &&
               out.samples.back().step > static_cast<int>(rp->state.step))
          out.samples.pop_back();
      }
    }
  }
  out.completed_steps = static_cast<int>(out.resumed_from_step);
  if (options.on_sample)
    for (const auto& s : out.samples) options.on_sample(s);

  // Checkpoint first, then the manifest naming it, so the newest manifest
  // always points at an on-disk generation.
  int last_pair_step = out.completed_steps;
  auto write_pair = [&](int step) {
    checkpoints->write(sim.checkpoint_state());
    JobResumeManifest m;
    m.job_key = job_key;
    m.step = static_cast<std::uint64_t>(step);
    m.total_steps = static_cast<std::uint32_t>(total);
    m.samples = out.samples;
    m.samples.insert(m.samples.end(), sim.samples().begin(),
                     sim.samples().end());
    manifests->write(m);
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
