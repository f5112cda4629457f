#include "serve/runner.hpp"

#include <utility>

#include "scenario/engine.hpp"
#include "scenario/parser.hpp"

namespace mdm::serve {

JobResult run_job(const JobSpec& spec, const RunOptions& options) {
  const scenario::ScenarioSpec sc = job_scenario(spec);
  scenario::validate(sc, "job");

  scenario::ScenarioOptions so;
  so.pool = options.pool;
  so.machine = job_machine(spec);
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
