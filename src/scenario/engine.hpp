#pragma once

/// \file engine.hpp
/// Run one scenario end to end: build the system and force field, execute
/// the ensemble protocol (with the barostat wired in for NPT), feed every
/// production sample through the AnalysisSet, and report means the tests
/// and the service assert on (pressure, box). This is the single-process
/// job path: serve::run_job hands every serial job here, legacy NaCl jobs
/// included, so checkpoint/manifest resume, the cancel drain and sample
/// streaming live only in this file.

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/simulation.hpp"
#include "scenario/spec.hpp"
#include "util/thread_pool.hpp"

namespace mdm::scenario {

struct ScenarioOptions {
  ThreadPool* pool = nullptr;  ///< borrowed; nullptr = serial sweeps
  /// Force-evaluation backend (build_force_field).
  Backend backend = Backend::kEmulator;
  /// Cooperative cancellation, polled at the end of every step.
  const std::atomic<bool>* cancel = nullptr;
  /// Directory for analysis outputs; empty runs the samplers but skips
  /// finalize-time files (trajectory samplers then write into the cwd).
  std::string output_dir;
  /// Every sample of the result, in step order, as it is produced — after a
  /// resume the manifest's prefix first.
  std::function<void(const Sample&)> on_sample;
  /// Rotating checkpoint + manifest pairs (core/checkpoint v3, carrying
  /// barostat state, and core/manifest, carrying the sample prefix); empty
  /// dir or interval 0 disables. `resume` continues from the newest valid
  /// pair of this spec and backend, and the result is then the complete
  /// trajectory.
  std::string checkpoint_dir;
  int checkpoint_interval = 0;
  int keep_generations = 3;
  bool resume = false;
  /// With checkpointing on: a cancel writes a pair at the exact cancel step
  /// before unwinding, so a drained job resumes with zero recomputation.
  bool checkpoint_on_cancel = false;
};

struct ScenarioResult {
  /// The whole trajectory, the resumed-from prefix included.
  std::vector<Sample> samples;
  bool cancelled = false;
  std::uint64_t resumed_from_step = 0;
  int completed_steps = 0;  ///< last completed step
  /// Means over the production samples this process recorded (after a
  /// resume: the tail only, like the analysis outputs).
  double mean_pressure_GPa = 0.0;
  double mean_box_A = 0.0;
  double final_box_A = 0.0;
  double nve_energy_drift = 0.0;  ///< NVE ensemble only
  std::string analysis_report;
  std::vector<std::string> outputs;  ///< analysis files written
  std::vector<Vec3> positions;
  std::vector<Vec3> velocities;
};

/// Execute `spec`. The spec must already be validated (scenario/parser does
/// this; call validate() for specs built in code). Engine errors (numerical
/// health, checkpoint I/O, a backend that cannot evaluate the force field)
/// propagate.
ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const ScenarioOptions& options = {});

}  // namespace mdm::scenario
