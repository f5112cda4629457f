#pragma once

/// \file engine.hpp
/// Run one scenario end to end: build the system and force field, execute
/// the ensemble protocol (with the barostat wired in for NPT), feed every
/// production sample through the AnalysisSet, and report means the tests
/// and the service assert on (pressure, box). With real ranks the same
/// system runs on MdmParallelApp instead. serve::run_job hands every job
/// here, so checkpoint/manifest resume, the cancel drain and sample
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

/// Where a scenario runs: one process (real_ranks == 0), or MdmParallelApp
/// with real_ranks + kspace_ranks ranks (scenario/parallel.hpp). The
/// solver ("sf", "pme" or "auto" at accuracy_target) and PME mesh (grid 0
/// = sized from the wave cutoff) apply to the parallel machine only.
struct Machine {
  Backend backend = Backend::kEmulator;
  int real_ranks = 0;
  int kspace_ranks = 2;
  std::string solver = "sf";
  double accuracy_target = 5e-4;
  int pme_grid = 0;
  int pme_order = 6;
};

/// What a run computes: a spec's canonical text, then the machine's
/// fields. Keys both the manifests and serve's canonical job key, so a
/// pair never resumes another spec or machine.
std::string run_key(const std::string& spec_text, const Machine& machine);

struct ScenarioOptions {
  ThreadPool* pool = nullptr;  ///< borrowed; nullptr = serial sweeps
  Machine machine;
  /// Cooperative cancellation, polled at the end of every step.
  const std::atomic<bool>* cancel = nullptr;
  /// Directory for analysis outputs; empty runs the samplers but skips
  /// finalize-time files (trajectory samplers then write into the cwd).
  std::string output_dir;
  /// Every sample of the result, in step order, as it is produced — after a
  /// resume the manifest's prefix first (on rank 0's thread in parallel).
  std::function<void(const Sample&)> on_sample;
  /// Rotating checkpoint + manifest pairs (core/checkpoint v3, carrying
  /// barostat state, and core/manifest, carrying the sample prefix); empty
  /// dir or interval 0 disables. `resume` continues from the newest valid
  /// pair of this spec and machine, and the result is then the complete
  /// trajectory.
  std::string checkpoint_dir;
  int checkpoint_interval = 0;
  int keep_generations = 3;
  bool resume = false;
  /// With checkpointing on: a cancel writes a pair at the exact cancel step
  /// before unwinding, so a drained job resumes with zero recomputation.
  /// One process only: a cancelled parallel run resumes from its last
  /// interval pair.
  bool checkpoint_on_cancel = false;
};

struct ScenarioResult {
  /// The whole trajectory, the resumed-from prefix included.
  std::vector<Sample> samples;
  bool cancelled = false;
  std::uint64_t resumed_from_step = 0;
  int completed_steps = 0;  ///< last completed step
  /// Means over the production samples this process recorded (after a
  /// resume: the tail only, like the analysis outputs). A parallel run
  /// records no pressure and skips the analyses.
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
/// health, checkpoint I/O, a force field the machine cannot evaluate)
/// propagate.
ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const ScenarioOptions& options = {});

}  // namespace mdm::scenario
