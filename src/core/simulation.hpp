#pragma once

/// \file simulation.hpp
/// High-level simulation driver implementing the paper's run protocol
/// (sec. 5): an NVT phase with velocity scaling followed by an NVE phase,
/// sampling temperature and energies every step — the data behind Fig. 2 and
/// the energy-conservation claim.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/force_field.hpp"
#include "core/health.hpp"
#include "core/integrator.hpp"
#include "core/particle_system.hpp"
#include "core/thermostat.hpp"

namespace mdm {

struct CheckpointState;
class Barostat;

/// Thermostat used during the NVT phase. The paper's protocol is plain
/// velocity scaling (sec. 5); Berendsen weak coupling is the gentler option
/// the scenario engine exposes.
enum class ThermostatKind { kVelocityScaling, kBerendsen };

struct SimulationConfig {
  double dt_fs = 2.0;            ///< paper: 2 fs
  int nvt_steps = 2000;          ///< paper: first 2000 steps NVT
  int nve_steps = 1000;          ///< paper: last 1000 steps NVE
  double temperature_K = 1200.0; ///< paper: 1200 K
  int sample_interval = 1;       ///< record observables every k steps
  int rescale_interval = 1;      ///< apply thermostat every k steps
  /// Optional temperature schedule for the NVT phase (step -> target K);
  /// overrides temperature_K when set. This is how quench/solidification
  /// protocols (the ref. [14] study) are expressed.
  std::function<double(int)> temperature_schedule;
  /// Numerical-health watchdog, checked every step (core/health).
  HealthConfig health{};
  ThermostatKind thermostat = ThermostatKind::kVelocityScaling;
  /// Berendsen coupling time constant (fs); ignored by velocity scaling.
  double thermostat_tau_fs = 100.0;
};

/// One sampled point of the run.
struct Sample {
  int step = 0;
  double time_ps = 0.0;
  double temperature_K = 0.0;
  double kinetic_eV = 0.0;
  double potential_eV = 0.0;
  double total_eV = 0.0;
  /// Instantaneous pressure from the pair virial, GPa. Zero on the MDM
  /// backend (the hardware does not report a virial).
  double pressure_GPa = 0.0;
};

class Simulation {
 public:
  /// `system` and `field` are borrowed; they must outlive the Simulation.
  Simulation(ParticleSystem& system, ForceField& field,
             SimulationConfig config);

  /// Run the full NVT + NVE protocol. `observer`, if set, is called after
  /// every step with the freshly recorded state. `step_end`, if set, is
  /// called with the step number once the step is complete — after the
  /// thermostat, the barostat coupling and the health checks — so a
  /// checkpoint_state() taken there resumes at step + 1 without replaying
  /// or skipping any of it; this is where checkpoints are written. A fresh
  /// run also calls it for step 0 after priming. Either callback may throw
  /// to stop the run.
  void run(const std::function<void(const Sample&)>& observer = {},
           const std::function<void(int)>& step_end = {});

  /// Run only `steps` of NVE (used by the energy-conservation bench).
  void run_nve(int steps,
               const std::function<void(const Sample&)>& observer = {});

  const std::vector<Sample>& samples() const { return samples_; }

  /// Samples restricted to the NVE phase (step >= nvt_steps).
  std::vector<Sample> nve_samples() const;

  /// Max |E(t) - E(0)| / |E(0)| over the NVE samples — the paper reports
  /// < 5e-5 percent for the 18.8M-particle run.
  double nve_energy_drift() const;

  const SimulationConfig& config() const { return config_; }

  /// ---- checkpoint/restart (core/checkpoint, DESIGN.md §8) ----

  /// Snapshot the live run state (system + thermostat + barostat +
  /// progress); taken from run()'s `step_end`, a fresh Simulation restored
  /// from it continues the trajectory bit-identically.
  CheckpointState checkpoint_state() const;

  /// Resume from `state`: restores positions/velocities and thermostat
  /// accumulators; the next run() continues after state.step (its step-0
  /// sample is skipped).
  void restore(const CheckpointState& state);

  const Thermostat& thermostat() const { return *thermostat_; }

  /// Couple an isobaric run: `barostat` (borrowed, may be nullptr to
  /// disable) is applied at the end of every `interval` completed steps
  /// with coupling time interval * dt. When it reports a box change the
  /// integrator re-primes and force-field caches are invalidated, so the
  /// next step runs against the new geometry. Checkpoints then carry the
  /// barostat state and restore() re-applies a drifted box (format v3).
  void set_barostat(Barostat* barostat, int interval);

  const Barostat* barostat() const { return barostat_; }

 private:
  void record(int step);
  /// Per-step watchdog; `nve` marks drift-checked steps.
  void step_hooks(int step, bool nve);

  ParticleSystem* system_;
  ForceField* field_;  ///< borrowed; restore() must invalidate its caches
  SimulationConfig config_;
  VelocityVerlet integrator_;
  std::unique_ptr<Thermostat> thermostat_;
  std::vector<Sample> samples_;
  HealthMonitor health_;
  Barostat* barostat_ = nullptr;  ///< borrowed
  int barostat_interval_ = 1;
  int current_step_ = 0;
  int resume_step_ = 0;
};

}  // namespace mdm
