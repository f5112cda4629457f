#include "core/simulation.hpp"

#include <cmath>
#include <stdexcept>

#include "core/barostat.hpp"
#include "core/checkpoint.hpp"
#include "core/observables.hpp"
#include "obs/step_breakdown.hpp"
#include "obs/trace.hpp"

namespace mdm {

Simulation::Simulation(ParticleSystem& system, ForceField& field,
                       SimulationConfig config)
    : system_(&system), field_(&field), config_(config), integrator_(field),
      health_(config.health) {
  if (config_.dt_fs <= 0.0) throw std::invalid_argument("dt must be positive");
  if (config_.sample_interval < 1 || config_.rescale_interval < 1)
    throw std::invalid_argument("intervals must be >= 1");
  switch (config_.thermostat) {
    case ThermostatKind::kVelocityScaling:
      thermostat_ = std::make_unique<VelocityScalingThermostat>();
      break;
    case ThermostatKind::kBerendsen:
      thermostat_ = std::make_unique<BerendsenThermostat>(
          config_.thermostat_tau_fs);
      break;
  }
}

void Simulation::set_barostat(Barostat* barostat, int interval) {
  if (barostat && interval < 1)
    throw std::invalid_argument("barostat interval must be >= 1");
  barostat_ = barostat;
  barostat_interval_ = interval;
}

CheckpointState Simulation::checkpoint_state() const {
  auto state = CheckpointState::capture(
      *system_, static_cast<std::uint64_t>(current_step_),
      current_step_ * config_.dt_fs * 1e-3);
  state.thermostat = thermostat_->state();
  if (barostat_) state.barostat = barostat_->state();
  return state;
}

void Simulation::restore(const CheckpointState& state) {
  if (barostat_ && state.box != system_->box()) {
    // An NPT run's volume drifts from the construction-time box; adopt the
    // checkpointed edge before apply_to's exact-box check.
    system_->set_box(state.box);
    field_->set_box(state.box);
  }
  state.apply_to(*system_);
  thermostat_->set_state(state.thermostat);
  if (barostat_) barostat_->set_state(state.barostat);
  current_step_ = resume_step_ = static_cast<int>(state.step);
  integrator_.invalidate();
  // The restore teleported every particle: lazy position-anchored caches in
  // the force field (native cell-list displacement tracking) must not
  // compare the restored coordinates against the dead trajectory's anchor.
  field_->invalidate_caches();
  health_.reset_energy_reference();
}

void Simulation::record(int step) {
  obs::ScopedPhase phase(obs::Phase::kHost);
  obs::TraceSpan span("sim.sample");
  Sample s;
  s.step = step;
  s.time_ps = step * config_.dt_fs * 1e-3;
  s.temperature_K = system_->temperature();
  s.kinetic_eV = system_->kinetic_energy();
  s.potential_eV = integrator_.potential();
  s.total_eV = s.kinetic_eV + s.potential_eV;
  s.pressure_GPa =
      pressure(*system_, integrator_.virial()) * kEvPerA3InGPa;
  samples_.push_back(s);
}

void Simulation::step_hooks(int step, bool nve) {
  current_step_ = step;
  if (config_.health.check_finite) {
    health_.check_finite_span(system_->positions(), "position", step);
    health_.check_finite_span(system_->velocities(), "velocity", step);
    health_.check_finite_span(integrator_.forces(), "force", step);
  }
  if (!samples_.empty() && samples_.back().step == step) {
    const Sample& s = samples_.back();
    health_.check_temperature(s.temperature_K, step);
    if (nve) health_.observe_energy(s.total_eV, step);
  }
}

void Simulation::run(const std::function<void(const Sample&)>& observer,
                     const std::function<void(int)>& step_end) {
  {
    // prime() evaluates the forces once before the loop — count it as step
    // 0 so the Table-1 phase accumulators line up with the step count.
    // After a restore the step-0 sample is skipped: the restored run's
    // samples continue from resume_step + 1.
    obs::TraceSpan span("sim.step");
    const std::uint64_t t0 = obs::Trace::now_ns();
    integrator_.prime(*system_);
    if (resume_step_ == 0) record(0);
    obs::record_step(static_cast<double>(obs::Trace::now_ns() - t0) * 1e-6);
  }
  if (resume_step_ == 0) {
    if (observer) observer(samples_.back());
    if (step_end) step_end(0);
  }

  const int total = config_.nvt_steps + config_.nve_steps;
  for (int step = resume_step_ + 1; step <= total; ++step) {
    obs::TraceSpan span("sim.step");
    const std::uint64_t t0 = obs::Trace::now_ns();
    integrator_.step(*system_, config_.dt_fs);
    const bool nvt_phase = step <= config_.nvt_steps;
    if (nvt_phase && step % config_.rescale_interval == 0) {
      obs::ScopedPhase thermostat_phase(obs::Phase::kHost);
      obs::TraceSpan thermostat_span("sim.thermostat");
      const double target = config_.temperature_schedule
                                ? config_.temperature_schedule(step)
                                : config_.temperature_K;
      thermostat_->apply(*system_, target, config_.dt_fs);
    }
    if (step % config_.sample_interval == 0) {
      record(step);
      if (observer) observer(samples_.back());
    }
    if (barostat_ && step % barostat_interval_ == 0) {
      // Before step_end so a checkpoint written this step captures the
      // post-coupling box and barostat state — the resumed run then skips
      // straight to step + 1 without replaying (or losing) this move.
      obs::ScopedPhase barostat_phase(obs::Phase::kHost);
      obs::TraceSpan barostat_span("sim.barostat");
      const ForceResult last{integrator_.potential(), integrator_.virial()};
      if (barostat_->apply(*system_, *field_, last,
                           barostat_interval_ * config_.dt_fs)) {
        integrator_.invalidate();
        field_->invalidate_caches();
      }
    }
    step_hooks(step, /*nve=*/!nvt_phase);
    if (step_end) step_end(step);
    obs::record_step(static_cast<double>(obs::Trace::now_ns() - t0) * 1e-6);
  }
}

void Simulation::run_nve(int steps,
                         const std::function<void(const Sample&)>& observer) {
  {
    obs::TraceSpan span("sim.step");
    const std::uint64_t t0 = obs::Trace::now_ns();
    const bool primed = integrator_.prime(*system_);
    if (samples_.empty()) record(0);
    if (primed)
      obs::record_step(static_cast<double>(obs::Trace::now_ns() - t0) * 1e-6);
  }
  if (!samples_.empty() && samples_.back().step == 0 && observer)
    observer(samples_.back());
  const int start = samples_.empty() ? 0 : samples_.back().step;
  for (int step = start + 1; step <= start + steps; ++step) {
    obs::TraceSpan span("sim.step");
    const std::uint64_t t0 = obs::Trace::now_ns();
    integrator_.step(*system_, config_.dt_fs);
    if (step % config_.sample_interval == 0) {
      record(step);
      if (observer) observer(samples_.back());
    }
    step_hooks(step, /*nve=*/true);
    obs::record_step(static_cast<double>(obs::Trace::now_ns() - t0) * 1e-6);
  }
}

std::vector<Sample> Simulation::nve_samples() const {
  std::vector<Sample> out;
  for (const auto& s : samples_)
    if (s.step >= config_.nvt_steps) out.push_back(s);
  return out;
}

double Simulation::nve_energy_drift() const {
  const auto nve = nve_samples();
  if (nve.size() < 2) return 0.0;
  const double e0 = nve.front().total_eV;
  double worst = 0.0;
  for (const auto& s : nve)
    worst = std::max(worst, std::fabs(s.total_eV - e0));
  return worst / std::fabs(e0);
}

}  // namespace mdm
