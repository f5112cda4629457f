// The three melt workloads: the paper's NaCl protocol (NVT then NVE,
// 1200 K, 2 fs) through the serial Simulation (melt-serial) and through
// MdmParallelApp at R = 2 real-space by W = 2 wavenumber ranks on the
// emulated machine (melt-machine) or on the native backend with distributed
// PME (melt-pme).
#include <cmath>
#include <cstdio>
#include <memory>
#include <numbers>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/lattice.hpp"
#include "core/simulation.hpp"
#include "ewald/kvectors.hpp"
#include "ewald/parameters.hpp"
#include "host/mdm_force_field.hpp"
#include "host/parallel_app.hpp"
#include "layers.hpp"
#include "native/native_force_field.hpp"
#include "obs/trace.hpp"
#include "perf/solver_select.hpp"
#include "util/units.hpp"

namespace mdmbench {
namespace {

/// Seeded start: rock-salt crystal, Gaussian-jittered so step-0 forces are
/// not zero by symmetry, with Maxwell velocities at 1200 K.
constexpr double kJitterA = 0.1;

mdm::ParticleSystem initial_system(int cells, std::uint64_t seed) {
  auto system = mdm::make_nacl_crystal(cells);
  jitter_positions(system, seed, kJitterA);
  mdm::assign_maxwell_velocities(system, kTemperatureK, seed);
  return system;
}

void force_gate(const Options& opts, Report& report, const char* workload,
                std::vector<mdm::Vec3> forces,
                const std::vector<mdm::Vec3>& ref, double envelope) {
  mdm::obs::TraceSpan span("bench.force_gate");
  if (opts.fault == "force") perturb_forces(forces);
  const double err = rms_relative_error(forces, ref);
  char what[160];
  std::snprintf(what, sizeof what,
                "%s step-0 forces: rms relative error %.3g vs exact Ewald "
                "(envelope %.0e)",
                workload, err, envelope);
  report.operation(err <= envelope, what);
}

void drift_gate(Report& report, const char* workload, double drift) {
  char what[160];
  std::snprintf(what, sizeof what,
                "%s NVE energy drift %.3g (envelope %.0e)", workload, drift,
                kDriftEnvelope);
  report.operation(std::isfinite(drift) && drift <= kDriftEnvelope, what);
}

// ---------------------------------------------------------------- serial --

/// Everything serve::run_job builds for a native job, on the seeded start.
struct SerialRig {
  mdm::ParticleSystem system;
  mdm::EwaldParameters params;
  std::unique_ptr<mdm::native::NativeForceField> field;
  std::vector<mdm::Vec3> forces0;  ///< the priming (step-0) evaluation
};

SerialRig build_serial(int cells, std::uint64_t seed) {
  SerialRig rig{initial_system(cells, seed), {}, nullptr, {}};
  rig.params = mdm::software_parameters(double(rig.system.size()),
                                        rig.system.box());
  mdm::native::NativeForceFieldConfig nc;
  nc.ewald = rig.params;
  nc.tf_shift_energy = true;
  rig.field =
      std::make_unique<mdm::native::NativeForceField>(nc, rig.system.box());
  rig.forces0.assign(rig.system.size(), mdm::Vec3{});
  mdm::evaluate_forces(*rig.field, rig.system, rig.forces0);
  return rig;
}

/// One Simulation::run of `steps` steps, the first `nvt` of them NVT, on
/// `system` (advanced in place), timing every step after the first `warm`.
/// `alternate_trace` turns runtime tracing on for odd steps only;
/// `calibrate_steps` runs the calibration kernel between steps, outside
/// the step times.
struct SerialWindow {
  std::vector<double> step_s;      ///< wall time of each timed step
  std::vector<double> step_cpu_s;  ///< CPU time of each timed step
  double window_s = 0.0;
  double drift = 0.0;
};

SerialWindow run_serial_window(mdm::ParticleSystem& system,
                               mdm::ForceField& field, int warm, int nvt,
                               int steps, bool alternate_trace = false,
                               bool calibrate_steps = false) {
  mdm::SimulationConfig protocol;
  protocol.dt_fs = kDtFs;
  protocol.temperature_K = kTemperatureK;
  protocol.nvt_steps = nvt;
  protocol.nve_steps = steps - nvt;
  mdm::Simulation sim(system, field, protocol);
  // Step k runs from the observer's return after step k - 1 to its call
  // after step k.
  std::vector<Clock::time_point> stamps, resumed;
  std::vector<double> cpu_stamps, cpu_resumed;
  {
    mdm::obs::TraceSpan span("bench.simulation_run");
    sim.run([&](const mdm::Sample& s) {
      stamps.push_back(Clock::now());
      cpu_stamps.push_back(cpu_seconds());
      if (alternate_trace) mdm::obs::Trace::set_enabled(s.step % 2 == 0);
      if (calibrate_steps) calibrate();
      resumed.push_back(Clock::now());
      cpu_resumed.push_back(cpu_seconds());
    });
  }
  SerialWindow w;
  for (std::size_t k = warm + 1; k < stamps.size(); ++k) {
    w.step_s.push_back(
        std::chrono::duration<double>(stamps[k] - resumed[k - 1]).count());
    w.step_cpu_s.push_back(cpu_stamps[k] - cpu_resumed[k - 1]);
  }
  w.window_s =
      std::chrono::duration<double>(stamps.back() - stamps[warm]).count();
  w.drift = sim.nve_energy_drift();
  return w;
}

constexpr int kSetupReps = 5;
/// One repetition of the timed trajectory (10 steps, priming and
/// calibration included) on the reference box, in seconds.
constexpr double kSerialRepS = 3.3;

}  // namespace

void run_melt_serial(const Options& opts, Report& report) {
  const int cells = opts.tiny ? 3 : 8;  // N = 216 / 4,096

  std::vector<double> setups;
  std::optional<SerialRig> built;
  for (int r = 0; r < kSetupReps; ++r) {
    const double pass_ms = calibrate();
    const double c0 = cpu_seconds();
    built.emplace(build_serial(cells, opts.seed));
    setups.push_back(scaled_by_pass(cpu_seconds() - c0, pass_ms));
  }
  SerialRig& rig = *built;
  force_gate(opts, report, "melt-serial", rig.forces0,
             reference_forces(rig.system, rig.params), kNativeEnvelope);
  rig.field->invalidate_caches();
  const double setup_s = median(setups);

  if (!opts.trace) {
    // The same seeded trajectory (NVT then NVE) again and again; a step's
    // time is its fastest repetition, so work that recurs at a fixed step
    // of the 10 counts. A "job" is one step: the unit the paper's figure
    // (s/step) is quoted in.
    const int steps = opts.tiny ? 4 : 10, nvt = 3;
    std::vector<double> step_ms(std::size_t(steps), INFINITY);
    const int planned = planned_reps(opts.seconds, kSerialRepS);
    int reps = 0;
    const auto t0 = Clock::now();
    for (; reps < planned && (reps < kMinReps || !over_time(t0, opts.seconds));
         ++reps) {
      mdm::ParticleSystem system = rig.system;
      const SerialWindow w = run_serial_window(
          system, *rig.field, 0, nvt, steps, false, /*calibrate_steps=*/true);
      for (int k = 0; k < steps; ++k)
        step_ms[k] = std::min(step_ms[k], w.step_cpu_s[k] * 1e3);
      if (reps == 0) drift_gate(report, "melt-serial", w.drift);
      report.operations_ok(steps);
    }
    const double scale = speed_scale();
    double total_ms = 0.0;
    for (double& t : step_ms) total_ms += (t *= scale);
    std::fprintf(stderr,
                 "mdmbench: melt-serial %d repetitions of %d steps; %.2f "
                 "ms/step before scaling\n",
                 reps, steps, total_ms / steps / scale);
    report.metric("ms_per_step", total_ms / steps, "ms");
    report.metric("setup_s", setup_s, "s");
    report.metric("job_p50_ms", percentile(step_ms, 50), "ms");
    report.metric("job_p95_ms", percentile(step_ms, 95), "ms");
    report.metric("jobs_per_s", steps / (total_ms * 1e-3), "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced run: one fixed-length window through the timing decorator, with
  // runtime tracing switched on for every other step, so counts repeat
  // exactly for a seed and the tracing overhead compares adjacent steps.
  const int fixed = opts.tiny ? 6 : 14;
  mdm::obs::Trace::clear();
  LayerTimingField timed(*rig.field);
  mdm::ParticleSystem system = rig.system;
  const int warm = 2, nvt = 4;
  const SerialWindow w = run_serial_window(system, timed, warm, nvt, fixed,
                                           /*alternate_trace=*/true);
  mdm::obs::Trace::set_enabled(false);
  write_trace(join_path(opts.out_dir, "trace-melt-serial.json"));
  drift_gate(report, "melt-serial", w.drift);
  report.operations_ok(long(w.step_s.size()));

  // Per force call, over the steps after warm-up (call k is step k's).
  double real = 0, kspace = 0, total = 0, traced = 0, untraced = 0;
  for (std::size_t k = warm + 1; k < timed.total_s.size(); ++k) {
    real += timed.real_s[k];
    kspace += timed.kspace_s[k];
    total += timed.total_s[k];
    (k % 2 ? traced : untraced) += w.step_cpu_s[k - warm - 1];
  }
  const double steps = double(w.step_s.size());
  const double calls = double(timed.total_s.size());
  const double pairs = double(timed.pairs) / calls;
  const double candidates =
      half_list_candidates(system, rig.params.r_cut);  // computed
  report.metric("native.real.ms", real * 1e3 / steps, "ms");
  report.metric("native.real.pairs", pairs, "count");
  report.metric("native.real.candidates", candidates, "count");
  report.metric("native.real.ns_per_pair", real * 1e9 / steps / pairs, "ns");
  report.metric("native.real.hit_ratio", pairs / candidates, "ratio");
  report.metric("native.kspace.ms", kspace * 1e3 / steps, "ms");
  report.metric("core.integrate.ms", (w.window_s - total) * 1e3 / steps,
                "ms");
  report.metric("trace.overhead", traced / untraced, "ratio");
}

// ------------------------------------------------------------ parallel --

namespace {

constexpr int kRealRanks = 2;
constexpr int kWaveRanks = 2;

mdm::host::ParallelAppConfig app_config(const mdm::ParticleSystem& system,
                                        bool pme) {
  mdm::host::ParallelAppConfig c;
  c.real_processes = kRealRanks;
  c.wn_processes = kWaveRanks;
  c.ewald = mdm::host::mdm_parameters(double(system.size()), system.box());
  c.mdgrape_boards_per_process = 2;  // parallel_mdm's defaults
  c.wine_boards_per_process = 1;
  c.protocol.dt_fs = kDtFs;
  c.protocol.temperature_K = kTemperatureK;
  if (pme) {
    c.backend = mdm::Backend::kNative;
    c.kspace_solver = mdm::host::KspaceSolver::kPme;
    c.pme.order = 6;
    c.pme.grid = mdm::perf::recommended_pme_mesh(c.ewald, c.pme.order);
  }
  return c;
}

struct Segment {
  mdm::host::ParallelRunResult result;
  double seconds = 0.0;
  double cpu_s = 0.0;  ///< process CPU time, every rank included
};

/// One complete MdmParallelApp::run of `nvt` + `nve` steps from `system`.
Segment run_app(mdm::host::ParallelAppConfig config,
                const mdm::ParticleSystem& system, int nvt, int nve) {
  mdm::obs::TraceSpan span("bench.parallel_app_run");
  config.protocol.nvt_steps = nvt;
  config.protocol.nve_steps = nve;
  const auto t0 = Clock::now();
  const double c0 = cpu_seconds();
  mdm::host::MdmParallelApp app(config);
  Segment s{app.run(system), 0.0, 0.0};
  s.seconds = seconds_since(t0);
  s.cpu_s = cpu_seconds() - c0;
  return s;
}

/// The state a segment ended in, as the next segment's start.
mdm::ParticleSystem continue_from(const mdm::ParticleSystem& start,
                                  const mdm::host::ParallelRunResult& r) {
  mdm::ParticleSystem next = start;
  auto pos = next.positions();
  auto vel = next.velocities();
  for (std::size_t i = 0; i < next.size(); ++i) {
    pos[i] = r.positions[i];
    vel[i] = r.velocities[i];
  }
  return next;
}

/// Step-0 forces the app actually used, recovered from its first velocity
/// Verlet step: x1 = x0 + v0 dt + (dt^2 / 2) kAccelUnit F0 / m.
std::vector<mdm::Vec3> forces_from_first_step(
    const mdm::ParticleSystem& start, const std::vector<mdm::Vec3>& x1) {
  const double box = start.box();
  std::vector<mdm::Vec3> f(start.size());
  const auto x0 = start.positions();
  const auto v0 = start.velocities();
  for (std::size_t i = 0; i < start.size(); ++i) {
    mdm::Vec3 d = x1[i] - x0[i] - kDtFs * v0[i];
    d.x -= box * std::round(d.x / box);
    d.y -= box * std::round(d.y / box);
    d.z -= box * std::round(d.z / box);
    f[i] = (2.0 * start.mass(i) / (kDtFs * kDtFs * mdm::units::kAccelUnit)) * d;
  }
  return f;
}

double nve_drift(const std::vector<mdm::Sample>& samples) {
  if (samples.size() < 2) return 0.0;
  const double e0 = samples.front().total_eV;
  double worst = 0.0;
  for (const auto& s : samples)
    worst = std::max(worst, std::fabs(s.total_eV - e0));
  return worst / std::fabs(e0);
}

constexpr int kAppSetupReps = 11;
/// The timed jobs: kAppJobs consecutive app runs of a fixed step count,
/// the first NVT, the second NVE from the state the first ended in; about
/// 0.9 s (melt-machine) or 0.4 s (melt-pme) of CPU time each on the
/// reference box, so many repetitions of each fit in the window.
constexpr int kAppJobs = 2;
constexpr int kJobSteps[2] = {4, 20};
/// One round (a zero-step run and both jobs) on the reference box, in
/// seconds.
constexpr double kRoundS[2] = {2.1, 0.7};

}  // namespace

void run_melt_app(const Options& opts, Report& report, bool pme) {
  const char* name = pme ? "melt-pme" : "melt-machine";
  const int cells = opts.tiny ? 3 : 4;  // N = 216 / 512

  // Set-up, separated from outside: a zero-step run builds the ranks,
  // scatters the system and primes the forces, then gathers.
  std::vector<double> setups, app_setups;
  for (int r = 0; r < kAppSetupReps; ++r) {
    const double pass_ms = calibrate();
    const double c0 = cpu_seconds();
    const auto system = initial_system(cells, opts.seed);
    app_setups.push_back(run_app(app_config(system, pme), system, 0, 0).cpu_s);
    setups.push_back(scaled_by_pass(cpu_seconds() - c0, pass_ms));
  }
  const double app_setup_s = median(app_setups);
  const double setup_s = median(setups);

  const mdm::ParticleSystem start = initial_system(cells, opts.seed);
  const auto config = app_config(start, pme);
  const Segment first = run_app(config, start, 0, 1);
  // WINE-2 sums the Ewald wave set itself; the PME mesh reaches past that
  // cutoff, so its reference sums waves to a converged L k_cut (s2 = 4.2,
  // exp(-s2^2) ~ 2e-8) at the same splitting and real-space cutoff.
  mdm::EwaldParameters ref_params = config.ewald;
  if (pme) ref_params.lk_cut = 4.2 * ref_params.alpha / std::numbers::pi;
  force_gate(opts, report, name,
             forces_from_first_step(start, first.result.positions),
             reference_forces(start, ref_params), kMachineEnvelope);

  if (!opts.trace) {
    // Round after round: one zero-step run (the app's own set-up, paid by
    // every run) and every job from its start state. A job's time is its
    // fastest round; the per-step cost is the jobs' mean time less the
    // fastest set-up, per step.
    const int k = opts.tiny ? 2 : kJobSteps[pme];
    std::vector<mdm::ParticleSystem> starts{start};
    std::vector<double> job_ms(kAppJobs, INFINITY);
    double app_setup_ms = INFINITY;
    std::vector<mdm::Sample> nve;
    const int planned = planned_reps(opts.seconds, kRoundS[pme]);
    int rounds = 0;
    const auto t0 = Clock::now();
    for (; rounds < planned &&
           (rounds < kMinReps || !over_time(t0, opts.seconds));
         ++rounds) {
      calibrate();
      const Segment zero = run_app(config, start, 0, 0);
      app_setup_ms = std::min(app_setup_ms, zero.cpu_s * 1e3);
      for (int j = 0; j < kAppJobs; ++j) {
        const bool nvt = j == 0;
        calibrate();
        const Segment s = run_app(config, starts[j], nvt ? k : 0, nvt ? 0 : k);
        job_ms[j] = std::min(job_ms[j], s.cpu_s * 1e3);
        report.operations_ok(k);
        if (rounds > 0) continue;
        if (!nvt)
          nve.insert(nve.end(), s.result.samples.begin(),
                     s.result.samples.end());
        starts.push_back(continue_from(starts[j], s.result));
      }
    }
    drift_gate(report, name, nve_drift(nve));
    const double scale = speed_scale();
    app_setup_ms *= scale;
    double total_ms = 0.0;
    for (double& t : job_ms) total_ms += (t *= scale);
    const double step_ms = (total_ms / kAppJobs - app_setup_ms) / k;
    std::fprintf(stderr,
                 "mdmbench: %s %d rounds of %d jobs of %d steps; %.3f ms/step "
                 "before scaling\n",
                 name, rounds, kAppJobs, k, step_ms / scale);
    report.metric("ms_per_step", step_ms, "ms");
    report.metric("setup_s", setup_s, "s");
    report.metric("job_p50_ms", percentile(job_ms, 50), "ms");
    report.metric("job_p95_ms", percentile(job_ms, 95), "ms");
    report.metric("jobs_per_s", kAppJobs / (total_ms * 1e-3), "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced run: the same fixed-length app run four times, alternating
  // untraced and traced, reading the program's counters, gauges and spans.
  // Counters cover all four runs, spans the traced ones, gauges the last.
  const int fixed = opts.tiny ? 4 : (pme ? 200 : 30);
  const int evals = fixed + 1;  // the priming evaluation plus one per step
  constexpr int kPairs = 2;
  const char* counters[] = {
      "mdgrape2.pair_ops", "mdgrape2.useful_pairs", "wine2.mpi_allreduces",
      "vmpi.messages_sent", "native.real_pairs", "phase.wavenumber_ns"};
  std::vector<std::uint64_t> before;
  for (const char* c : counters) before.push_back(counter(c));
  mdm::obs::Trace::clear();
  double base_s = 0.0, traced_s = 0.0;
  Segment traced;
  for (int pair = 0; pair < kPairs; ++pair) {
    base_s += run_app(config, start, fixed / 2, fixed - fixed / 2).cpu_s;
    mdm::obs::Trace::set_enabled(true);
    traced = run_app(config, start, fixed / 2, fixed - fixed / 2);
    mdm::obs::Trace::set_enabled(false);
    traced_s += traced.cpu_s;
  }
  // Per run, read before the probes below add their own work.
  std::vector<double> per_run;
  for (std::size_t i = 0; i < before.size(); ++i)
    per_run.push_back(double(counter(counters[i]) - before[i]) / (2 * kPairs));
  auto delta = [&](int i) { return per_run[static_cast<std::size_t>(i)]; };
  drift_gate(report, name,
             nve_drift({traced.result.samples.begin() + fixed / 2,
                        traced.result.samples.end()}));
  report.operations_ok(fixed);

  // Per real rank, per force evaluation, from the app's own gauges.
  double compute = 0, comm = 0, kwait = 0;
  std::vector<double> busy;
  for (int r = 0; r < kRealRanks; ++r) {
    const std::string p = "parallel.rank" + std::to_string(r) + ".";
    const double c = gauge(p + "mdgrape_ms") / evals;
    compute += c / kRealRanks;
    busy.push_back(c);
    comm += (gauge(p + "halo_ms") + gauge(p + "migrate_ms")) / evals /
            kRealRanks;
    kwait += gauge(p + "wine_ms") / evals / kRealRanks;
  }
  const double rank_step_ms = span_mean_ms("rank.step");
  const double wn_round_ms = span_mean_ms("wn.round");

  double kbusy = 0.0;
  mdm::ParticleSystem final_state = continue_from(start, traced.result);
  if (pme) {
    const mdm::PmeParameters p = mdm::host::resolved_pme(config);
    std::vector<double> per_rank;
    const int reps = opts.tiny ? 3 : 20;
    kbusy = probe_distributed_pme_ms(p, final_state, kWaveRanks, reps,
                                     &per_rank);
    for (double b : per_rank) busy.push_back(b);
    const double pairs = delta(4) / evals;
    const double candidates =
        2.0 * half_list_candidates(final_state, config.ewald.r_cut);
    report.metric("native.real.ms", compute, "ms");
    report.metric("native.real.pairs", pairs, "count");
    report.metric("native.real.candidates", candidates, "count");
    report.metric("native.real.ns_per_pair",
                  compute * kRealRanks * 1e6 / pairs, "ns");
    report.metric("native.real.hit_ratio", pairs / candidates, "ratio");
    report.metric("pme.kspace_rank.busy_ms", kbusy, "ms");
    report.metric("pme.kspace_rank.wait_ms",
                  std::max(0.0, wn_round_ms - kbusy), "ms");
    report.metric("pme.serial_recip_ms",
                  probe_serial_pme_ms(p, final_state, reps), "ms");
    report.metric("fft.grid3d_ms", probe_fft_ms(p.grid, reps, opts.seed),
                  "ms");
  } else {
    const double pair_ops = delta(0);
    const mdm::KVectorTable waves(final_state.box(), config.ewald.alpha,
                                  config.ewald.lk_cut);
    kbusy = delta(5) * 1e-6 / kWaveRanks / evals;
    for (int w = 0; w < kWaveRanks; ++w) busy.push_back(kbusy);
    report.metric("mdgrape2.real.ms", compute, "ms");
    report.metric("mdgrape2.pair_ops", pair_ops / evals, "count");
    report.metric("mdgrape2.useful_ratio", delta(1) / pair_ops, "ratio");
    report.metric("mdgrape2.ns_per_pair_op",
                  compute * kRealRanks * evals * 1e6 / pair_ops, "ns");
    report.metric("wine2.wave.ms", kbusy, "ms");
    report.metric("wine2.ns_per_wave_particle",
                  delta(5) / evals /
                      (double(final_state.size()) * double(waves.size())),
                  "ns");
    report.metric("wine2.allreduces", delta(2) / evals, "count");
  }
  double busy_mean = 0.0, busy_max = 0.0;
  for (double b : busy) {
    busy_mean += b / double(busy.size());
    busy_max = std::max(busy_max, b);
  }
  report.metric("host.comm.ms", comm, "ms");
  report.metric("host.wait.ms", std::max(0.0, kwait - kbusy), "ms");
  report.metric("host.imbalance", busy_max / busy_mean, "ratio");
  report.metric("vmpi.messages", delta(3) / evals, "count");
  report.metric("core.integrate.ms",
                std::max(0.0, rank_step_ms - compute - comm - kwait),
                "ms");
  report.metric("trace.overhead",
                (traced_s - kPairs * app_setup_s) /
                    (base_s - kPairs * app_setup_s),
                "ratio");
  write_trace(join_path(opts.out_dir,
                        std::string("trace-") + name + ".json"));
}

}  // namespace mdmbench
