#pragma once
/// \file common.hpp
/// Shared pieces of the step-time benchmark program: command-line options,
/// the result report (printed as the one JSON line run.py forwards), timing
/// and order statistics, and the correctness references every workload
/// gates on.
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/particle_system.hpp"
#include "ewald/ewald.hpp"
#include "util/vec3.hpp"

namespace mdmbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test sizes (tiny systems, few jobs); never used for figures.
  bool tiny = false;
  /// Scratch directory for checkpoints, analysis outputs and the trace.
  std::string out_dir = ".";
  /// Directory holding the bundled scenario payloads (specs/*.toml).
  std::string specs_dir = "specs";
  /// Negative-test hooks: "force" perturbs the step-0 forces handed to the
  /// force gate, "truncate" drops the last sample of one served result.
  std::string fault;
};

/// Outcome of one workload run: the result line's correct/attempted/failed
/// plus named metrics, printed as one JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// One counted operation; a false `ok` is a failed operation and is
  /// explained on stderr.
  void operation(bool ok, const std::string& what);
  /// `n` operations that all succeeded (timed steps, completed jobs).
  void operations_ok(long n) { attempted_ += n; }
  long failed() const { return failed_; }
  void print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  long attempted_ = 0;
  long failed_ = 0;
};

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Every timed unit of work (a trajectory, an app run, a served job) runs
/// several times, spread over the window; its time is the fastest run. The
/// shared host runs this VM at changing speeds for seconds at a time (one
/// 15 s window saw single steps of the same work take 302-792 ms of CPU
/// time), so the fastest of several runs measures the program and the
/// others the host.
inline constexpr int kMinReps = 3;

/// Repetitions of a unit that takes about `unit_s` on the reference box:
/// as many as fill `seconds`, at least kMinReps. The count depends on
/// --seconds only, not on the clock, so every run does the same work (peak
/// RSS grows with the number of app runs and served jobs).
int planned_reps(double seconds, double unit_s);
/// True once a run on a slow host has spent 1.5 times its window: it stops
/// repeating after kMinReps.
inline bool over_time(Clock::time_point t0, double seconds) {
  return seconds_since(t0) > 1.5 * seconds;
}

/// CPU time consumed so far by the whole process, every thread included
/// (also threads that have exited), in seconds. The end-to-end timings are
/// taken on this clock: time the host takes the CPU away (other processes,
/// hypervisor steal) is not counted, and ranks or workers that wait block
/// on a condition variable rather than spin, so waiting is not counted
/// either.
double cpu_seconds();
/// CPU time consumed so far by the calling thread, in seconds.
double thread_cpu_seconds();

/// Restrict the process, and every thread it starts later, to the one CPU
/// it is running on, so the workload and the calibration kernel below run
/// on the same (virtual) CPU. False if the CPU could not be pinned.
bool pin_to_one_cpu();

/// Host-speed calibration. The shared host runs this VM's CPUs at speeds
/// that drift by a quarter or more over minutes, and every timing drifts
/// with them. calibrate() times one pass of a fixed kernel that belongs to
/// the benchmark (scalar erfc/exp over an L1-resident array, like the pair
/// kernels; no repository code) and keeps the run's fastest pass. A
/// workload calls it between its timed units, so the fastest pass and the
/// workload's fastest repetitions come from the same stretches of host
/// time. Returns this pass's time (ms of CPU time).
double calibrate();
/// Fastest calibration pass of the run (ms of CPU time).
double calibration_ms();
/// kCalibrationRefMs / calibration_ms(): multiplies a time measured in this
/// run into the time it takes on the host at the reference speed.
double speed_scale();
/// The calibration kernel's fastest pass at the reference speed (4-vCPU
/// Intel Xeon VM at 2.0 GHz, calm).
inline constexpr double kCalibrationRefMs = 10.0;

/// `seconds` of CPU time, measured right after a calibration pass of
/// `pass_ms`, scaled to the reference speed by that pass alone. For the
/// set-up repetitions: few, back to back at the start of a run, and
/// reported as a median, so the run's fastest pass does not describe them.
inline double scaled_by_pass(double seconds, double pass_ms) {
  return seconds * kCalibrationRefMs / pass_ms;
}

double median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
double peak_rss_mb();

/// Seeded Gaussian displacement of every ion (sigma in A): a perfect
/// crystal has zero net force on every ion, which would make a force gate
/// vacuous.
void jitter_positions(mdm::ParticleSystem& system, std::uint64_t seed,
                      double sigma_A);

/// Reference forces: the exact Ewald sum (the repository's reference
/// EwaldCoulomb, double precision, no mesh or fixed-point approximation)
/// at the workload's own splitting and cutoffs, plus Tosi-Fumi short range
/// cut at the same r_cut.
std::vector<mdm::Vec3> reference_forces(const mdm::ParticleSystem& system,
                                        const mdm::EwaldParameters& params);

/// RMS relative force error sqrt(sum |f - ref|^2 / sum |ref|^2).
double rms_relative_error(const std::vector<mdm::Vec3>& forces,
                          const std::vector<mdm::Vec3>& ref);

/// The "force" fault: shifts every x component by 1% of the RMS force.
void perturb_forces(std::vector<mdm::Vec3>& forces);

/// RMS relative force envelopes against the exact Ewald reference. The
/// native kernels agree with it to rounding (~1e-14, DESIGN.md section 11);
/// 1e-6 leaves room for reordered sums. The emulated machine (fixed-point
/// MDGRAPE-2, WINE-2 wave formats) and distributed PME share the 5e-4 RMS
/// envelope of the backend-parity and distributed-PME suites.
inline constexpr double kNativeEnvelope = 1e-6;
inline constexpr double kMachineEnvelope = 5e-4;

/// Relative NVE total-energy drift allowed over a benchmark window.
inline constexpr double kDriftEnvelope = 1e-3;

std::string join_path(const std::string& dir, const std::string& name);

/// Paper protocol constants shared by every workload.
inline constexpr double kTemperatureK = 1200.0;
inline constexpr double kDtFs = 2.0;

/// The workloads (melt.cpp, served.cpp). Each appends its metrics and
/// operations to `report`.
void run_melt_serial(const Options& opts, Report& report);
void run_melt_app(const Options& opts, Report& report, bool pme);
void run_served_mix(const Options& opts, Report& report);

}  // namespace mdmbench
