#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "core/force_field.hpp"
#include "core/tosi_fumi.hpp"
#include "ewald/ewald.hpp"
#include "util/random.hpp"

namespace mdmbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::operation(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "mdmbench: FAILED %s\n", what.c_str());
  } else {
    std::fprintf(stderr, "mdmbench: ok %s\n", what.c_str());
  }
}

void Report::print() const {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              failed_ == 0 ? "true" : "false", attempted_, failed_);
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", name.c_str(), v, vu.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

int planned_reps(double seconds, double unit_s) {
  return std::max(kMinReps, int(std::lround(seconds / unit_s)));
}

bool pin_to_one_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

namespace {
double g_calibration_ms = INFINITY;
volatile double g_calibration_sink = 0.0;
}  // namespace

double calibrate() {
  constexpr int kPoints = 4096, kPasses = 256;
  static std::vector<double> x = [] {
    std::vector<double> v(kPoints);
    for (int i = 0; i < kPoints; ++i) v[i] = 0.5 + 1e-4 * i;
    return v;
  }();
  const double c0 = thread_cpu_seconds();
  double sum = 0.0;
  for (int pass = 0; pass < kPasses; ++pass)
    for (int i = 0; i < kPoints; ++i) {
      const double r = x[i] + 1e-7 * pass;
      sum += std::erfc(r) * std::exp(-r * r) / r;
    }
  g_calibration_sink = sum;
  const double pass_ms = (thread_cpu_seconds() - c0) * 1e3;
  g_calibration_ms = std::min(g_calibration_ms, pass_ms);
  return pass_ms;
}

double calibration_ms() { return g_calibration_ms; }

double speed_scale() {
  if (!std::isfinite(g_calibration_ms)) calibrate();
  return kCalibrationRefMs / g_calibration_ms;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void jitter_positions(mdm::ParticleSystem& system, std::uint64_t seed,
                      double sigma_A) {
  mdm::Random rng(seed ^ 0x6a09e667f3bcc909ULL);
  for (auto& r : system.positions()) r += rng.normal_vec3(sigma_A);
  system.wrap_positions();
}

std::vector<mdm::Vec3> reference_forces(const mdm::ParticleSystem& system,
                                        const mdm::EwaldParameters& params) {
  mdm::CompositeForceField ref;
  ref.add(std::make_unique<mdm::EwaldCoulomb>(params, system.box()));
  ref.add(std::make_unique<mdm::TosiFumiShortRange>(
      mdm::TosiFumiParameters::nacl(), params.r_cut, /*shift_energy=*/true));
  std::vector<mdm::Vec3> forces(system.size());
  mdm::evaluate_forces(ref, system, forces);
  return forces;
}

double rms_relative_error(const std::vector<mdm::Vec3>& forces,
                          const std::vector<mdm::Vec3>& ref) {
  if (forces.size() != ref.size() || ref.empty()) return INFINITY;
  double err2 = 0.0, ref2 = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const mdm::Vec3 d = forces[i] - ref[i];
    err2 += dot(d, d);
    ref2 += dot(ref[i], ref[i]);
  }
  return std::sqrt(err2 / ref2);
}

void perturb_forces(std::vector<mdm::Vec3>& forces) {
  double f2 = 0.0;
  for (const auto& f : forces) f2 += dot(f, f);
  const double shift = 0.01 * std::sqrt(f2 / double(forces.size()));
  for (auto& f : forces) f.x += shift;
}

std::string join_path(const std::string& dir, const std::string& name) {
  return dir.empty() || dir.back() == '/' ? dir + name : dir + "/" + name;
}

}  // namespace mdmbench
