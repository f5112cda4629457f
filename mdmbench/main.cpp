// mdmbench: one workload of the step-time benchmark per process.
//
//   mdmbench <melt-serial|melt-machine|melt-pme|served-mix> --seed N
//            --seconds S --trace 0|1 [--tiny] [--out DIR] [--specs DIR]
//            [--fault force|truncate]
//
// Prints progress and gate outcomes on stderr and, as its last stdout line,
// one JSON object {correct, attempted, failed, metrics}. run.py builds this
// binary and forwards that line.
#include <malloc.h>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "util/thread_pool.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "mdmbench: %s\nusage: mdmbench <workload> --seed N --seconds S "
               "--trace 0|1 [--tiny] [--out DIR] [--specs DIR] "
               "[--fault force|truncate]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mdmbench;
  if (argc < 2) return usage("missing workload");
  Options opts;
  opts.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      opts.tiny = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--seed") {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::atof(argv[++i]);
    } else if (a == "--trace") {
      opts.trace = std::string(argv[++i]) == "1";
    } else if (a == "--out") {
      opts.out_dir = argv[++i];
    } else if (a == "--specs") {
      opts.specs_dir = argv[++i];
    } else if (a == "--fault") {
      opts.fault = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");
  if (!opts.fault.empty() && opts.fault != "force" && opts.fault != "truncate")
    return usage("--fault must be force or truncate");

  // Pin the global pool before anything can touch it: every workload's
  // busy threads are its own ranks or service workers, at most nproc.
  mdm::ThreadPool::set_global_threads(1);
  // One malloc arena: otherwise glibc spreads threads over arenas in the
  // order the host happens to schedule them, and peak RSS moved by up to a
  // fifth between runs of the same work.
  mallopt(M_ARENA_MAX, 1);
  // The timed (untraced) run keeps the whole process on one CPU, where the
  // calibration kernel runs too; its figures are CPU time, so ranks and
  // workers that share the CPU add their work, not their waiting. The
  // traced run keeps every CPU, so rank waits and imbalance are real.
  if (!opts.trace && !pin_to_one_cpu())
    std::fprintf(stderr, "mdmbench: could not pin to one CPU\n");

  Report report;
  try {
    if (opts.workload == "melt-serial") {
      run_melt_serial(opts, report);
    } else if (opts.workload == "melt-machine") {
      run_melt_app(opts, report, /*pme=*/false);
    } else if (opts.workload == "melt-pme") {
      run_melt_app(opts, report, /*pme=*/true);
    } else if (opts.workload == "served-mix") {
      run_served_mix(opts, report);
    } else {
      return usage(("unknown workload " + opts.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mdmbench: %s aborted: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  std::fprintf(stderr,
               "mdmbench: fastest calibration pass %.3f ms (reference %.1f "
               "ms): times scaled by %.4f\n",
               calibration_ms(), kCalibrationRefMs, speed_scale());
  report.print();
  return 0;
}
