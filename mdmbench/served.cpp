// served-mix: an in-process SimService (2 workers x 1 thread per job, as
// mdm_serve runs it) fed a seeded mix of short legacy, scenario and
// parallel-machine PME jobs. Phase 1 is a closed loop with one client: each
// job is submitted when the previous one is terminal, so it is alone in the
// service, and its latency is the process CPU time from submit to terminal
// state; the whole list runs several times and a job's latency is its
// fastest run. Phase 2 submits the list again in blocks of 20 jobs to both
// workers at once and measures jobs per CPU second of the fastest block.
// The traced run adds the open loop: the list submitted on a precomputed
// Poisson schedule (as bench/bench_serve.cpp models arrivals), which
// exercises the queue.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "core/lattice.hpp"
#include "ewald/parameters.hpp"
#include "host/mdm_force_field.hpp"
#include "host/parallel_app.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "perf/solver_select.hpp"
#include "scenario/builder.hpp"
#include "scenario/parser.hpp"
#include "serve/runner.hpp"
#include "serve/service.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace mdmbench {
namespace {

namespace fs = std::filesystem;
using mdm::serve::JobSpec;

enum Kind { kNative, kReference, kKcl, kLj, kPme, kKinds };
const char* const kKindName[kKinds] = {"native", "reference", "kcl", "lj",
                                       "pme"};
/// Jobs of each kind per block of 20; the order inside a block is shuffled
/// from the seed, so every run serves the same composition. One job in
/// five is the large batch kind (PME), the share bench/bench_serve.cpp
/// gives its larger jobs. Splitting the other four fifths equally between
/// the legacy and scenario kinds is an assumption with no source.
constexpr int kMixPerBlock[kKinds] = {4, 4, 4, 4, 4};
constexpr int kBlock = 20;

constexpr int kWorkers = 2;
constexpr unsigned kThreadsPerJob = 1;
/// Open-loop arrival rate of the traced run (jobs/s): about 40% of the
/// two workers' capacity for this mix (~75 jobs/s from the mean job run
/// time on the reference box), so the queue is exercised without growing.
constexpr double kRatePerS = 30.0;
/// At least 200 jobs, so 10 lie beyond p95.
constexpr int kJobs = 200;
/// One closed-loop pass over the job list on the reference box, in seconds.
constexpr double kPassS = 4.3;
/// Latency recorded for a job that did not complete: it misses any limit.
constexpr double kMissedMs = 1e9;

struct Job {
  Kind kind;
  JobSpec spec;
  int steps = 0;             ///< MD steps the job runs
  std::size_t samples = 0;   ///< samples a complete result carries
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("mdmbench: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The bundled payloads with shortened schedules (samplers stay on).
struct Payloads {
  mdm::scenario::ScenarioSpec kcl, lj;
};

Payloads load_payloads(const Options& opts) {
  Payloads p{mdm::scenario::parse_scenario(
                 read_file(join_path(opts.specs_dir, "kcl_melt.toml")),
                 "kcl_melt.toml"),
             mdm::scenario::parse_scenario(
                 read_file(join_path(opts.specs_dir, "lj_binary.toml")),
                 "lj_binary.toml")};
  p.kcl.run.equilibration = 5;
  p.kcl.run.production = 5;
  p.lj.run.equilibration = 5;
  p.lj.run.production = 5;
  return p;
}

Job make_job(Kind kind, std::uint64_t seed, const Payloads& payloads) {
  Job job{kind, {}, 0, 0};
  JobSpec& s = job.spec;
  s.tenant = kKindName[kind];
  s.seed = seed;
  s.cells = 2;
  switch (kind) {
    case kNative:
    case kReference:
      s.nvt_steps = 10;
      s.nve_steps = 10;
      s.backend = kind == kNative ? mdm::Backend::kNative
                                  : mdm::Backend::kEmulator;
      job.steps = s.total_steps();
      break;
    case kKcl:
    case kLj: {
      auto sc = kind == kKcl ? payloads.kcl : payloads.lj;
      sc.system.seed = seed;
      s.scenario = sc.canonical_text();
      job.steps = sc.run.equilibration + sc.run.production;
      break;
    }
    case kPme:
      s.nvt_steps = 6;
      s.nve_steps = 6;
      s.parallel_real = 1;
      s.parallel_wn = 1;
      s.solver = "pme";
      s.backend = mdm::Backend::kNative;
      job.steps = s.total_steps();
      break;
    default:
      break;
  }
  job.samples = std::size_t(job.steps) + 1;
  return job;
}

/// The seeded job list: whole blocks of the fixed mix, shuffled within each
/// block; every tenth job checkpoints.
std::vector<Job> make_jobs(int count, std::uint64_t seed,
                           const Payloads& payloads) {
  mdm::Random rng(seed);
  std::vector<Job> jobs;
  while (int(jobs.size()) < count) {
    std::vector<Kind> block;
    for (int k = 0; k < kKinds; ++k)
      block.insert(block.end(), kMixPerBlock[k], Kind(k));
    for (std::size_t i = block.size() - 1; i > 0; --i)
      std::swap(block[i], block[rng.uniform_below(i + 1)]);
    for (Kind k : block) jobs.push_back(make_job(k, rng.next_u64(), payloads));
  }
  jobs.resize(static_cast<std::size_t>(count));
  for (std::size_t i = 9; i < jobs.size(); i += 10)
    jobs[i].spec.checkpoint_interval = 5;
  return jobs;
}

/// Open-loop schedule: Poisson arrivals, i.e. exponential gaps at `rate`,
/// as bench/bench_serve.cpp generates them. The gaps are drawn by
/// descriptive sampling: one uniform from each of n equal strata, mapped
/// through the exponential quantile and put in a seeded random order. Every
/// gap is still exponential, and each run holds the same spread of short
/// and long gaps; only their order, and so the bursts, vary with the seed.
std::vector<double> poisson_offsets(std::size_t n, double rate,
                                    std::uint64_t seed) {
  mdm::Random rng(seed ^ 0x3c6ef372fe94f82bULL);
  std::vector<double> gaps(n > 0 ? n - 1 : 0);
  for (std::size_t k = 0; k < gaps.size(); ++k)
    gaps[k] = -std::log(1.0 - (double(k) + rng.uniform()) /
                                  double(gaps.size())) / rate;
  for (std::size_t k = gaps.size(); k > 1; --k)
    std::swap(gaps[k - 1], gaps[rng.uniform_below(k)]);
  std::vector<double> offsets(n, 0.0);
  for (std::size_t i = 1; i < n; ++i) offsets[i] = offsets[i - 1] + gaps[i - 1];
  return offsets;
}

/// Per-phase output placement, so no job ever resumes another's state.
JobSpec placed(const Job& job, const std::string& dir, std::size_t i) {
  JobSpec s = job.spec;
  const std::string tag = "job-" + std::to_string(i);
  if (!s.scenario.empty()) s.analysis_dir = join_path(dir, tag + "-analysis");
  if (s.checkpoint_interval > 0) s.checkpoint_dir = join_path(dir, tag);
  return s;
}

mdm::serve::ServiceConfig service_config(const std::string& dir) {
  mdm::serve::ServiceConfig c;
  c.workers = kWorkers;
  c.threads_per_job = kThreadsPerJob;
  // Nothing may be shed at the chosen rate: no queue or memory cap binds.
  c.admission.max_queue_depth = std::size_t(1) << 20;
  c.admission.max_inflight_bytes = std::numeric_limits<std::size_t>::max() / 4;
  c.checkpoint_root = dir;
  return c;
}

struct Outcome {
  std::vector<mdm::serve::JobResult> results;
  /// Open loop: wall time from due to terminal state. Closed loop: process
  /// CPU time from submit to terminal state.
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;      ///< submit - due (open loop)
  double cpu_s = 0.0;              ///< process CPU time (closed loop)
  std::size_t depth_max = 0;
};

/// Open loop: submit job i at `offsets_s[i]` after `start` and wait for all
/// of them. A job's terminal time is its submit time plus the service's
/// queue wait and run time.
Outcome run_open(mdm::serve::SimService& service, const std::vector<Job>& jobs,
                 const std::vector<double>& offsets_s, const std::string& dir,
                 Clock::time_point start) {
  mdm::obs::TraceSpan span("bench.serve_open");
  Outcome out;
  std::vector<mdm::serve::JobHandle> handles;
  std::vector<Clock::time_point> submitted;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(offsets_s[i]));
    std::this_thread::sleep_until(due);
    {
      mdm::obs::TraceSpan submit_span("bench.submit");
      handles.push_back(service.submit(placed(jobs[i], dir, i)));
    }
    submitted.push_back(Clock::now());
    out.lag_ms.push_back(
        std::chrono::duration<double, std::milli>(submitted.back() - due)
            .count());
    out.depth_max = std::max(out.depth_max, service.queue_depth());
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    mdm::serve::JobResult r;
    {
      mdm::obs::TraceSpan wait_span("bench.wait");
      r = handles[i].wait();
    }
    const double done_ms =
        std::chrono::duration<double, std::milli>(submitted[i] - start)
            .count() +
        r.wait_ms + r.run_ms;
    out.latency_ms.push_back(r.state == mdm::serve::JobState::kCompleted
                                 ? done_ms - offsets_s[i] * 1e3
                                 : kMissedMs);
    out.results.push_back(std::move(r));
  }
  return out;
}

/// Closed loop, one client: jobs [first, first + count) one at a time, each
/// submitted once the previous one is terminal.
Outcome run_closed(mdm::serve::SimService& service, const std::vector<Job>& jobs,
                   std::size_t first, std::size_t count,
                   const std::string& dir) {
  mdm::obs::TraceSpan span("bench.serve_closed");
  const double c_start = cpu_seconds();
  Outcome out;
  for (std::size_t i = first; i < first + count; ++i) {
    if ((i - first) % kBlock == 0) calibrate();
    const double c0 = cpu_seconds();
    mdm::serve::JobHandle handle;
    {
      mdm::obs::TraceSpan submit_span("bench.submit");
      handle = service.submit(placed(jobs[i], dir, i));
    }
    mdm::serve::JobResult r;
    {
      mdm::obs::TraceSpan wait_span("bench.wait");
      r = handle.wait();
    }
    out.latency_ms.push_back(r.state == mdm::serve::JobState::kCompleted
                                 ? (cpu_seconds() - c0) * 1e3
                                 : kMissedMs);
    out.results.push_back(std::move(r));
  }
  out.cpu_s = cpu_seconds() - c_start;
  return out;
}

bool same_samples(const std::vector<mdm::Sample>& a,
                  const std::vector<mdm::Sample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    const double xs[] = {x.time_ps, x.temperature_K, x.kinetic_eV,
                         x.potential_eV, x.total_eV, x.pressure_GPa};
    const double ys[] = {y.time_ps, y.temperature_K, y.kinetic_eV,
                         y.potential_eV, y.total_eV, y.pressure_GPa};
    if (x.step != y.step || std::memcmp(xs, ys, sizeof xs) != 0) return false;
  }
  return true;
}

bool same_vectors(const std::vector<mdm::Vec3>& a,
                  const std::vector<mdm::Vec3>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(mdm::Vec3)) == 0);
}

/// Gate every result: completed, with the full sample count.
void gate_results(Report& report, const char* phase,
                  const std::vector<Job>& jobs, const Outcome& out) {
  long ok = 0;
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    const auto& r = out.results[i];
    if (r.state == mdm::serve::JobState::kCompleted &&
        r.samples.size() == jobs[i].samples) {
      ++ok;
      continue;
    }
    char what[200];
    std::snprintf(what, sizeof what,
                  "%s job %zu (%s): state %s, %zu of %zu samples %s", phase,
                  i, kKindName[jobs[i].kind], mdm::serve::to_string(r.state),
                  r.samples.size(), jobs[i].samples, r.error.c_str());
    report.operation(false, what);
  }
  report.operations_ok(ok);
}

/// Seeded subset of the jobs `out` holds (jobs [0, out.results.size())):
/// each must equal a direct serve::run_job bit for bit. Returns the direct
/// run's process CPU time (ms) per checked job index.
std::vector<std::pair<std::size_t, double>> gate_direct(
    Report& report, const std::vector<Job>& jobs, const Outcome& out,
    const std::string& dir, std::uint64_t seed, int count) {
  mdm::obs::TraceSpan span("bench.direct_runs");
  mdm::Random rng(seed ^ 0xbb67ae8584caa73bULL);
  std::vector<std::pair<std::size_t, double>> timed;
  mdm::ThreadPool pool(kThreadsPerJob);
  for (int c = 0; c < count; ++c) {
    const std::size_t i = rng.uniform_below(out.results.size());
    mdm::serve::RunOptions ro;
    ro.pool = &pool;
    const JobSpec spec = placed(jobs[i], join_path(dir, "direct"), i);
    ro.checkpoint_dir = spec.checkpoint_dir;
    fs::remove_all(join_path(dir, "direct"));
    const double c0 = cpu_seconds();
    mdm::serve::JobResult direct;
    {
      mdm::obs::TraceSpan run_span("bench.run_job");
      direct = mdm::serve::run_job(spec, ro);
    }
    timed.push_back({i, (cpu_seconds() - c0) * 1e3});
    const auto& served = out.results[i];
    const bool same = served.state == mdm::serve::JobState::kCompleted &&
                      same_samples(served.samples, direct.samples) &&
                      same_vectors(served.positions, direct.positions) &&
                      same_vectors(served.velocities, direct.velocities);
    report.operation(same, "served job " + std::to_string(i) + " (" +
                               kKindName[jobs[i].kind] +
                               ") equals a direct run_job bit for bit");
  }
  return timed;
}

/// Share of open-loop job latency spent waiting in the service's queue.
double wait_share(const Outcome& out) {
  double wait = 0.0, latency = 0.0;
  for (std::size_t i = 0; i < out.results.size(); ++i)
    if (out.results[i].state == mdm::serve::JobState::kCompleted) {
      wait += out.results[i].wait_ms;
      latency += out.latency_ms[i];
    }
  return latency > 0.0 ? wait / latency : 0.0;
}

double steps_of(const std::vector<Job>& jobs) {
  double s = 0.0;
  for (const auto& j : jobs) s += j.steps;
  return s;
}

}  // namespace


void run_served_mix(const Options& opts, Report& report) {
  const int count = opts.tiny ? kBlock : kJobs;
  const int direct_checks = opts.tiny ? 2 : 6;
  const std::string dir = join_path(opts.out_dir, "served");

  // Set-up: inputs from the seed, service construction and start, and the
  // first scenario job of the list run to completion (time to the first
  // result of a cold service), in process CPU time. Acceptance of the first
  // job alone is a fraction of a millisecond, where cache and page-fault
  // state swung the figure by 2x between processes. The last
  // repetition's service is the measured one.
  constexpr int kSetupReps = 11;
  std::vector<double> setups;
  std::vector<Job> jobs;
  std::unique_ptr<mdm::serve::SimService> service;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fs::remove_all(dir);
    const double pass_ms = calibrate();
    const double c0 = cpu_seconds();
    const Payloads payloads = load_payloads(opts);
    jobs = make_jobs(count, opts.seed, payloads);
    service = std::make_unique<mdm::serve::SimService>(service_config(dir));
    service->start();
    std::size_t probe = 0;
    while (jobs[probe].kind != kKcl) ++probe;
    service->submit(placed(jobs[probe], join_path(dir, "setup"), probe)).wait();
    setups.push_back(scaled_by_pass(cpu_seconds() - c0, pass_ms));
    if (rep + 1 < kSetupReps) service->stop();
  }
  const double setup_s = median(setups);

  if (!opts.trace) {
    // Closed loop: the whole list, pass after pass; a job's latency is its
    // fastest pass.
    std::vector<double> latency_ms(jobs.size(), INFINITY);
    Outcome first_pass;
    const int planned = planned_reps(opts.seconds, kPassS);
    int passes = 0;
    const auto t0 = Clock::now();
    for (; passes < planned &&
           (passes < kMinReps || !over_time(t0, opts.seconds));
         ++passes) {
      const std::string pass_dir =
          join_path(dir, "closed-" + std::to_string(passes));
      Outcome pass = run_closed(*service, jobs, 0, jobs.size(), pass_dir);
      if (opts.fault == "truncate" && passes == 0)
        pass.results[0].samples.pop_back();
      gate_results(report, "closed-loop", jobs, pass);
      for (std::size_t i = 0; i < jobs.size(); ++i)
        latency_ms[i] = std::min(latency_ms[i], pass.latency_ms[i]);
      if (passes == 0) first_pass = std::move(pass);
      fs::remove_all(pass_dir);
    }
    service->stop();
    gate_direct(report, jobs, first_pass, dir, opts.seed, direct_checks);

    const double scale = speed_scale();
    double total_ms = 0.0;
    for (double& t : latency_ms) total_ms += (t *= scale);
    for (int k = 0; k < kKinds; ++k) {
      std::vector<double> kind_ms;
      for (std::size_t i = 0; i < jobs.size(); ++i)
        if (jobs[i].kind == k) kind_ms.push_back(latency_ms[i]);
      std::fprintf(stderr, "mdmbench: %s jobs: median %.2f ms, max %.2f ms\n",
                   kKindName[k], median(kind_ms), percentile(kind_ms, 100));
    }
    report.metric("ms_per_step", total_ms / steps_of(jobs), "ms");
    report.metric("setup_s", setup_s, "s");
    report.metric("job_p50_ms", percentile(latency_ms, 50), "ms");
    report.metric("job_p95_ms", percentile(latency_ms, 95), "ms");
    report.metric("jobs_per_s", double(jobs.size()) / (total_ms * 1e-3),
                  "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    std::fprintf(stderr,
                 "mdmbench: served-mix %zu jobs (%zu beyond p95), %d closed "
                 "passes in %.1f s\n",
                 jobs.size(), jobs.size() / 20, passes, seconds_since(t0));
    fs::remove_all(dir);
    return;
  }

  // Traced run. The open loop with runtime tracing on: Poisson arrivals at
  // kRatePerS, timed in wall time from due to terminal state, for the
  // serve layer's queue, wait and run figures.
  const std::uint64_t ckpt_writes0 = counter("ckpt.writes");
  const std::uint64_t ckpt_bytes0 = counter("ckpt.bytes");
  const std::uint64_t messages0 = counter("vmpi.messages_sent");
  mdm::obs::Trace::clear();
  mdm::obs::Trace::set_enabled(true);
  const double rate = opts.tiny ? 40.0 : kRatePerS;
  Outcome open =
      run_open(*service, jobs, poisson_offsets(jobs.size(), rate, opts.seed),
                join_path(dir, "open"), Clock::now());
  mdm::obs::Trace::set_enabled(false);
  const double writes = double(counter("ckpt.writes") - ckpt_writes0);
  const double ckpt_bytes = double(counter("ckpt.bytes") - ckpt_bytes0);
  const double messages = double(counter("vmpi.messages_sent") - messages0);
  const double ckpt_write_ms = span_mean_ms("checkpoint.write");
  const double wn_round_ms = span_mean_ms("wn.round");
  if (opts.fault == "truncate") open.results[0].samples.pop_back();
  gate_results(report, "open-loop", jobs, open);

  // The first two blocks through the closed loop, untraced then traced,
  // for the tracing overhead; the untraced pass is also checked against
  // direct runs, which give the service's overhead per job.
  const std::size_t pair_jobs = std::min<std::size_t>(2 * kBlock, jobs.size());
  const Outcome closed =
      run_closed(*service, jobs, 0, pair_jobs, join_path(dir, "closed"));
  gate_results(report, "closed-loop", jobs, closed);
  mdm::obs::Trace::set_enabled(true);
  const Outcome closed_traced = run_closed(*service, jobs, 0, pair_jobs,
                                           join_path(dir, "closed-traced"));
  mdm::obs::Trace::set_enabled(false);
  gate_results(report, "closed-loop traced", jobs, closed_traced);
  service->stop();
  const auto direct =
      gate_direct(report, jobs, closed, dir, opts.seed, direct_checks);

  for (int k = 0; k < kKinds; ++k) {
    std::vector<double> wait, run;
    for (std::size_t i = 0; i < jobs.size(); ++i)
      if (jobs[i].kind == k) {
        wait.push_back(open.results[i].wait_ms);
        run.push_back(open.results[i].run_ms);
      }
    report.metric(std::string("serve.wait_ms.") + kKindName[k], median(wait),
                  "ms");
    report.metric(std::string("serve.run_ms.") + kKindName[k], median(run),
                  "ms");
  }
  std::vector<double> overhead;
  for (const auto& [i, direct_ms] : direct)
    overhead.push_back(closed.latency_ms[i] - direct_ms);
  report.metric("serve.overhead_ms", median(overhead), "ms");
  report.metric("serve.wait_share", wait_share(open), "ratio");
  report.metric("serve.queue_depth_max", double(open.depth_max), "count");
  report.metric("loadgen.lag_ms",
                *std::max_element(open.lag_ms.begin(), open.lag_ms.end()),
                "ms");
  report.metric("core.checkpoint.write_ms", ckpt_write_ms, "ms");
  report.metric("core.checkpoint.bytes", writes > 0 ? ckpt_bytes / writes : 0.0,
                "B");
  double pme_jobs = 0.0;
  for (const auto& j : jobs) pme_jobs += j.kind == kPme;
  report.metric("vmpi.messages", messages / pme_jobs, "count");

  // Layer probes at the served jobs' own configurations.
  const int reps = opts.tiny ? 3 : 15;
  {
    const Payloads payloads = load_payloads(opts);
    std::vector<double> parse, build;
    for (const auto* sc : {&payloads.kcl, &payloads.lj}) {
      const std::string text = sc->canonical_text();
      mdm::obs::TraceSpan span("bench.probe.scenario");
      for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        const auto parsed = mdm::scenario::parse_scenario(text, "payload");
        const auto t1 = Clock::now();
        auto system = mdm::scenario::build_system(parsed);
        auto field = mdm::scenario::build_force_field(parsed, system, nullptr);
        parse.push_back(std::chrono::duration<double, std::milli>(t1 - t0)
                            .count());
        build.push_back(seconds_since(t1) * 1e3);
      }
    }
    report.metric("scenario.parse_ms", median(parse), "ms");
    report.metric("scenario.build_ms", median(build), "ms");
  }
  {
    // The legacy native job: perfect cells-2 crystal, software parameters.
    const auto crystal = mdm::make_nacl_crystal(2);
    mdm::native::NativeForceFieldConfig nc;
    nc.ewald =
        mdm::software_parameters(double(crystal.size()), crystal.box());
    nc.tf_shift_energy = true;
    const NativeProbe np = probe_native(nc, crystal, reps * 10);
    const double candidates = half_list_candidates(crystal, nc.ewald.r_cut);
    report.metric("native.real.ms", np.real_ms, "ms");
    report.metric("native.real.pairs", double(np.pairs), "count");
    report.metric("native.real.candidates", candidates, "count");
    report.metric("native.real.ns_per_pair", np.real_ms * 1e6 / double(np.pairs),
                  "ns");
    report.metric("native.real.hit_ratio", double(np.pairs) / candidates,
                  "ratio");
    report.metric("native.kspace.ms", np.kspace_ms, "ms");

    // The parallel-machine PME job (R = 1, W = 1), resolved as the runner
    // resolves it.
    mdm::host::ParallelAppConfig pc;
    pc.ewald = mdm::host::mdm_parameters(double(crystal.size()), crystal.box());
    pc.pme.order = 6;
    pc.pme.grid = mdm::perf::recommended_pme_mesh(pc.ewald, pc.pme.order);
    const mdm::PmeParameters pme = mdm::host::resolved_pme(pc);
    const double busy =
        probe_distributed_pme_ms(pme, crystal, 1, reps, nullptr);
    report.metric("pme.kspace_rank.busy_ms", busy, "ms");
    report.metric("pme.kspace_rank.wait_ms", std::max(0.0, wn_round_ms - busy),
                  "ms");
    report.metric("pme.serial_recip_ms",
                  probe_serial_pme_ms(pme, crystal, reps), "ms");
    report.metric("fft.grid3d_ms", probe_fft_ms(pme.grid, reps, opts.seed),
                  "ms");
  }
  report.metric("trace.overhead", closed_traced.cpu_s / closed.cpu_s, "ratio");
  write_trace(join_path(opts.out_dir, "trace-served-mix.json"));
  fs::remove_all(dir);
}

}  // namespace mdmbench
