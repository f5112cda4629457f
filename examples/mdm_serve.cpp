/// \file mdm_serve.cpp
/// The MDM as a shared facility (DESIGN.md §9): a multi-tenant simulation
/// job service accepting a batch of melt jobs, scheduling K at a time with
/// bounded per-job thread slices, and reporting SLOs from the metrics
/// registry.
///
///   ./mdm_serve [--jobs 12] [--tenants 3] [--workers 2]
///               [--threads-per-job 1] [--cells 1] [--steps 8]
///               [--deadline-ms 0] [--queue-depth 64] [--cancel 0]
///               [--parallel-real 0] [--kspace-ranks 2]
///               [--solver sf|pme|auto] [--pme-grid 0] [--pme-order 6]
///               [--backend emulator|native]
///               [--checkpoint-every 0] [--checkpoint-root serve_ckpt]
///               [--scenario spec.toml] [--analysis-root DIR]
///               [--metrics serve_metrics.json] [--trace-out trace.json]
///
/// Every third job is submitted as interactive, the rest as batch; tenants
/// round-robin. `--cancel n` cancels every n-th job mid-flight to
/// demonstrate cooperative cancellation. `--parallel-real n` runs each job
/// on the full parallel backend (n real ranks); with `--trace` (or
/// MDM_TRACE=1) and `--trace-out`, the chrome-trace export shows every job
/// as one trace across submit, queue, per-rank phases and checkpoints
/// (DESIGN.md §10). `--scenario spec.toml` submits every job as that
/// declarative scenario (src/scenario, DESIGN.md §14) instead of the fixed
/// melt workload; `--analysis-root DIR` gives each job its own analysis
/// output directory DIR/job-<i>.

#include <signal.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

/// SIGTERM = graceful drain (DESIGN.md §13): cancel in-flight jobs — each
/// checkpoints at its exact cancel step when checkpointing is on — finish
/// the drain, report, exit 0.
volatile std::sig_atomic_t g_drain = 0;
void on_sigterm(int) { g_drain = 1; }

}  // namespace

static int cli_main(const mdm::CommandLine& cli) {
  using namespace mdm;
  apply_observability_cli(cli);
  if (const long t = cli.get_int("threads", 0); t >= 1)
    ThreadPool::set_global_threads(static_cast<unsigned>(t));

  const int jobs = static_cast<int>(cli.get_int("jobs", 12));
  const int tenants = static_cast<int>(cli.get_int("tenants", 3));
  const int steps = static_cast<int>(cli.get_int("steps", 8));
  const int cancel_every = static_cast<int>(cli.get_int("cancel", 0));

  serve::ServiceConfig config;
  config.workers = static_cast<int>(cli.get_int("workers", 2));
  config.threads_per_job =
      static_cast<unsigned>(cli.get_int("threads-per-job", 1));
  config.admission.max_queue_depth =
      static_cast<std::size_t>(cli.get_int("queue-depth", 64));
  config.checkpoint_root = cli.get_string("checkpoint-root", "serve_ckpt");
  // Drained jobs must be resumable with zero recomputation.
  config.checkpoint_on_cancel = true;

  // Declarative path: every job carries the scenario text and runs through
  // the scenario engine instead of the fixed melt fields.
  std::string scenario_text;
  if (const auto path = cli.value("scenario"); path && !path->empty()) {
    std::ifstream in(*path);
    if (!in) {
      std::fprintf(stderr, "mdm_serve: cannot open scenario '%s'\n",
                   path->c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    scenario_text = text.str();
    std::printf("mdm_serve: jobs carry scenario '%s'\n", path->c_str());
  }
  const std::string analysis_root = cli.get_string("analysis-root", "");

  std::signal(SIGTERM, on_sigterm);
  serve::SimService service(config);
  service.start();
  std::printf("mdm_serve: %d jobs from %d tenants on %d workers "
              "(x%u threads/job)\n",
              jobs, tenants, config.workers, config.threads_per_job);

  std::vector<serve::JobHandle> handles;
  handles.reserve(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    serve::JobSpec spec;
    spec.tenant = "tenant-" + std::to_string(i % tenants);
    spec.job_class = (i % 3 == 0) ? serve::JobClass::kInteractive
                                  : serve::JobClass::kBatch;
    spec.cells = static_cast<int>(cli.get_int("cells", 1));
    spec.nvt_steps = 2 * steps / 3;
    spec.nve_steps = steps - spec.nvt_steps;
    spec.deadline_ms = cli.get_double("deadline-ms", 0.0);
    spec.parallel_real = static_cast<int>(
        cli.get_int("parallel-real", cli.get_int("real-ranks", 0)));
    spec.parallel_wn = static_cast<int>(cli.get_int("kspace-ranks", 2));
    spec.solver = cli.get_string("solver", "sf");
    spec.pme_grid = static_cast<int>(cli.get_int("pme-grid", 0));
    spec.pme_order = static_cast<int>(cli.get_int("pme-order", 6));
    spec.backend = backend_from_string(cli.get_string("backend", "emulator"));
    spec.checkpoint_interval =
        static_cast<int>(cli.get_int("checkpoint-every", 0));
    spec.seed = static_cast<std::uint64_t>(i + 1);
    spec.scenario = scenario_text;
    if (!scenario_text.empty() && !analysis_root.empty())
      spec.analysis_dir = analysis_root + "/job-" + std::to_string(i);
    handles.push_back(service.submit(spec));
  }

  if (cancel_every > 0)
    for (int i = cancel_every - 1; i < jobs; i += cancel_every)
      handles[static_cast<std::size_t>(i)].cancel();

  Timer timer;
  bool drained_by_signal = false;
  for (;;) {
    if (g_drain && !drained_by_signal) {
      drained_by_signal = true;
      std::printf("SIGTERM: draining — cancelling %zu in-flight job(s)\n",
                  handles.size());
      for (const auto& h : handles) h.cancel();
    }
    try {
      service.drain_for(50.0);
      break;
    } catch (const serve::JobWaitTimeout&) {
      // Still busy; loop so a SIGTERM arriving mid-drain is honoured.
    }
  }
  const double wall_s = timer.seconds();

  std::printf("\n%5s %-10s %-12s %-18s %6s %9s %9s\n", "job", "tenant",
              "class", "state", "steps", "wait/ms", "run/ms");
  for (const auto& h : handles) {
    const auto r = h.wait();
    std::printf("%5llu %-10s %-12s %-18s %6d %9.2f %9.2f\n",
                static_cast<unsigned long long>(h.id()),
                h.spec().tenant.c_str(), serve::to_string(h.spec().job_class),
                serve::to_string(r.state), r.completed_steps, r.wait_ms,
                r.run_ms);
  }

  auto& reg = obs::Registry::global();
  const auto c = [&](const char* name) {
    return static_cast<long long>(reg.counter_value(name));
  };
  std::printf("\nSLO summary: completed=%lld cancelled=%lld failed=%lld "
              "rejected=%lld shed=%lld\n",
              c("serve.completed"), c("serve.cancelled"), c("serve.failed"),
              c("serve.rejected.queue_depth") + c("serve.rejected.memory"),
              c("serve.shed.deadline"));
  if (const auto* wait = reg.find_histogram("serve.wait_ms"))
    std::printf("  wait  p50 %8.2f ms   p95 %8.2f ms\n",
                wait->percentile(50.0), wait->percentile(95.0));
  if (const auto* run = reg.find_histogram("serve.run_ms"))
    std::printf("  run   p50 %8.2f ms   p95 %8.2f ms\n",
                run->percentile(50.0), run->percentile(95.0));
  std::printf("  wall clock %.2f s (%.1f jobs/s)\n", wall_s,
              jobs / (wall_s > 0 ? wall_s : 1.0));

  if (const auto path = cli.value("metrics"); path && !path->empty()) {
    if (reg.write_json_file(*path)) std::printf("wrote %s\n", path->c_str());
  }
  if (const auto path = cli.value("trace-out"); path && !path->empty()) {
    if (!obs::Trace::enabled())
      std::printf("--trace-out: tracing is off (pass --trace or set "
                  "MDM_TRACE=1), skipping %s\n", path->c_str());
    else if (obs::Trace::write_chrome_json_file(*path))
      std::printf("wrote %s (%zu spans; open in chrome://tracing or "
                  "https://ui.perfetto.dev)\n",
                  path->c_str(), obs::Trace::event_count());
  }
  return 0;
}

int main(int argc, char** argv) { return mdm::run_cli(argc, argv, cli_main); }
