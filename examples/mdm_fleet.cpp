/// \file mdm_fleet.cpp
/// The sharded serving fleet (DESIGN.md §13): a Router supervising N
/// process-isolated `mdm_shardd` workers, with checkpoint-backed job
/// migration, a deterministic result cache and streamed chunked results.
///
///   ./mdm_fleet [--jobs 12] [--shards 2] [--workers 2]
///               [--threads-per-job 1] [--tenants 3] [--cells 2]
///               [--steps 8] [--distinct 4] [--checkpoint-every 2]
///               [--root fleet_root] [--kill-shard -1] [--drain-shard -1]
///               [--metrics fleet_metrics.json]
///
/// Seeds cycle over `--distinct` values, so most submissions are duplicates
/// of an earlier spec: identical in-flight jobs coalesce onto one run and
/// identical completed jobs are served from the result cache.
/// `--kill-shard i` SIGKILLs shard i once the fleet is mid-load — its jobs
/// migrate to survivors and resume from their latest (checkpoint, manifest)
/// pair; `--drain-shard i` SIGTERMs it instead (graceful drain: checkpoint,
/// reject new work, exit 0). Either way the fleet must lose zero jobs: the
/// example exits non-zero if any submission fails to complete.

#include <signal.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/fleet/router.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

static int cli_main(const mdm::CommandLine& cli) {
  using namespace mdm;
  apply_observability_cli(cli);

  const int jobs = static_cast<int>(cli.get_int("jobs", 12));
  const int tenants = static_cast<int>(cli.get_int("tenants", 3));
  const int steps = static_cast<int>(cli.get_int("steps", 8));
  const int distinct = std::max(1, static_cast<int>(cli.get_int("distinct", 4)));
  const int kill_shard = static_cast<int>(cli.get_int("kill-shard", -1));
  const int drain_shard = static_cast<int>(cli.get_int("drain-shard", -1));

  serve::fleet::FleetConfig config;
  config.shards = static_cast<int>(cli.get_int("shards", 2));
  config.workers_per_shard = static_cast<int>(cli.get_int("workers", 2));
  config.threads_per_job =
      static_cast<unsigned>(cli.get_int("threads-per-job", 1));
  config.root = cli.get_string("root", "fleet_root");

  serve::fleet::Router router(config);
  router.start();
  std::printf("mdm_fleet: %d jobs (%d distinct specs) from %d tenants on "
              "%d shards x %d workers\n",
              jobs, distinct, tenants, config.shards,
              config.workers_per_shard);

  std::vector<serve::JobHandle> handles;
  handles.reserve(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    serve::JobSpec spec;
    spec.tenant = "tenant-" + std::to_string(i % tenants);
    spec.job_class = (i % 3 == 0) ? serve::JobClass::kInteractive
                                  : serve::JobClass::kBatch;
    spec.cells = static_cast<int>(cli.get_int("cells", 2));
    spec.nvt_steps = 2 * steps / 3;
    spec.nve_steps = steps - spec.nvt_steps;
    spec.seed = static_cast<std::uint64_t>(i % distinct + 1);
    spec.checkpoint_interval =
        static_cast<int>(cli.get_int("checkpoint-every", 2));
    handles.push_back(router.submit(spec));
  }

  // Chaos / drain demo: act once the fleet is actually mid-load.
  if (kill_shard >= 0 || drain_shard >= 0) {
    const auto& reg = obs::Registry::global();
    const std::uint64_t target = static_cast<std::uint64_t>(jobs) / 4;
    while (reg.counter_value("fleet.completed") < target &&
           router.pending_jobs() > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (kill_shard >= 0 && router.signal_shard(kill_shard, SIGKILL))
      std::printf("chaos: SIGKILLed shard %d mid-load\n", kill_shard);
    if (drain_shard >= 0 && router.signal_shard(drain_shard, SIGTERM))
      std::printf("drain: SIGTERMed shard %d mid-load\n", drain_shard);
  }

  Timer timer;
  router.drain();
  const double wall_s = timer.seconds();

  std::printf("\n%5s %-10s %-14s %6s %8s %9s %9s\n", "job", "tenant",
              "state", "steps", "resumed", "wait/ms", "run/ms");
  int completed = 0;
  for (const auto& h : handles) {
    const auto r = h.wait();
    if (r.state == serve::JobState::kCompleted) ++completed;
    std::printf("%5llu %-10s %-14s %6d %8llu %9.2f %9.2f\n",
                static_cast<unsigned long long>(h.id()),
                h.spec().tenant.c_str(), serve::to_string(r.state),
                r.completed_steps,
                static_cast<unsigned long long>(r.resumed_from_step),
                r.wait_ms, r.run_ms);
  }

  auto& reg = obs::Registry::global();
  const auto c = [&](const char* name) {
    return static_cast<long long>(reg.counter_value(name));
  };
  std::printf("\nfleet summary: completed=%lld cache_hits=%lld "
              "coalesced=%lld retries=%lld failovers=%lld migrated=%lld "
              "restarts=%lld\n",
              c("fleet.completed"), c("fleet.cache.hits"),
              c("fleet.cache.coalesced"), c("fleet.retries"),
              c("fleet.failovers"), c("fleet.migrated"),
              c("fleet.shard.restarts"));
  std::printf("wall clock %.2f s (%.1f jobs/s)\n", wall_s,
              jobs / (wall_s > 0 ? wall_s : 1.0));

  if (const auto path = cli.value("metrics"); path && !path->empty()) {
    if (reg.write_json_file(*path)) std::printf("wrote %s\n", path->c_str());
  }

  // Zero lost jobs is the fleet's contract — even under SIGKILL.
  if (completed != jobs) {
    std::fprintf(stderr, "FLEET VIOLATION: %d of %d jobs completed\n",
                 completed, jobs);
    return 1;
  }
  std::printf("zero lost jobs: OK\n");
  return 0;
}

int main(int argc, char** argv) { return mdm::run_cli(argc, argv, cli_main); }
