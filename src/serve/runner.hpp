#pragma once

/// \file runner.hpp
/// Executes one JobSpec: one scenario (serve::job_scenario: its parsed
/// text, or the NaCl melt its legacy fields describe) run by
/// scenario::run_scenario on serve::job_machine(spec) — one process on the
/// caller-provided thread-pool slice, or the full MDM parallel application
/// when parallel_real > 0. Returns the trajectory.
///
/// This free function is the determinism anchor of the service: the
/// scheduler workers and the serial reference runs in tests/benches call the
/// *same* code, so a served job is bit-identical to a standalone run with
/// the same pool size (the real-space sweep is bit-identical at any pool
/// size; the wavenumber DFT reduces per-chunk partials in chunk order and is
/// bit-identical for a fixed pool size — see ewald/ewald.hpp).
///
/// Cancellation is cooperative: `options.cancel` is checked after every
/// completed step; a cancelled run returns kCancelled with the bit-exact
/// trajectory prefix, completed_steps set to the last step reached, and
/// (with checkpointing on) a valid latest checkpoint generation on disk.

#include <atomic>
#include <functional>
#include <string>

#include "serve/job.hpp"
#include "util/thread_pool.hpp"

namespace mdm::serve {

struct RunOptions {
  /// Per-job thread slice driving the force loops; nullptr = serial.
  ThreadPool* pool = nullptr;
  /// Cooperative cancel flag, checked at every step boundary. May be null.
  const std::atomic<bool>* cancel = nullptr;
  /// Rotating checkpoint directory; with spec.checkpoint_interval > 0 the
  /// run writes checkpoint + manifest pairs there and — if the directory
  /// already holds a valid pair for the same job — resumes from it and
  /// returns the complete trajectory. Empty disables checkpointing.
  std::string checkpoint_dir;
  int keep_generations = 3;
  /// Live trajectory streaming: called with every recorded sample, in step
  /// order, from the running thread (rank 0's in parallel). Feeds
  /// Job::push_stream_sample for chunked result polling.
  std::function<void(const Sample&)> on_sample;
  /// With checkpointing on: a cooperative cancel writes a pair at the
  /// exact cancel step before unwinding, so a drained shard's jobs resume
  /// with zero recomputation (a parallel job: from its last interval pair).
  bool checkpoint_on_cancel = false;
};

/// Run `spec` to completion (kCompleted) or to the first observed cancel
/// (kCancelled). Exceptions (an invalid scenario, a backend that cannot
/// evaluate its force field, numerical health, checkpoint I/O) propagate to
/// the caller, which maps them to kFailed.
JobResult run_job(const JobSpec& spec, const RunOptions& options = {});

}  // namespace mdm::serve
