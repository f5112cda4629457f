#pragma once

/// \file job.hpp
/// Job model of the simulation service (DESIGN.md §9). The MDM machine was
/// operated as a shared facility — many users submitting MD problems to one
/// special-purpose resource — and this module is the unit of that sharing: a
/// `JobSpec` describes one NaCl-melt simulation request (tenant, priority
/// class, deadline, workload), a `Job` is the service-side record with its
/// full lifecycle, and a `JobHandle` is the client-side view (poll / wait /
/// cancel).
///
/// Lifecycle:
///
///   submit -> kQueued -> kRunning -> kCompleted | kFailed | kCancelled
///          \-> kRejected          (admission: queue depth / memory budget)
///          \-> kDeadlineExceeded  (shed: deadline passed before start)
///
/// Cancellation is cooperative: `cancel()` sets a flag that the runner
/// checks at every step boundary, so a cancelled job stops with a valid
/// partial trajectory (and, with checkpointing on, a valid latest
/// checkpoint generation to resume from).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/lattice.hpp"
#include "core/simulation.hpp"
#include "obs/trace_context.hpp"
#include "scenario/engine.hpp"
#include "util/vec3.hpp"

namespace mdm::serve {

/// Priority class, highest first. Within a class jobs are FIFO (modulated
/// by per-tenant fair share and deadlines, see JobQueue).
enum class JobClass : int {
  kInteractive = 0,  ///< short exploratory runs; always scheduled first
  kBatch = 1,        ///< the default production class
  kBestEffort = 2,   ///< background sweeps; run when nothing else waits
};

enum class JobState : int {
  kQueued = 0,
  kRunning,
  kCompleted,
  kFailed,             ///< runner threw (numerical health, I/O, ...)
  kCancelled,          ///< cancelled while queued or cooperatively mid-run
  kRejected,           ///< admission said Overloaded at submit
  kDeadlineExceeded,   ///< deadline passed before the job could start
};

const char* to_string(JobState state);
const char* to_string(JobClass job_class);
bool is_terminal(JobState state);

/// One simulation request: the workload (scenario text, or the paper's
/// NaCl melt at a caller-chosen scale) plus where and how to run it.
struct JobSpec {
  std::string tenant = "default";          ///< fair-share accounting key
  JobClass job_class = JobClass::kBatch;
  /// Max milliseconds the job may wait in the queue before *starting*;
  /// popped later than this it is shed with kDeadlineExceeded. 0 = none.
  double deadline_ms = 0.0;

  // ---- workload ----
  /// Declarative scenario text (src/scenario spec grammar). Non-empty makes
  /// it the job's whole workload — species, system, force field, ensemble
  /// (incl. NPT), schedule and analysis — and the NaCl-melt fields below
  /// are ignored: they enter neither the run nor the canonical key.
  std::string scenario;
  /// Directory for the scenario's analysis outputs (RDF/MSD/energy CSVs,
  /// XYZ trajectory). Empty skips file outputs. Excluded from the
  /// canonical key — it changes where results land, never what is computed.
  std::string analysis_dir;

  /// The legacy NaCl-melt description, used when `scenario` is empty: the
  /// job runs scenario::nacl_melt_scenario with these values
  /// (equilibration = nvt_steps NVT steps, production = nve_steps NVE
  /// steps), bit-identical to examples/nacl_melt.cpp.
  int cells = 1;                  ///< n^3 NaCl supercell (8 n^3 ions)
  int nvt_steps = 4;
  int nve_steps = 4;
  double temperature_K = 1200.0;  ///< paper: 1200 K
  double dt_fs = 2.0;             ///< paper: 2 fs
  std::uint64_t seed = 1;         ///< Maxwell velocity seed

  // ---- machine (job_machine) ----
  /// > 0 runs the job, legacy or scenario, on the full MDM parallel
  /// application (this many real-space ranks plus parallel_wn wavenumber
  /// ranks on the virtual MPI world); a spec it cannot run fails, named.
  /// The job's trace context flows into every rank thread, so one served
  /// job is one trace across submit, queue, per-rank run phases and
  /// checkpoints.
  int parallel_real = 0;
  int parallel_wn = 2;
  /// K-space solver of a parallel job: "sf" (exact structure-factor sum),
  /// "pme" (slab-decomposed particle-mesh, DESIGN.md §12) or "auto" (the
  /// perf model picks the cheaper admissible one at `accuracy_target` RMS
  /// force error). Single-process jobs use the spec's Ewald sum.
  std::string solver = "sf";
  double accuracy_target = 5e-4;
  /// PME mesh (solver "pme"/"auto"): points per axis (0 = size from the
  /// Ewald wave cutoff) and B-spline order. grid % parallel_wn must be 0.
  int pme_grid = 0;
  int pme_order = 6;
  /// Force-evaluation backend (DESIGN.md §11): kEmulator runs the software
  /// reference / simulated-hardware paths; kNative runs the vectorized host
  /// kernels. Applies to both the single-process and the parallel path.
  Backend backend = Backend::kEmulator;

  // ---- checkpoint / resume (core/checkpoint, DESIGN.md §8) ----
  /// Steps between rotating checkpoint generations; 0 disables. Every
  /// generation is a pair: the checkpoint plus a job-resume manifest
  /// carrying the sample prefix (core/manifest, DESIGN.md §13), so a
  /// resumed job returns its complete trajectory.
  int checkpoint_interval = 0;
  /// Explicit per-job checkpoint directory. Empty = `<service
  /// checkpoint_root>/job-<id>`. A resubmitted job pointing at the same
  /// directory resumes from the newest valid pair.
  std::string checkpoint_dir;

  long long particle_count() const { return nacl_ion_count(cells); }
  int total_steps() const { return nvt_steps + nve_steps; }
};

/// The job's workload as one scenario: the parsed `scenario` text (throws
/// scenario::ScenarioError when it does not parse), or the NaCl melt the
/// legacy fields describe. A generated spec is not validated here.
scenario::ScenarioSpec job_scenario(const JobSpec& spec);

/// The machine the job's fields name.
scenario::Machine job_machine(const JobSpec& spec);

/// Canonical form of what a job computes: scenario::run_key of
/// job_scenario(spec) and job_machine(spec), as its manifests are keyed.
/// Two specs with the same key produce bit-identical
/// trajectories (given the same per-job thread count, which the
/// service/fleet fixes globally), and a legacy job has the key of the same
/// physics written as scenario text. Excludes tenant, class, deadline and
/// checkpoint/analysis placement — those change *where and when* a job
/// runs, never *what it computes* — so the fleet result cache can serve a
/// tenant's job from another tenant's identical run.
std::string canonical_job_key(const JobSpec& spec);
/// job_key_hash of canonical_job_key (shard routing).
std::uint64_t canonical_job_hash(const JobSpec& spec);

/// Thrown by the wait-with-deadline paths (Job::wait_for,
/// SimService::drain_for). The message names *which* job(s) the waiter was
/// blocked on — id, tenant, class, state — mirroring the vmpi
/// who-waits-on-whom deadlock dump, so a stuck drain reads as "waiting on
/// job 12 (tenant 'alice', class batch, running)" instead of a bare timeout.
class JobWaitTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Terminal outcome of a job. For kCompleted the trajectory is bit-identical
/// to the same spec run standalone with the same per-job thread count; for
/// kCancelled it is the bit-identical prefix of that run.
struct JobResult {
  JobState state = JobState::kQueued;
  std::string error;  ///< reject/shed reason or runner exception text
  std::vector<Sample> samples;
  std::vector<Vec3> positions;   ///< final configuration
  std::vector<Vec3> velocities;
  int completed_steps = 0;
  std::uint64_t resumed_from_step = 0;  ///< nonzero when restored from ckpt
  double wait_ms = 0.0;  ///< submit -> start (or terminal decision)
  double run_ms = 0.0;   ///< start -> finish
  /// The job's trace id (DESIGN.md §10): every span of this job — admission,
  /// queue wait, run, per-rank phases, checkpoints — carries it.
  std::uint64_t trace_id = 0;
};

/// Service-side job record. Shared (via shared_ptr) between the queue, the
/// scheduler workers and every JobHandle; all mutable state is behind the
/// internal mutex except the lock-free cancel flag.
class Job {
 public:
  using Clock = std::chrono::steady_clock;

  Job(std::uint64_t id, JobSpec spec);

  std::uint64_t id() const { return id_; }
  const JobSpec& spec() const { return spec_; }
  /// Trace context minted at submit; installed by the scheduler around
  /// every stage of the job so one job is one trace (DESIGN.md §10).
  const obs::TraceContext& trace_context() const { return trace_ctx_; }
  std::uint64_t trace_id() const { return trace_ctx_.trace_id; }
  /// Trace-clock timestamp of submit (start of the serve.queue span).
  std::uint64_t submit_trace_ns() const { return submit_trace_ns_; }
  Clock::time_point submit_time() const { return submit_tp_; }
  bool has_deadline() const { return spec_.deadline_ms > 0.0; }
  Clock::time_point deadline() const { return deadline_tp_; }

  /// Cooperative cancellation: checked by the queue at pop time and by the
  /// runner at every step boundary.
  void request_cancel() { cancel_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }
  /// The raw flag, handed to RunOptions::cancel by the scheduler.
  const std::atomic<bool>* cancel_flag() const { return &cancel_; }

  /// Admission's estimate for this job, set once at submit.
  std::size_t reserved_bytes() const { return reserved_bytes_; }
  void set_reserved_bytes(std::size_t bytes) { reserved_bytes_ = bytes; }

  JobState state() const;
  bool done() const;
  /// Block until terminal and return the result (copies; results outlive
  /// the service).
  JobResult wait() const;
  /// wait() with a deadline: throws JobWaitTimeout naming this job (id,
  /// tenant, class, current state, milliseconds waited) if it is not
  /// terminal within `timeout_ms`.
  JobResult wait_for(double timeout_ms) const;
  /// Result if terminal, empty result with current state otherwise.
  JobResult snapshot() const;
  /// "job <id> (tenant '<t>', class <c>, <state>)" — for timeout dumps.
  std::string describe() const;

  // ---- streamed results (fleet chunked polling) ----
  /// Append a live trajectory sample; pollers see it immediately, long
  /// before the job is terminal. Fed by RunOptions::on_sample.
  void push_stream_sample(const Sample& sample);
  void push_stream_samples(const std::vector<Sample>& samples);
  std::size_t stream_size() const;
  /// Samples at index >= cursor (empty when caught up).
  std::vector<Sample> stream_since(std::size_t cursor) const;

  // ---- scheduler side ----
  void mark_running();
  /// Set the terminal result exactly once and wake waiters. Later calls
  /// are ignored (returns false) so a job can never complete twice.
  bool finalize(JobResult result);

 private:
  const std::uint64_t id_;
  const JobSpec spec_;
  const obs::TraceContext trace_ctx_;
  const std::uint64_t submit_trace_ns_;
  const Clock::time_point submit_tp_;
  const Clock::time_point deadline_tp_;

  std::string describe_locked() const;

  std::atomic<bool> cancel_{false};
  std::size_t reserved_bytes_ = 0;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  JobState state_ = JobState::kQueued;
  JobResult result_;
  bool done_ = false;
  std::vector<Sample> stream_;  ///< live samples, oldest first
};

/// Client-side view of a submitted job.
class JobHandle {
 public:
  JobHandle() = default;
  explicit JobHandle(std::shared_ptr<Job> job) : job_(std::move(job)) {}

  bool valid() const { return job_ != nullptr; }
  std::uint64_t id() const { return job_->id(); }
  std::uint64_t trace_id() const { return job_->trace_id(); }
  const JobSpec& spec() const { return job_->spec(); }

  JobState state() const { return job_->state(); }
  bool done() const { return job_->done(); }
  JobResult wait() const { return job_->wait(); }
  /// wait() with a deadline; throws JobWaitTimeout naming the job.
  JobResult wait_for(double timeout_ms) const {
    return job_->wait_for(timeout_ms);
  }
  void cancel() const { job_->request_cancel(); }

  /// Streamed chunked polling: returns the samples produced since `cursor`
  /// and advances it. Chunks arrive while the job is still running; after
  /// completion the stream holds the full trajectory seen so far.
  std::vector<Sample> poll_samples(std::size_t& cursor) const {
    auto chunk = job_->stream_since(cursor);
    cursor += chunk.size();
    return chunk;
  }

  /// Service internals (tests reach through this for checkpoint paths).
  const std::shared_ptr<Job>& record() const { return job_; }

 private:
  std::shared_ptr<Job> job_;
};

}  // namespace mdm::serve
