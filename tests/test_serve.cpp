/// \file test_serve.cpp
/// The multi-tenant simulation job service (DESIGN.md §9): queue policy
/// (priority class / per-tenant fair share / deadline ordering), admission
/// control, end-to-end serving with bit-identical results vs standalone
/// runs, cooperative cancellation (valid checkpoints, bit-exact trajectory
/// prefix), resume-after-preempt, parallel jobs as scenarios on the MDM
/// machine (manifest pairs, resume, cancel prefix, named rejections), and a
/// 100-job soak proving no completion is ever lost or duplicated.

#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "host/mdm_force_field.hpp"
#include "host/parallel_app.hpp"
#include "scenario/builder.hpp"
#include "scenario/parser.hpp"
#include "obs/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/job.hpp"
#include "serve/job_queue.hpp"
#include "serve/runner.hpp"
#include "util/thread_pool.hpp"

namespace mdm::serve {
namespace {

namespace fs = std::filesystem;

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter_value(name);
}

/// Queue entries need a Job record; only tenant/class/deadline matter here.
std::shared_ptr<Job> make_job(std::uint64_t id, const std::string& tenant,
                              JobClass cls, double deadline_ms = 0.0) {
  JobSpec spec;
  spec.tenant = tenant;
  spec.job_class = cls;
  spec.deadline_ms = deadline_ms;
  return std::make_shared<Job>(id, spec);
}

/// Tiny but non-trivial served workload (64 ions, full Ewald).
JobSpec small_spec() {
  JobSpec spec;
  spec.cells = 2;
  spec.nvt_steps = 3;
  spec.nve_steps = 3;
  spec.seed = 11;
  return spec;
}

ServiceConfig service_config(int workers, unsigned threads_per_job = 1) {
  ServiceConfig config;
  config.workers = workers;
  config.threads_per_job = threads_per_job;
  return config;
}

/// Long enough that a cancel raced against the run lands mid-trajectory.
JobSpec long_spec() {
  JobSpec spec;
  spec.cells = 2;
  spec.nvt_steps = 400;
  spec.nve_steps = 100;
  spec.seed = 5;
  return spec;
}

void expect_samples_equal(const Sample& a, const Sample& b) {
  EXPECT_EQ(a.step, b.step);
  EXPECT_EQ(a.time_ps, b.time_ps);
  EXPECT_EQ(a.temperature_K, b.temperature_K);
  EXPECT_EQ(a.kinetic_eV, b.kinetic_eV);
  EXPECT_EQ(a.potential_eV, b.potential_eV);
  EXPECT_EQ(a.total_eV, b.total_eV);
  EXPECT_EQ(a.pressure_GPa, b.pressure_GPa);
}

void expect_vecs_equal(const std::vector<Vec3>& a,
                       const std::vector<Vec3>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x) << "i=" << i;
    EXPECT_EQ(a[i].y, b[i].y) << "i=" << i;
    EXPECT_EQ(a[i].z, b[i].z) << "i=" << i;
  }
}

/// Per-test temp checkpoint directory (same pattern as test_checkpoint).
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("mdm_serve_" + std::string(info->name()) + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Block until the rotating checkpoint directory holds a generation.
  /// Synchronizes "the run is past its first checkpointed step" without
  /// guessing at timings.
  void wait_for_checkpoint(const std::string& ckpt_dir) const {
    for (;;) {
      if (fs::exists(ckpt_dir))
        for (const auto& e : fs::directory_iterator(ckpt_dir))
          if (e.path().filename().string().rfind("ckpt.", 0) == 0) return;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// JobQueue policy (single-threaded: the queue is pure policy; SimService's
// mutex is the concurrency boundary).
// ---------------------------------------------------------------------------

TEST(JobQueuePolicy, PriorityClassOrdersAcrossTenants) {
  JobQueue q;
  q.push(make_job(1, "a", JobClass::kBestEffort));
  q.push(make_job(2, "b", JobClass::kBatch));
  q.push(make_job(3, "c", JobClass::kInteractive));
  q.push(make_job(4, "d", JobClass::kBatch));
  EXPECT_EQ(q.pop()->id(), 3u);  // interactive first
  EXPECT_EQ(q.pop()->id(), 2u);  // then batch...
  EXPECT_EQ(q.pop()->id(), 4u);
  EXPECT_EQ(q.pop()->id(), 1u);  // best-effort last
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pop(), nullptr);
}

TEST(JobQueuePolicy, FifoWithinTenantAndClass) {
  JobQueue q;
  for (std::uint64_t id = 1; id <= 4; ++id)
    q.push(make_job(id, "alice", JobClass::kBatch));
  for (std::uint64_t id = 1; id <= 4; ++id) EXPECT_EQ(q.pop()->id(), id);
}

TEST(JobQueuePolicy, EarliestDeadlineFirstWithinTenant) {
  JobQueue q;
  q.push(make_job(1, "alice", JobClass::kBatch));              // no deadline
  q.push(make_job(2, "alice", JobClass::kBatch, 5'000.0));
  q.push(make_job(3, "alice", JobClass::kBatch, 1'000.0));
  // Deadlined jobs first (earliest deadline wins), deadline-free FIFO after.
  EXPECT_EQ(q.pop()->id(), 3u);
  EXPECT_EQ(q.pop()->id(), 2u);
  EXPECT_EQ(q.pop()->id(), 1u);
}

TEST(JobQueuePolicy, FairShareFewestRunningTenantWins) {
  JobQueue q;
  q.note_started("alice");  // alice has a job on a worker right now
  q.push(make_job(1, "alice", JobClass::kBatch));  // pushed first
  q.push(make_job(2, "bob", JobClass::kBatch));
  EXPECT_EQ(q.pop()->id(), 2u);  // bob idle -> bob wins despite FIFO
  EXPECT_EQ(q.pop()->id(), 1u);
  q.note_finished("alice");
  EXPECT_EQ(q.running("alice"), 0);
}

TEST(JobQueuePolicy, FairShareLeastServedBreaksRunningTies) {
  JobQueue q;
  q.note_started("alice");  // served: alice=1
  q.note_finished("alice"); // running: alice=0, bob=0
  q.push(make_job(1, "alice", JobClass::kBatch));
  q.push(make_job(2, "bob", JobClass::kBatch));
  EXPECT_EQ(q.pop()->id(), 2u);  // bob served less
  // All else equal, the lexicographically smallest tenant (deterministic).
  q.push(make_job(3, "zoe", JobClass::kBatch));
  q.push(make_job(4, "bob", JobClass::kBatch));
  q.note_started("bob");
  q.note_started("zoe");  // served: alice=1, bob=1, zoe=1; running all 0
  q.note_finished("bob");
  q.note_finished("zoe");
  EXPECT_EQ(q.pop()->id(), 1u);              // three-way tie: alice
  EXPECT_EQ(q.pop()->spec().tenant, "bob");  // then bob before zoe
  EXPECT_EQ(q.pop()->spec().tenant, "zoe");
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

TEST(Admission, QueueDepthCapRejects) {
  AdmissionConfig config;
  config.max_queue_depth = 2;
  AdmissionController admission(config);
  const std::size_t bytes = AdmissionController::estimate_bytes(JobSpec{});
  EXPECT_EQ(admission.decide(bytes, 1), AdmissionController::Decision::kAdmit);
  EXPECT_EQ(admission.decide(bytes, 2),
            AdmissionController::Decision::kQueueFull);
  EXPECT_NE(AdmissionController::reason(
                AdmissionController::Decision::kQueueFull)
                .find("Overloaded"),
            std::string::npos);
}

TEST(Admission, MemoryBudgetRejectsUntilReleased) {
  JobSpec spec;
  spec.cells = 2;
  const std::size_t one = AdmissionController::estimate_bytes(spec);
  AdmissionController admission(
      {.max_queue_depth = 64, .max_inflight_bytes = one + one / 2});
  EXPECT_EQ(admission.decide(one, 0), AdmissionController::Decision::kAdmit);
  admission.acquire(one);
  EXPECT_EQ(admission.inflight_bytes(), one);
  EXPECT_EQ(admission.decide(one, 0),
            AdmissionController::Decision::kMemoryBudget);
  admission.release(one);
  EXPECT_EQ(admission.inflight_bytes(), 0u);
  EXPECT_EQ(admission.decide(one, 0), AdmissionController::Decision::kAdmit);
}

TEST(Admission, EstimateBytesMonotoneInParticleCount) {
  JobSpec small, medium, large;
  small.cells = 1;
  medium.cells = 2;
  large.cells = 3;
  EXPECT_LT(AdmissionController::estimate_bytes(small),
            AdmissionController::estimate_bytes(medium));
  EXPECT_LT(AdmissionController::estimate_bytes(medium),
            AdmissionController::estimate_bytes(large));
}

// ---------------------------------------------------------------------------
// Job lifecycle primitives.
// ---------------------------------------------------------------------------

TEST(JobLifecycle, FinalizeIsExactlyOnce) {
  Job job(7, JobSpec{});
  EXPECT_FALSE(job.done());
  JobResult first;
  first.state = JobState::kCompleted;
  first.completed_steps = 42;
  EXPECT_TRUE(job.finalize(first));
  JobResult second;
  second.state = JobState::kFailed;
  EXPECT_FALSE(job.finalize(second));  // a job can never complete twice
  EXPECT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.wait().completed_steps, 42);
}

// ---------------------------------------------------------------------------
// End-to-end serving.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, SingleJobCompletesWithFullTrajectory) {
  SimService service(service_config(1));
  service.start();
  auto handle = service.submit(small_spec());
  const JobResult result = handle.wait();
  EXPECT_EQ(result.state, JobState::kCompleted);
  EXPECT_EQ(result.completed_steps, small_spec().total_steps());
  // Step-0 sample plus one per step.
  EXPECT_EQ(result.samples.size(),
            std::size_t(small_spec().total_steps()) + 1);
  EXPECT_EQ(result.positions.size(),
            std::size_t(small_spec().particle_count()));
  EXPECT_EQ(result.velocities.size(), result.positions.size());
  EXPECT_GE(result.wait_ms, 0.0);
  EXPECT_GT(result.run_ms, 0.0);
  EXPECT_TRUE(handle.done());
}

TEST_F(ServeTest, ServedResultBitIdenticalToSerialRun) {
  const JobSpec spec = small_spec();
  const JobResult reference = run_job(spec);  // serial, no service
  SimService service(service_config(2, 1));
  service.start();
  const JobResult served = service.submit(spec).wait();
  ASSERT_EQ(served.state, JobState::kCompleted);
  ASSERT_EQ(served.samples.size(), reference.samples.size());
  for (std::size_t i = 0; i < served.samples.size(); ++i)
    expect_samples_equal(served.samples[i], reference.samples[i]);
  expect_vecs_equal(served.positions, reference.positions);
  expect_vecs_equal(served.velocities, reference.velocities);
}

TEST_F(ServeTest, ServedResultBitIdenticalWithThreadSlice) {
  const JobSpec spec = small_spec();
  // The wavenumber DFT is bit-identical for a fixed pool size, so the
  // reference must use the same slice width as the service workers.
  ThreadPool reference_pool(2);
  RunOptions reference_options;
  reference_options.pool = &reference_pool;
  const JobResult reference = run_job(spec, reference_options);
  SimService service(service_config(2, 2));
  service.start();
  const JobResult served = service.submit(spec).wait();
  ASSERT_EQ(served.state, JobState::kCompleted);
  ASSERT_EQ(served.samples.size(), reference.samples.size());
  for (std::size_t i = 0; i < served.samples.size(); ++i)
    expect_samples_equal(served.samples[i], reference.samples[i]);
  expect_vecs_equal(served.positions, reference.positions);
  expect_vecs_equal(served.velocities, reference.velocities);
}

TEST_F(ServeTest, OverloadedSubmitRejectedExplicitly) {
  ServiceConfig config;
  config.admission.max_queue_depth = 1;
  SimService service(config);  // not started: jobs stay queued
  auto admitted = service.submit(small_spec());
  EXPECT_EQ(admitted.state(), JobState::kQueued);
  auto rejected = service.submit(small_spec());
  EXPECT_TRUE(rejected.done());  // terminal immediately, no queueing forever
  const JobResult result = rejected.wait();
  EXPECT_EQ(result.state, JobState::kRejected);
  EXPECT_NE(result.error.find("Overloaded"), std::string::npos);
  EXPECT_TRUE(result.samples.empty());
  EXPECT_EQ(result.completed_steps, 0);
}

TEST_F(ServeTest, MemoryBudgetRejectsLargeJob) {
  ServiceConfig config;
  config.admission.max_inflight_bytes =
      AdmissionController::estimate_bytes(small_spec()) +
      AdmissionController::estimate_bytes(small_spec()) / 2;
  SimService service(config);  // not started
  EXPECT_EQ(service.submit(small_spec()).state(), JobState::kQueued);
  const JobResult result = service.submit(small_spec()).wait();
  EXPECT_EQ(result.state, JobState::kRejected);
  EXPECT_NE(result.error.find("memory budget"), std::string::npos);
}

TEST_F(ServeTest, ExpiredDeadlineIsShedNotRun) {
  JobSpec spec = small_spec();
  spec.deadline_ms = 1.0;
  SimService service(service_config(1));
  auto handle = service.submit(spec);  // queued: service not started yet
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.start();  // deadline already passed when the worker pops it
  const JobResult result = handle.wait();
  EXPECT_EQ(result.state, JobState::kDeadlineExceeded);
  EXPECT_NE(result.error.find("DeadlineExceeded"), std::string::npos);
  EXPECT_TRUE(result.samples.empty());  // never started
  EXPECT_GE(result.wait_ms, spec.deadline_ms);
}

TEST_F(ServeTest, CancelWhileQueuedNeverRuns) {
  SimService service(service_config(1));
  auto handle = service.submit(small_spec());  // queued (not started)
  handle.cancel();
  service.start();
  const JobResult result = handle.wait();
  EXPECT_EQ(result.state, JobState::kCancelled);
  EXPECT_NE(result.error.find("cancelled while queued"), std::string::npos);
  EXPECT_TRUE(result.samples.empty());
  EXPECT_EQ(result.completed_steps, 0);
}

TEST_F(ServeTest, CooperativeCancelYieldsBitIdenticalPrefix) {
  JobSpec spec = long_spec();
  spec.checkpoint_interval = 5;  // first generation doubles as "mid-run" cue
  spec.checkpoint_dir = path("ckpt");
  SimService service(service_config(1));
  service.start();
  auto handle = service.submit(spec);
  wait_for_checkpoint(spec.checkpoint_dir);
  handle.cancel();
  const JobResult cancelled = handle.wait();
  ASSERT_EQ(cancelled.state, JobState::kCancelled);
  ASSERT_GT(cancelled.completed_steps, 0);
  ASSERT_LT(cancelled.completed_steps, spec.total_steps());

  // The partial trajectory is the bit-exact prefix of the uninterrupted
  // serial run of the same spec (no checkpointing: it never alters state).
  JobSpec full = spec;
  full.checkpoint_interval = 0;
  full.checkpoint_dir.clear();
  const JobResult reference = run_job(full);
  ASSERT_EQ(reference.state, JobState::kCompleted);
  ASSERT_LE(cancelled.samples.size(), reference.samples.size());
  ASSERT_FALSE(cancelled.samples.empty());
  for (std::size_t i = 0; i < cancelled.samples.size(); ++i)
    expect_samples_equal(cancelled.samples[i], reference.samples[i]);
}

TEST_F(ServeTest, CancelLeavesValidLatestCheckpoint) {
  JobSpec spec = long_spec();
  spec.checkpoint_interval = 5;
  spec.checkpoint_dir = path("ckpt");
  SimService service(service_config(1));
  service.start();
  auto handle = service.submit(spec);
  wait_for_checkpoint(spec.checkpoint_dir);
  handle.cancel();
  const JobResult result = handle.wait();
  ASSERT_EQ(result.state, JobState::kCancelled);

  const CheckpointManager manager(spec.checkpoint_dir);
  const auto latest = manager.restore_latest();
  ASSERT_TRUE(latest.has_value());  // cancellation never corrupts the dir
  EXPECT_GT(latest->step, 0u);
  EXPECT_LE(latest->step, std::uint64_t(result.completed_steps));
  EXPECT_EQ(latest->step % std::uint64_t(spec.checkpoint_interval), 0u);
  EXPECT_EQ(latest->size(), std::size_t(spec.particle_count()));
}

TEST_F(ServeTest, ResumeAfterPreemptBitIdenticalToUninterrupted) {
  JobSpec spec = long_spec();
  spec.checkpoint_interval = 5;
  spec.checkpoint_dir = path("ckpt");

  // Preempt: cancel the first submission once it has a checkpoint on disk.
  {
    SimService service(service_config(1));
    service.start();
    auto handle = service.submit(spec);
    wait_for_checkpoint(spec.checkpoint_dir);
    handle.cancel();
    ASSERT_EQ(handle.wait().state, JobState::kCancelled);
  }

  // Resubmit against the same checkpoint directory: resumes, completes,
  // and the final state is bit-identical to the uninterrupted serial run.
  SimService service(service_config(1));
  service.start();
  const JobResult resumed = service.submit(spec).wait();
  ASSERT_EQ(resumed.state, JobState::kCompleted);
  EXPECT_GT(resumed.resumed_from_step, 0u);
  EXPECT_EQ(resumed.completed_steps, spec.total_steps());

  JobSpec full = spec;
  full.checkpoint_interval = 0;
  full.checkpoint_dir.clear();
  const JobResult reference = run_job(full);
  expect_vecs_equal(resumed.positions, reference.positions);
  expect_vecs_equal(resumed.velocities, reference.velocities);
  // The resumed run's samples cover resume_step+1..total; each matches the
  // reference at the same step.
  ASSERT_FALSE(resumed.samples.empty());
  for (const auto& sample : resumed.samples) {
    ASSERT_LT(std::size_t(sample.step), reference.samples.size());
    expect_samples_equal(sample, reference.samples[std::size_t(sample.step)]);
  }
}

TEST_F(ServeTest, StopCancelsQueuedJobs) {
  SimService service(service_config(1));
  auto handle = service.submit(small_spec());  // queued, never started
  service.stop();
  const JobResult result = handle.wait();
  EXPECT_EQ(result.state, JobState::kCancelled);
  EXPECT_NE(result.error.find("service stopped"), std::string::npos);
  // Submitting after stop is an explicit rejection, not a hang.
  EXPECT_EQ(service.submit(small_spec()).wait().state, JobState::kRejected);
}

TEST_F(ServeTest, SoakHundredJobsNoLostOrDuplicatedCompletions) {
  const std::uint64_t completed0 = counter("serve.completed");
  const std::uint64_t cancelled0 = counter("serve.cancelled");
  const std::uint64_t failed0 = counter("serve.failed");

  ServiceConfig config;
  config.workers = 4;
  config.admission.max_queue_depth = 128;
  config.admission.max_inflight_bytes = std::size_t(1) << 30;
  SimService service(config);
  service.start();

  constexpr int kJobs = 100;
  std::vector<JobHandle> handles;
  handles.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    JobSpec spec;
    spec.tenant = "tenant-" + std::to_string(i % 5);
    spec.job_class = static_cast<JobClass>(i % 3);
    spec.cells = 1 + i % 2;  // mixed sizes: 8 and 64 ions
    spec.nvt_steps = 2;
    spec.nve_steps = 2;
    spec.seed = std::uint64_t(i) + 1;
    handles.push_back(service.submit(spec));
    if (i % 7 == 3) handles.back().cancel();
  }
  service.drain();

  int completed = 0, cancelled = 0, other = 0;
  for (const auto& handle : handles) {
    ASSERT_TRUE(handle.done());  // no job may be lost
    const JobResult result = handle.wait();
    switch (result.state) {
      case JobState::kCompleted:
        ++completed;
        EXPECT_EQ(result.completed_steps, 4);
        EXPECT_EQ(result.samples.size(), 5u);
        break;
      case JobState::kCancelled:
        ++cancelled;
        EXPECT_LT(result.completed_steps, 4);
        break;
      default:
        ++other;
        break;
    }
  }
  EXPECT_EQ(completed + cancelled + other, kJobs);
  EXPECT_EQ(other, 0);
  EXPECT_GT(completed, 0);
  // Registry totals agree with the handle tally: finalize() is
  // exactly-once, so nothing is double-counted either.
  EXPECT_EQ(counter("serve.completed") - completed0, std::uint64_t(completed));
  EXPECT_EQ(counter("serve.cancelled") - cancelled0, std::uint64_t(cancelled));
  EXPECT_EQ(counter("serve.failed") - failed0, 0u);
}

TEST_F(ServeTest, MetricsAccountForEveryDisposition) {
  const std::uint64_t submitted0 = counter("serve.submitted");
  const std::uint64_t admitted0 = counter("serve.admitted");
  const std::uint64_t rejected0 = counter("serve.rejected.queue_depth");
  ServiceConfig config;
  config.admission.max_queue_depth = 2;
  {
    SimService service(config);
    service.submit(small_spec());
    service.submit(small_spec());
    service.submit(small_spec());  // over the cap
    service.start();
    service.drain();
  }
  EXPECT_EQ(counter("serve.submitted") - submitted0, 3u);
  EXPECT_EQ(counter("serve.admitted") - admitted0, 2u);
  EXPECT_EQ(counter("serve.rejected.queue_depth") - rejected0, 1u);
  // Every submit is either admitted or rejected, never dropped.
  EXPECT_EQ(counter("serve.admitted") - admitted0 +
                (counter("serve.rejected.queue_depth") - rejected0),
            counter("serve.submitted") - submitted0);
}

TEST_F(ServeTest, WaitForTimeoutNamesTheJobItWaitedOn) {
  JobSpec spec = small_spec();
  spec.tenant = "alice";
  SimService service(service_config(1));  // not started: stays queued
  auto handle = service.submit(spec);
  try {
    handle.wait_for(5.0);
    FAIL() << "expected JobWaitTimeout";
  } catch (const JobWaitTimeout& e) {
    // The who-waits-on-whom dump (mirroring the vmpi deadlock dump): id,
    // tenant, class and current state, not a bare "timed out".
    const std::string what = e.what();
    EXPECT_NE(what.find("job 1"), std::string::npos) << what;
    EXPECT_NE(what.find("tenant 'alice'"), std::string::npos) << what;
    EXPECT_NE(what.find("queued"), std::string::npos) << what;
  }
  service.start();
  EXPECT_EQ(handle.wait_for(60000.0).state, JobState::kCompleted);
}

TEST_F(ServeTest, DrainForTimeoutNamesEveryOutstandingJob) {
  SimService service(service_config(1));  // not started: both stay queued
  JobSpec a = small_spec();
  a.tenant = "alice";
  JobSpec b = small_spec();
  b.tenant = "bob";
  service.submit(a);
  service.submit(b);
  try {
    service.drain_for(5.0);
    FAIL() << "expected JobWaitTimeout";
  } catch (const JobWaitTimeout& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 job(s)"), std::string::npos) << what;
    EXPECT_NE(what.find("tenant 'alice'"), std::string::npos) << what;
    EXPECT_NE(what.find("tenant 'bob'"), std::string::npos) << what;
  }
  service.start();
  service.drain_for(60000.0);  // and with workers running it drains fine
}

TEST_F(ServeTest, StreamedSamplesArriveWhileTheJobRuns) {
  ServiceConfig config = service_config(1);
  config.stream_samples = true;
  SimService service(config);
  service.start();
  auto handle = service.submit(long_spec());

  std::size_t cursor = 0;
  std::vector<Sample> streamed;
  bool saw_chunk_before_done = false;
  while (!handle.done()) {
    auto chunk = handle.poll_samples(cursor);
    if (!chunk.empty() && !handle.done()) saw_chunk_before_done = true;
    streamed.insert(streamed.end(), chunk.begin(), chunk.end());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const JobResult result = handle.wait();
  ASSERT_EQ(result.state, JobState::kCompleted);
  EXPECT_TRUE(saw_chunk_before_done);
  auto tail = handle.poll_samples(cursor);
  streamed.insert(streamed.end(), tail.begin(), tail.end());
  ASSERT_EQ(streamed.size(), result.samples.size());
  for (std::size_t i = 0; i < streamed.size(); ++i)
    expect_samples_equal(streamed[i], result.samples[i]);
}

TEST_F(ServeTest, CheckpointOnCancelPersistsTheExactCancelStep) {
  JobSpec spec = long_spec();
  spec.checkpoint_interval = 50;  // coarse: the cancel step is between gens
  spec.checkpoint_dir = path("ckpt");
  ServiceConfig config = service_config(1);
  config.checkpoint_on_cancel = true;
  SimService service(config);
  service.start();
  auto handle = service.submit(spec);
  wait_for_checkpoint(spec.checkpoint_dir);
  handle.cancel();
  const JobResult result = handle.wait();
  ASSERT_EQ(result.state, JobState::kCancelled);

  // Not just the last interval generation: the drain checkpoint holds the
  // exact step the cancel landed on, so a migrated job resumes with zero
  // recomputation.
  const CheckpointManager manager(spec.checkpoint_dir);
  const auto latest = manager.restore_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->step, std::uint64_t(result.completed_steps));
}

TEST_F(ServeTest, ManifestModeResumeReturnsTheCompleteTrajectory) {
  JobSpec spec = long_spec();
  spec.checkpoint_interval = 5;
  spec.checkpoint_dir = path("ckpt");
  ServiceConfig config = service_config(1);
  config.checkpoint_on_cancel = true;
  {
    SimService service(config);
    service.start();
    auto handle = service.submit(spec);
    wait_for_checkpoint(spec.checkpoint_dir);
    handle.cancel();
    ASSERT_EQ(handle.wait().state, JobState::kCancelled);
  }

  // Unlike the plain resume (samples from resume_step+1 only), manifest
  // mode returns the full trajectory: the manifest carried the prefix.
  SimService service(config);
  service.start();
  const JobResult resumed = service.submit(spec).wait();
  ASSERT_EQ(resumed.state, JobState::kCompleted);
  EXPECT_GT(resumed.resumed_from_step, 0u);

  JobSpec full = spec;
  full.checkpoint_interval = 0;
  full.checkpoint_dir.clear();
  const JobResult reference = run_job(full);
  ASSERT_EQ(resumed.samples.size(), reference.samples.size());
  for (std::size_t i = 0; i < resumed.samples.size(); ++i)
    expect_samples_equal(resumed.samples[i], reference.samples[i]);
  expect_vecs_equal(resumed.positions, reference.positions);
  expect_vecs_equal(resumed.velocities, reference.velocities);
}

// ---------------------------------------------------------------------------
// One single-process path: legacy jobs are scenarios, the engine owns
// backend choice, resume and the cancel drain.
// ---------------------------------------------------------------------------

/// A bundled spec with a short schedule and no analysis outputs.
scenario::ScenarioSpec bundled(const char* file, int equilibration,
                               int production) {
  scenario::ScenarioSpec spec = scenario::parse_scenario_file(
      std::string(MDM_SCENARIO_DIR) + "/" + file);
  if (spec.system.kind == scenario::SystemKind::kLattice)
    spec.system.cells = 2;
  spec.run.equilibration = equilibration;
  spec.run.production = production;
  spec.analyses.clear();
  return spec;
}

void expect_results_equal(const JobResult& a, const JobResult& b) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i)
    expect_samples_equal(a.samples[i], b.samples[i]);
  expect_vecs_equal(a.positions, b.positions);
  expect_vecs_equal(a.velocities, b.velocities);
}

TEST_F(ServeTest, LegacyJobEqualsTheSamePhysicsAsScenarioText) {
  for (Backend backend : {Backend::kEmulator, Backend::kNative}) {
    SCOPED_TRACE(to_string(backend));
    JobSpec legacy = small_spec();
    legacy.backend = backend;

    // The bundled melt, rewritten to the legacy job's size and schedule.
    scenario::ScenarioSpec sc = bundled("nacl_melt.toml", legacy.nvt_steps,
                                        legacy.nve_steps);
    sc.system.seed = legacy.seed;
    JobSpec text;
    text.scenario = sc.canonical_text();
    text.backend = backend;
    text.cells = 3;  // ignored by a scenario job: not physics, not key
    text.seed = 99;

    EXPECT_EQ(canonical_job_key(legacy), canonical_job_key(text));
    const JobResult a = run_job(legacy);
    const JobResult b = run_job(text);
    ASSERT_EQ(a.state, JobState::kCompleted);
    ASSERT_EQ(b.state, JobState::kCompleted);
    EXPECT_EQ(a.completed_steps, b.completed_steps);
    expect_results_equal(a, b);
  }
}

TEST_F(ServeTest, NativeBackendRejectsLennardJonesScenario) {
  JobSpec spec;
  spec.scenario = bundled("lj_binary.toml", 2, 2).canonical_text();
  spec.backend = Backend::kNative;
  SimService service(service_config(1));
  service.start();
  const JobResult result = service.submit(spec).wait();
  EXPECT_EQ(result.state, JobState::kFailed);
  EXPECT_NE(result.error.find("backend native"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("lennard-jones"), std::string::npos)
      << result.error;
}

/// The barostat couples after the observer sees a step. A pair written at
/// the end of that step carries the post-coupling box, so a resume neither
/// skips nor repeats the volume move: with a drain at a barostat step and
/// with interval pairs on the barostat cadence, the resumed NPT run is the
/// uninterrupted one bit for bit, sample count included.
TEST_F(ServeTest, NptResumeAtABarostatStepIsBitIdentical) {
  scenario::ScenarioSpec sc = bundled("nacl_npt.toml", 15, 15);
  ASSERT_EQ(sc.ensemble.barostat_interval, 10);
  JobSpec plain;
  plain.scenario = sc.canonical_text();
  const JobResult reference = run_job(plain);
  ASSERT_EQ(reference.state, JobState::kCompleted);
  ASSERT_EQ(reference.samples.size(), 31u);

  struct Case {
    const char* name;
    int checkpoint_interval;
    int cancel_step;
    bool drain;
    std::uint64_t resume_step;  ///< a barostat step either way
  };
  for (const Case c : {Case{"drain", 7, 20, true, 20},
                       Case{"interval", 10, 13, false, 10}}) {
    SCOPED_TRACE(c.name);
    JobSpec spec = plain;
    spec.checkpoint_interval = c.checkpoint_interval;
    RunOptions options;
    options.checkpoint_dir = path(c.name);
    options.checkpoint_on_cancel = c.drain;
    std::atomic<bool> cancel{false};
    options.cancel = &cancel;
    options.on_sample = [&](const Sample& s) {
      if (s.step == c.cancel_step) cancel.store(true);
    };
    const JobResult first = run_job(spec, options);
    ASSERT_EQ(first.state, JobState::kCancelled);
    EXPECT_EQ(first.completed_steps, c.cancel_step);

    cancel.store(false);
    options.on_sample = {};
    const JobResult resumed = run_job(spec, options);
    ASSERT_EQ(resumed.state, JobState::kCompleted);
    EXPECT_EQ(resumed.resumed_from_step, c.resume_step);
    expect_results_equal(resumed, reference);
  }
}

TEST_F(ServeTest, HostileTenantNameStaysValidJson) {
  JobSpec spec;
  spec.tenant = "evil\"tenant\\name\n";
  ServiceConfig config;
  config.admission.max_queue_depth = 0;  // reject immediately; no run needed
  SimService service(config);
  EXPECT_EQ(service.submit(spec).wait().state, JobState::kRejected);
  const std::string json = obs::Registry::global().json();
  // The raw quote/backslash/newline must never reach the dump unescaped.
  EXPECT_NE(json.find("evil\\\"tenant\\\\name\\n"), std::string::npos);
  EXPECT_EQ(json.find("evil\"tenant"), std::string::npos);
}

// ---------------------------------------------------------------------------
// One job runner for both machines: parallel jobs are scenarios on
// MdmParallelApp, with the serial engine's pairs, resume, streaming and
// cancel path.
// ---------------------------------------------------------------------------

/// Admission charges a job for the particles its scenario builds, not for
/// the legacy cells field it leaves at 1.
TEST_F(ServeTest, AdmissionSizesAJobByItsScenario) {
  JobSpec legacy;  // cells = 1: 8 ions
  JobSpec lj;      // 384 + 128 particles by random placement
  lj.scenario = bundled("lj_binary.toml", 2, 2).canonical_text();
  ServiceConfig config = service_config(1);
  config.admission.max_inflight_bytes =
      AdmissionController::estimate_bytes(legacy);
  SimService service(config);  // not started: an admitted job stays queued

  const JobResult rejected = service.submit(lj).wait();
  EXPECT_EQ(rejected.state, JobState::kRejected);
  EXPECT_NE(rejected.error.find("memory budget"), std::string::npos)
      << rejected.error;
  EXPECT_EQ(service.submit(legacy).state(), JobState::kQueued);
}

JobSpec on_machine(JobSpec spec, int real, int wn) {
  spec.parallel_real = real;
  spec.parallel_wn = wn;
  return spec;
}

TEST_F(ServeTest, ParallelScenarioJobEqualsADirectAppRun) {
  const scenario::ScenarioSpec sc = bundled("kcl_melt.toml", 3, 3);
  JobSpec job;
  job.scenario = sc.canonical_text();
  const JobResult served = run_job(on_machine(job, 2, 2));
  ASSERT_EQ(served.state, JobState::kCompleted);
  EXPECT_EQ(served.completed_steps, 6);

  const ParticleSystem system = scenario::build_system(sc);
  host::ParallelAppConfig config;
  config.real_processes = 2;
  config.wn_processes = 2;
  config.protocol = scenario::build_protocol(sc);
  config.ewald = host::mdm_parameters(double(system.size()), system.box());
  config.tosi_fumi = TosiFumiParameters::kcl();
  const host::ParallelRunResult direct =
      host::MdmParallelApp(config).run(system);
  ASSERT_EQ(served.samples.size(), direct.samples.size());
  for (std::size_t i = 0; i < direct.samples.size(); ++i)
    expect_samples_equal(served.samples[i], direct.samples[i]);
  expect_vecs_equal(served.positions, direct.positions);
  expect_vecs_equal(served.velocities, direct.velocities);
}

TEST_F(ServeTest, ParallelMachineFailsSpecsItCannotRun) {
  SimService service(service_config(1));
  service.start();
  for (const auto& [file, reason] :
       {std::pair{"lj_binary.toml", "lattice"}, std::pair{"nacl_npt.toml",
                                                          "npt"}}) {
    SCOPED_TRACE(file);
    JobSpec job;
    job.scenario = bundled(file, 2, 2).canonical_text();
    const JobResult result = service.submit(on_machine(job, 2, 2)).wait();
    EXPECT_EQ(result.state, JobState::kFailed);
    EXPECT_NE(result.error.find(reason), std::string::npos) << result.error;
    EXPECT_TRUE(result.samples.empty());
  }
}

/// A cancel observed after step 13 stops the ranks there: the result is the
/// bit-exact 14-sample prefix, streamed as it was recorded. The resubmitted
/// job resumes from the step-10 interval pair and returns the complete
/// trajectory.
TEST_F(ServeTest, ParallelJobCancelsWithItsPrefixAndResumesComplete) {
  for (const Backend backend : {Backend::kEmulator, Backend::kNative}) {
    SCOPED_TRACE(to_string(backend));
    JobSpec spec = on_machine(small_spec(), 2, 2);
    spec.nvt_steps = 20;
    spec.nve_steps = 10;
    spec.backend = backend;
    const JobResult reference = run_job(spec);
    ASSERT_EQ(reference.state, JobState::kCompleted);
    ASSERT_EQ(reference.completed_steps, 30);
    ASSERT_EQ(reference.samples.size(), 31u);

    spec.checkpoint_interval = 5;
    RunOptions options;
    options.checkpoint_dir = path(to_string(backend));
    std::atomic<bool> cancel{false};
    options.cancel = &cancel;
    std::vector<Sample> streamed;
    int cancel_step = 13;
    options.on_sample = [&](const Sample& s) {
      streamed.push_back(s);
      if (s.step == cancel_step) cancel.store(true);
    };
    const JobResult first = run_job(spec, options);
    ASSERT_EQ(first.state, JobState::kCancelled);
    EXPECT_EQ(first.completed_steps, 13);
    ASSERT_EQ(first.samples.size(), 14u);
    ASSERT_EQ(streamed.size(), 14u);
    for (std::size_t i = 0; i < first.samples.size(); ++i) {
      expect_samples_equal(first.samples[i], reference.samples[i]);
      expect_samples_equal(streamed[i], reference.samples[i]);
    }

    cancel.store(false);
    cancel_step = -1;
    streamed.clear();
    const JobResult resumed = run_job(spec, options);
    ASSERT_EQ(resumed.state, JobState::kCompleted);
    EXPECT_EQ(resumed.resumed_from_step, 10u);
    EXPECT_EQ(resumed.completed_steps, 30);
    expect_results_equal(resumed, reference);
    ASSERT_EQ(streamed.size(), reference.samples.size());
  }
}

/// Serial and parallel pairs of the same physics carry different manifest
/// keys, so neither resumes the other's directory.
TEST_F(ServeTest, SerialAndParallelPairsNeverResumeEachOther) {
  JobSpec serial = small_spec();
  serial.checkpoint_interval = 2;
  RunOptions options;
  options.checkpoint_dir = path("shared");
  ASSERT_EQ(run_job(serial, options).state, JobState::kCompleted);

  const JobSpec parallel = on_machine(serial, 2, 2);
  EXPECT_NE(canonical_job_key(serial), canonical_job_key(parallel));
  const JobResult result = run_job(parallel, options);
  ASSERT_EQ(result.state, JobState::kCompleted);
  EXPECT_EQ(result.resumed_from_step, 0u);
}

}  // namespace
}  // namespace mdm::serve
