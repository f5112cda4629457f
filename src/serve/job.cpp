#include "serve/job.hpp"

#include <cinttypes>
#include <cstdio>

#include "core/manifest.hpp"
#include "obs/trace.hpp"
#include "scenario/builder.hpp"
#include "scenario/parser.hpp"

namespace mdm::serve {

scenario::ScenarioSpec job_scenario(const JobSpec& spec) {
  if (!spec.scenario.empty())
    return scenario::parse_scenario(spec.scenario, "job scenario");
  scenario::ScenarioSpec sc = scenario::nacl_melt_scenario(
      spec.cells, spec.total_steps(), spec.temperature_K, spec.seed);
  sc.run.dt_fs = spec.dt_fs;
  sc.run.equilibration = spec.nvt_steps;
  sc.run.production = spec.nve_steps;
  return sc;
}

scenario::Machine job_machine(const JobSpec& spec) {
  return {spec.backend,  spec.parallel_real,   spec.parallel_wn,
          spec.solver,   spec.accuracy_target, spec.pme_grid,
          spec.pme_order};
}

std::string canonical_job_key(const JobSpec& spec) {
  // The workload's canonical scenario text (fixed section/key order, %.17g
  // doubles), so comment/whitespace/ordering differences canonicalise away
  // and a legacy job equals the same physics written as scenario text. An
  // unparsable text falls back to the raw string, which still separates
  // distinct inputs. Tenant / class / deadline / checkpoint and analysis
  // placement are excluded: they change where and when a job runs, never
  // what it computes.
  std::string text;
  try {
    text = job_scenario(spec).canonical_text();
  } catch (const scenario::ScenarioError&) {
    text = spec.scenario;
  }
  return scenario::run_key(text, job_machine(spec));
}

std::uint64_t canonical_job_hash(const JobSpec& spec) {
  return job_key_hash(canonical_job_key(spec));
}

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kCompleted: return "completed";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kRejected: return "rejected";
    case JobState::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "unknown";
}

const char* to_string(JobClass job_class) {
  switch (job_class) {
    case JobClass::kInteractive: return "interactive";
    case JobClass::kBatch: return "batch";
    case JobClass::kBestEffort: return "best-effort";
  }
  return "unknown";
}

bool is_terminal(JobState state) {
  return state != JobState::kQueued && state != JobState::kRunning;
}

Job::Job(std::uint64_t id, JobSpec spec)
    : id_(id),
      spec_(std::move(spec)),
      trace_ctx_(obs::TraceContext::mint()),
      submit_trace_ns_(obs::Trace::now_ns()),
      submit_tp_(Clock::now()),
      deadline_tp_(spec_.deadline_ms > 0.0
                       ? submit_tp_ + std::chrono::duration_cast<
                                          Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 spec_.deadline_ms))
                       : Clock::time_point::max()) {}

JobState Job::state() const {
  std::lock_guard lock(mutex_);
  return state_;
}

bool Job::done() const {
  std::lock_guard lock(mutex_);
  return done_;
}

JobResult Job::wait() const {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] { return done_; });
  return result_;
}

JobResult Job::wait_for(double timeout_ms) const {
  std::unique_lock lock(mutex_);
  const auto timeout =
      std::chrono::duration<double, std::milli>(timeout_ms);
  if (cv_.wait_for(lock, timeout, [&] { return done_; })) return result_;
  // Name who the caller is stuck on, vmpi who-waits-on-whom style.
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", timeout_ms);
  throw JobWaitTimeout("wait_for timed out after " + std::string(buf) +
                       " ms waiting on " + describe_locked());
}

std::string Job::describe() const {
  std::lock_guard lock(mutex_);
  return describe_locked();
}

std::string Job::describe_locked() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "job %" PRIu64 " (tenant '%s', class %s, %s)", id_,
                spec_.tenant.c_str(), to_string(spec_.job_class),
                to_string(state_));
  return buf;
}

void Job::push_stream_sample(const Sample& sample) {
  std::lock_guard lock(mutex_);
  stream_.push_back(sample);
}

void Job::push_stream_samples(const std::vector<Sample>& samples) {
  std::lock_guard lock(mutex_);
  stream_.insert(stream_.end(), samples.begin(), samples.end());
}

std::size_t Job::stream_size() const {
  std::lock_guard lock(mutex_);
  return stream_.size();
}

std::vector<Sample> Job::stream_since(std::size_t cursor) const {
  std::lock_guard lock(mutex_);
  if (cursor >= stream_.size()) return {};
  return std::vector<Sample>(stream_.begin() + static_cast<long>(cursor),
                             stream_.end());
}

JobResult Job::snapshot() const {
  std::lock_guard lock(mutex_);
  if (done_) return result_;
  JobResult r;
  r.state = state_;
  return r;
}

void Job::mark_running() {
  std::lock_guard lock(mutex_);
  if (!done_) state_ = JobState::kRunning;
}

bool Job::finalize(JobResult result) {
  {
    std::lock_guard lock(mutex_);
    if (done_) return false;  // exactly-once: a job can never complete twice
    state_ = result.state;
    result_ = std::move(result);
    done_ = true;
  }
  cv_.notify_all();
  return true;
}

}  // namespace mdm::serve
