#pragma once

/// \file admission.hpp
/// Admission control for the simulation service (DESIGN.md §9). A shared
/// facility must fail loudly instead of growing without bound: every submit
/// is checked against a queue-depth cap and an in-flight memory budget
/// (queued + running jobs), and over-budget submissions are rejected with an
/// explicit Overloaded result instead of queueing forever.
///
/// The memory model is a deliberate over-estimate of a job's working set
/// (particle arrays, integrator copies, cell list, per-chunk force slots and
/// phase tables, k-vector table): admission is about protecting the box, not
/// about accounting bytes precisely.
///
/// Like JobQueue, this class is not thread-safe: SimService serializes all
/// calls under its mutex.

#include <cstddef>
#include <string>

#include "serve/job.hpp"

namespace mdm::serve {

struct AdmissionConfig {
  std::size_t max_queue_depth = 64;
  /// Budget for the estimated bytes of all queued + running jobs.
  std::size_t max_inflight_bytes = std::size_t(256) << 20;  // 256 MiB
};

class AdmissionController {
 public:
  enum class Decision {
    kAdmit = 0,
    kQueueFull,      ///< Overloaded: queue depth cap reached
    kMemoryBudget,   ///< Overloaded: in-flight memory budget exceeded
  };

  explicit AdmissionController(AdmissionConfig config) : config_(config) {}

  const AdmissionConfig& config() const { return config_; }

  /// Working-set estimate for a spec (see file comment) by the particle
  /// count of job_scenario(spec), or of the legacy `cells` when the text
  /// does not parse. Monotone in the particle count; deterministic so tests
  /// can reason about budgets. Parses, so call it once per submit.
  static std::size_t estimate_bytes(const JobSpec& spec);

  /// Decide on a submit of `bytes` given the queue depth. Does NOT reserve.
  Decision decide(std::size_t bytes, std::size_t queue_depth) const;

  /// Reserve / release the estimated bytes of an admitted job. Release is
  /// called once the job reaches a terminal state (completed, failed,
  /// cancelled or shed).
  void acquire(std::size_t bytes);
  void release(std::size_t bytes);

  std::size_t inflight_bytes() const { return inflight_bytes_; }

  static std::string reason(Decision decision);

 private:
  AdmissionConfig config_;
  std::size_t inflight_bytes_ = 0;
};

}  // namespace mdm::serve
