#include "serve/admission.hpp"

#include "scenario/parser.hpp"

namespace mdm::serve {

std::size_t AdmissionController::estimate_bytes(const JobSpec& spec) {
  long long n = spec.particle_count();
  try {
    const scenario::ScenarioSpec sc = job_scenario(spec);
    if (sc.system.kind == scenario::SystemKind::kLattice) {
      n = nacl_ion_count(sc.system.cells);
    } else {
      n = 0;
      for (const auto& s : sc.species) n += s.count;
    }
  } catch (const scenario::ScenarioError&) {
    // Keep the legacy size: the runner fails this job with the parse error.
  }
  // Per particle: positions/velocities/forces + integrator and checkpoint
  // copies + cell-list slots + per-chunk scratch — call it 1 KiB, a
  // deliberate over-estimate. Plus a fixed 4 MiB per job for the k-vector
  // table, phase scratch and sample storage.
  return static_cast<std::size_t>(n) * 1024 + (std::size_t(4) << 20);
}

AdmissionController::Decision AdmissionController::decide(
    std::size_t bytes, std::size_t queue_depth) const {
  if (queue_depth >= config_.max_queue_depth) return Decision::kQueueFull;
  if (inflight_bytes_ + bytes > config_.max_inflight_bytes)
    return Decision::kMemoryBudget;
  return Decision::kAdmit;
}

void AdmissionController::acquire(std::size_t bytes) {
  inflight_bytes_ += bytes;
}

void AdmissionController::release(std::size_t bytes) {
  inflight_bytes_ = inflight_bytes_ >= bytes ? inflight_bytes_ - bytes : 0;
}

std::string AdmissionController::reason(Decision decision) {
  switch (decision) {
    case Decision::kAdmit: return "admitted";
    case Decision::kQueueFull: return "Overloaded: queue depth cap reached";
    case Decision::kMemoryBudget:
      return "Overloaded: in-flight memory budget exceeded";
  }
  return "unknown";
}

}  // namespace mdm::serve
