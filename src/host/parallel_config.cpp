#include "host/parallel_app.hpp"

#include <stdexcept>
#include <string>

#include "host/distributed_pme.hpp"

// The configuration side of the parallel app: solver names, PME parameter
// resolution and the checks MdmParallelApp runs at construction, so a bad
// decomposition fails before any rank thread starts.

namespace mdm::host {

PmeParameters resolved_pme(const ParallelAppConfig& config) {
  PmeParameters pme = config.pme;
  if (pme.alpha <= 0.0) pme.alpha = config.ewald.alpha;
  if (pme.r_cut <= 0.0) pme.r_cut = config.ewald.r_cut;
  return pme;
}

const char* to_string(KspaceSolver solver) {
  return solver == KspaceSolver::kPme ? "pme" : "structure-factor";
}

KspaceSolver kspace_solver_from_string(const std::string& name) {
  if (name == "sf" || name == "structure-factor" || name == "ewald")
    return KspaceSolver::kStructureFactor;
  if (name == "pme") return KspaceSolver::kPme;
  throw std::invalid_argument(
      "kspace_solver_from_string: unknown solver '" + name +
      "' (expected sf, structure-factor, ewald or pme)");
}

MdmParallelApp::MdmParallelApp(ParallelAppConfig config) : config_(config) {
  if (config_.real_processes < 1)
    throw std::invalid_argument(
        "MdmParallelApp: real_processes must be >= 1 (got " +
        std::to_string(config_.real_processes) + ")");
  if (config_.wn_processes < 1)
    throw std::invalid_argument(
        "MdmParallelApp: wn_processes must be >= 1 (got " +
        std::to_string(config_.wn_processes) + ")");
  if (config_.domain_nx != 0 || config_.domain_ny != 0 ||
      config_.domain_nz != 0) {
    const std::string grid_str = std::to_string(config_.domain_nx) + "x" +
                                 std::to_string(config_.domain_ny) + "x" +
                                 std::to_string(config_.domain_nz);
    if (config_.domain_nx < 1 || config_.domain_ny < 1 ||
        config_.domain_nz < 1)
      throw std::invalid_argument(
          "MdmParallelApp: explicit domain grid must be >= 1 in every axis "
          "(got " + grid_str + ")");
    const int domains =
        config_.domain_nx * config_.domain_ny * config_.domain_nz;
    if (domains != config_.real_processes)
      throw std::invalid_argument(
          "MdmParallelApp: domain grid " + grid_str + " = " +
          std::to_string(domains) + " domains does not match "
          "real_processes = " + std::to_string(config_.real_processes));
  }
  if (config_.kspace_solver == KspaceSolver::kPme) {
    // Box-independent mesh checks fail here, at configuration time; the
    // box-dependent ones (r_cut <= L/2) rerun in run() via validated_pme.
    const PmeParameters pme = resolved_pme(config_);
    if (!is_power_of_two(static_cast<std::size_t>(pme.grid)))
      throw std::invalid_argument(
          "MdmParallelApp: PME grid must be a power of two (got " +
          std::to_string(pme.grid) + ")");
    if (pme.order < 3 || pme.order > 10)
      throw std::invalid_argument(
          "MdmParallelApp: PME order must be in [3, 10] (got " +
          std::to_string(pme.order) + ")");
    if (pme.grid < 2 * pme.order)
      throw std::invalid_argument(
          "MdmParallelApp: PME grid " + std::to_string(pme.grid) +
          " too small for order " + std::to_string(pme.order));
    PmeSlabLayout::create(pme.grid, pme.order, config_.wn_processes);
  }
}

}  // namespace mdm::host
