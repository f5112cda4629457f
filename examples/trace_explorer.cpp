/// \file trace_explorer.cpp
/// Observability demo: run a short NaCl melt twice — once on the threaded
/// software Ewald path, once on the simulated MDM machine — with tracing
/// enabled, then emit `trace.json` (chrome://tracing / Perfetto) and
/// `metrics.json` (counters/gauges/histograms from every instrumented
/// subsystem) and print the live Table-1-style per-step breakdown.
///
///   ./trace_explorer [--cells 6] [--steps 12] [--mdm-cells 3]
///                    [--mdm-steps 2] [--trace trace.json]
///                    [--metrics metrics.json] [--log-level info]
///
/// Merge mode combines per-rank chrome-trace exports into one timeline
/// (rank = position on the command line) and lists the trace ids found:
///
///   ./trace_explorer --merge merged.json rank0.json rank1.json ...

#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "core/lattice.hpp"
#include "core/simulation.hpp"
#include "core/tosi_fumi.hpp"
#include "ewald/ewald.hpp"
#include "ewald/parameters.hpp"
#include "host/mdm_force_field.hpp"
#include "obs/logger.hpp"
#include "obs/metrics.hpp"
#include "obs/step_breakdown.hpp"
#include "obs/trace.hpp"
#include "obs/trace_merge.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

void run_software_melt(int cells, int steps, double temperature) {
  using namespace mdm;
  auto system = make_nacl_crystal(cells);
  assign_maxwell_velocities(system, temperature, /*seed=*/1);
  std::printf("software melt: N=%zu ions (%zu ion pairs), L=%.2f A\n",
              system.size(), system.size() / 2, system.box());

  const auto params = software_parameters(double(system.size()), system.box());
  auto ewald = std::make_unique<EwaldCoulomb>(params, system.box());
  ewald->set_thread_pool(&ThreadPool::global());
  auto field = std::make_unique<CompositeForceField>();
  field->add(std::move(ewald));
  field->add(std::make_unique<TosiFumiShortRange>(
      TosiFumiParameters::nacl(), params.r_cut, /*shift_energy=*/true));

  SimulationConfig protocol;
  protocol.temperature_K = temperature;
  protocol.nvt_steps = steps;
  protocol.nve_steps = 0;
  Simulation sim(system, *field, protocol);
  sim.run({});
  MDM_LOG_INFO("software melt finished: T=%.1f K",
               sim.samples().back().temperature_K);
}

void run_mdm_melt(int cells, int steps, double temperature) {
  using namespace mdm;
  auto system = make_nacl_crystal(cells);
  assign_maxwell_velocities(system, temperature, /*seed=*/2);
  std::printf("MDM cross-check: N=%zu ions on the simulated machine\n",
              system.size());

  host::MdmForceFieldConfig config;
  config.ewald = host::mdm_parameters(double(system.size()), system.box());
  config.mdgrape = {.clusters = 2, .boards_per_cluster = 2};
  config.wine = {.clusters = 1, .boards_per_cluster = 2, .chips_per_board = 4};
  config.potential_interval = 10;
  host::MdmForceField field(config, system.box());

  SimulationConfig protocol;
  protocol.temperature_K = temperature;
  protocol.nvt_steps = steps;
  protocol.nve_steps = 0;
  Simulation sim(system, field, protocol);
  sim.run({});
  MDM_LOG_INFO("MDM melt finished: T=%.1f K",
               sim.samples().back().temperature_K);
}

/// `--merge out.json rank0.json rank1.json ...`: combine per-rank exports
/// into one timeline and list the trace ids it contains (a healthy served
/// job is exactly one id across every rank — DESIGN.md §10).
int run_merge(const mdm::CommandLine& cli) {
  using namespace mdm;
  const auto out = cli.get_string("merge", "merged.json");
  if (cli.positional().empty()) {
    std::fprintf(stderr,
                 "usage: %s --merge out.json rank0.json [rank1.json ...]\n",
                 cli.program().c_str());
    return 2;
  }
  std::vector<obs::TraceMergeInput> inputs;
  for (std::size_t r = 0; r < cli.positional().size(); ++r)
    inputs.push_back({cli.positional()[r], static_cast<int>(r)});
  try {
    if (!obs::merge_chrome_trace_files(inputs, out)) {
      std::fprintf(stderr, "failed to write %s\n", out.c_str());
      return 1;
    }
    const auto ids = obs::distinct_trace_ids(obs::parse_json_file(out));
    std::printf("merged %zu rank file(s) into %s (%zu trace id(s)",
                inputs.size(), out.c_str(), ids.size());
    for (const auto& id : ids) std::printf(" %s", id.c_str());
    std::printf(")\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "merge failed: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

static int cli_main(const mdm::CommandLine& cli) {
  using namespace mdm;
  if (cli.has("merge")) return run_merge(cli);
  apply_observability_cli(cli);
  const int cells = static_cast<int>(cli.get_int("cells", 6));
  const int steps = static_cast<int>(cli.get_int("steps", 12));
  const int mdm_cells = static_cast<int>(cli.get_int("mdm-cells", 3));
  const int mdm_steps = static_cast<int>(cli.get_int("mdm-steps", 2));
  const double temperature = cli.get_double("temperature", 1200.0);
  const auto trace_path = cli.get_string("trace", "trace.json");
  const auto metrics_path = cli.get_string("metrics", "metrics.json");

  // Record spans for the whole run regardless of environment.
  obs::Trace::set_enabled(true);

  run_software_melt(cells, steps, temperature);
  if (mdm_steps > 0) run_mdm_melt(mdm_cells, mdm_steps, temperature);

  const auto breakdown = obs::StepBreakdown::collect();
  std::printf("\n%s", breakdown.format().c_str());
  std::printf("  phase coverage of wall time: %.1f%%\n",
              100.0 * breakdown.coverage());

  auto& reg = obs::Registry::global();
  std::printf("\nsubsystem counters:\n");
  const char* keys[] = {
      "cell_list.rebuilds",    "ewald.real_pairs",   "ewald.flops.dft",
      "mdgrape2.pair_ops",     "mdgrape2.table_lookups",
      "wine2.dft_ops",         "wine2.saturations",  "thread_pool.tasks",
  };
  for (const char* key : keys)
    std::printf("  %-24s %llu\n", key,
                static_cast<unsigned long long>(reg.counter_value(key)));

  if (!obs::Trace::write_chrome_json_file(trace_path))
    std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
  else
    std::printf("\nwrote %s (%zu spans; open in chrome://tracing or "
                "https://ui.perfetto.dev)\n",
                trace_path.c_str(), obs::Trace::event_count());
  if (!reg.write_json_file(metrics_path))
    std::fprintf(stderr, "failed to write %s\n", metrics_path.c_str());
  else
    std::printf("wrote %s\n", metrics_path.c_str());

  // Exit non-zero if the decomposition failed to explain the wall time —
  // this is the acceptance gate for the observability layer.
  const bool ok = breakdown.steps > 0 && breakdown.coverage() > 0.9 &&
                  breakdown.coverage() < 1.1;
  if (!ok)
    std::fprintf(stderr, "breakdown coverage %.3f outside [0.9, 1.1]\n",
                 breakdown.coverage());
  return ok ? 0 : 1;
}

int main(int argc, char** argv) { return mdm::run_cli(argc, argv, cli_main); }
