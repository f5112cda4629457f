/// \file mdm_scenario.cpp
/// Run (or validate) declarative scenario files through the scenario engine
/// (src/scenario, DESIGN.md §14). This is the config-driven face of the
/// repo: species, mixing, ensemble (incl. NPT) and analysis cadences all
/// come from a flat TOML-like spec instead of a hand-written driver.
///
///   ./mdm_scenario --spec examples/scenarios/nacl_melt.toml [--out DIR]
///                  [--threads N] [--equilibration N] [--production N]
///                  [--checkpoint-dir DIR --checkpoint-every K [--resume]]
///   ./mdm_scenario --validate FILE|DIR [FILE|DIR ...]
///
/// --validate parses every named spec (directories are scanned for *.toml)
/// and exits nonzero on the first grammar/physics error — the CI spec-
/// validation step runs this over examples/scenarios/. A normal run exits
/// nonzero if any analysis declared in the spec failed to produce its
/// output file.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "scenario/engine.hpp"
#include "scenario/parser.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fs = std::filesystem;

namespace {

/// Expand files/directories into the list of spec files to check.
std::vector<std::string> collect_specs(const std::vector<std::string>& args) {
  std::vector<std::string> specs;
  for (const auto& arg : args) {
    if (fs::is_directory(arg)) {
      std::vector<std::string> found;
      for (const auto& entry : fs::directory_iterator(arg))
        if (entry.is_regular_file() && entry.path().extension() == ".toml")
          found.push_back(entry.path().string());
      std::sort(found.begin(), found.end());
      specs.insert(specs.end(), found.begin(), found.end());
    } else {
      specs.push_back(arg);
    }
  }
  return specs;
}

int validate_specs(const std::vector<std::string>& args) {
  const auto specs = collect_specs(args);
  if (specs.empty()) {
    std::fprintf(stderr, "mdm_scenario --validate: no spec files found\n");
    return 1;
  }
  int failures = 0;
  for (const auto& path : specs) {
    try {
      const auto spec = mdm::scenario::parse_scenario_file(path);
      // Round-trip through the canonical form: the serialized text must
      // itself parse (this is what the fleet cache keys on).
      mdm::scenario::parse_scenario(spec.canonical_text(), path + " (canonical)");
      std::printf("  ok   %s  (scenario '%s', %zu species, %zu analyses)\n",
                  path.c_str(), spec.name.c_str(), spec.species.size(),
                  spec.analyses.size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "  FAIL %s: %s\n", path.c_str(), e.what());
      ++failures;
    }
  }
  std::printf("%zu spec(s), %d failure(s)\n", specs.size(), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

static int cli_main(const mdm::CommandLine& cli) {
  using namespace mdm;

  if (cli.has("validate")) {
    std::vector<std::string> args = cli.positional();
    if (const auto v = cli.value("validate"); v && !v->empty())
      args.insert(args.begin(), *v);
    return validate_specs(args);
  }

  std::string spec_path = cli.get_string("spec", "");
  if (spec_path.empty() && !cli.positional().empty())
    spec_path = cli.positional().front();
  if (spec_path.empty()) {
    std::fprintf(stderr,
                 "usage: %s --spec FILE [--out DIR] [--threads N]\n"
                 "       %s --validate FILE|DIR [FILE|DIR ...]\n",
                 cli.program().c_str(), cli.program().c_str());
    return 2;
  }

  if (const long threads = cli.get_int("threads", 0); threads >= 1)
    ThreadPool::set_global_threads(static_cast<unsigned>(threads));

  // Schedule overrides for quick smoke runs of a production spec.
  const long equilibration = cli.get_int("equilibration", -1);
  const long production = cli.get_int("production", -1);
  scenario::ScenarioOptions options;
  options.output_dir = cli.get_string("out", "");
  options.checkpoint_dir = cli.get_string("checkpoint-dir", "");
  options.checkpoint_interval =
      static_cast<int>(cli.get_int("checkpoint-every", 0));
  options.resume = cli.get_bool("resume");

  try {
    scenario::ScenarioSpec spec = scenario::parse_scenario_file(spec_path);
    if (equilibration >= 0)
      spec.run.equilibration = static_cast<int>(equilibration);
    if (production >= 0) spec.run.production = static_cast<int>(production);

    std::printf("scenario '%s' (%s): %zu species, %s/%s ensemble, "
                "%d + %d steps\n",
                spec.name.c_str(), spec_path.c_str(), spec.species.size(),
                to_string(spec.ensemble.kind).c_str(),
                to_string(spec.forcefield.kind).c_str(),
                spec.run.equilibration, spec.run.production);

    Timer timer;
    const scenario::ScenarioResult result =
        scenario::run_scenario(spec, options);
    const double elapsed = timer.seconds();

    if (!result.samples.empty()) {
      const auto& last = result.samples.back();
      std::printf("final: step %d, T=%.1f K, E=%.4f eV, P=%.4f GPa, "
                  "L=%.3f A\n",
                  last.step, last.temperature_K, last.total_eV,
                  last.pressure_GPa, result.final_box_A);
    }
    if (spec.ensemble.kind == scenario::EnsembleKind::kNpt)
      std::printf("NPT: <P> = %.4f GPa (target %.4f), <L> = %.3f A\n",
                  result.mean_pressure_GPa, spec.ensemble.pressure_GPa,
                  result.mean_box_A);
    if (spec.ensemble.kind == scenario::EnsembleKind::kNve)
      std::printf("NVE energy drift: %.2e relative\n",
                  result.nve_energy_drift);
    if (!result.analysis_report.empty())
      std::printf("%s", result.analysis_report.c_str());
    for (const auto& path : result.outputs)
      std::printf("wrote %s\n", path.c_str());
    std::printf("wall clock: %.2f s\n", elapsed);

    // A spec that declares analyses promises their files: treat a missing
    // output as a failed run (CI smoke asserts on this exit code). An
    // analysis whose cadence never fires legitimately writes nothing —
    // count the production samples this process analysed (a resumed run
    // returns the whole trajectory, but its analyses only see the tail
    // past the resume point).
    const int first_recorded =
        std::max(spec.run.equilibration,
                 static_cast<int>(result.resumed_from_step));
    int production_samples = 0;
    for (const auto& s : result.samples)
      if (s.step > first_recorded) ++production_samples;
    int missing = 0;
    if (!options.output_dir.empty() && !result.cancelled) {
      for (const auto& a : spec.analyses) {
        if (production_samples / a.nstep < 1) continue;
        const fs::path expected = fs::path(options.output_dir) / a.file;
        if (!fs::exists(expected)) {
          std::fprintf(stderr, "missing analysis output: %s\n",
                       expected.string().c_str());
          ++missing;
        }
      }
    }
    return missing == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mdm_scenario: %s\n", e.what());
    return 1;
  }
}

int main(int argc, char** argv) { return mdm::run_cli(argc, argv, cli_main); }
