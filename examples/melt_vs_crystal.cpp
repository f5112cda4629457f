/// \file melt_vs_crystal.cpp
/// The physics the MDM was built for (sec. 1): distinguishing solid and
/// liquid NaCl and following the transition - the authors' previous work
/// could only reach 13,824 particles and "obtained small size of
/// polycrystals", which is why they scaled to millions. This example runs
/// the structural/dynamic diagnostics at laptop scale: a cold crystal
/// (300 K) and a hot melt (1300 K), compared through the radial
/// distribution function and the mean-squared displacement.
///
///   ./melt_vs_crystal [--cells 3] [--steps 200]

#include <cmath>
#include <cstdio>
#include <memory>

#include "core/lattice.hpp"
#include "core/rdf.hpp"
#include "core/simulation.hpp"
#include "scenario/builder.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace mdm;

struct Diagnostics {
  double first_peak_r = 0.0;
  double first_peak_g = 0.0;
  double first_min_g = 1e300;
  double msd_A2 = 0.0;
  double diffusion = 0.0;  ///< A^2/fs
  double mean_T = 0.0;
};

Diagnostics run_phase(int cells, double temperature, int steps,
                      std::uint64_t seed) {
  // Same scenario helper as examples/nacl_melt.cpp and the bundled
  // nacl_melt.toml: rock-salt lattice, Ewald + Tosi-Fumi, the paper's
  // 2/3 NVT + 1/3 NVE protocol shape.
  const scenario::ScenarioSpec spec =
      scenario::nacl_melt_scenario(cells, steps, temperature, seed);
  auto system = scenario::build_system(spec);
  auto field = scenario::build_force_field(spec, system);
  const SimulationConfig protocol = scenario::build_protocol(spec);
  Simulation sim(system, *field, protocol);

  RadialDistribution rdf(0.45 * system.box(), 90, 2);
  std::unique_ptr<MeanSquaredDisplacement> msd;
  int sampled = 0;
  double t_sum = 0.0;
  sim.run([&](const Sample& s) {
    if (s.step < protocol.nvt_steps) return;
    if (!msd) msd = std::make_unique<MeanSquaredDisplacement>(system);
    if (s.step % 5 == 0) {
      rdf.accumulate(system);
      ++sampled;
    }
    msd->update(system);
    t_sum += s.temperature_K;
  });

  Diagnostics d;
  d.mean_T = t_sum / double(protocol.nve_steps + 1);
  d.msd_A2 = msd->value();
  d.diffusion = msd->diffusion(protocol.nve_steps * protocol.dt_fs);
  const auto g = rdf.partial(0, 1);  // Na-Cl
  bool past_peak = false;
  for (int bin = 0; bin < rdf.bins(); ++bin) {
    if (!past_peak && g[bin] > d.first_peak_g) {
      d.first_peak_g = g[bin];
      d.first_peak_r = rdf.r(bin);
    }
    if (g[bin] < 0.6 * d.first_peak_g && rdf.r(bin) > d.first_peak_r)
      past_peak = true;
    if (past_peak && rdf.r(bin) < 1.6 * d.first_peak_r)
      d.first_min_g = std::min(d.first_min_g, g[bin]);
  }
  return d;
}

}  // namespace

static int cli_main(const mdm::CommandLine& cli) {
  const int cells = static_cast<int>(cli.get_int("cells", 3));
  const int steps = static_cast<int>(cli.get_int("steps", 200));

  std::printf("Solid vs liquid NaCl diagnostics (N = %lld, %d steps each)\n\n",
              nacl_ion_count(cells), steps);

  const auto solid = run_phase(cells, 300.0, steps, 11);
  const auto liquid = run_phase(cells, 1300.0, steps, 12);

  AsciiTable table("Na-Cl structure and dynamics");
  table.set_header({"observable", "crystal (300 K)", "melt (1300 K)"});
  table.add_row({"<T> over NVE tail / K", format_fixed(solid.mean_T, 0),
                 format_fixed(liquid.mean_T, 0)});
  table.add_row({"g_NaCl first peak position / A",
                 format_fixed(solid.first_peak_r, 2),
                 format_fixed(liquid.first_peak_r, 2)});
  table.add_row({"g_NaCl first peak height",
                 format_fixed(solid.first_peak_g, 1),
                 format_fixed(liquid.first_peak_g, 1)});
  table.add_row({"g_NaCl first minimum", format_fixed(solid.first_min_g, 2),
                 format_fixed(liquid.first_min_g, 2)});
  table.add_row({"MSD over NVE tail / A^2", format_fixed(solid.msd_A2, 3),
                 format_fixed(liquid.msd_A2, 3)});
  table.add_row({"diffusion estimate / A^2 fs^-1",
                 format_sci(solid.diffusion, 2),
                 format_sci(liquid.diffusion, 2)});
  std::printf("%s\n", table.str().c_str());

  std::printf("Signatures: the melt's first peak is lower and broader, its "
              "first minimum fills in, and its ions diffuse (MSD grows "
              "linearly) while the crystal's stay caged.\n");
  std::printf("Following actual solidification fronts needs the million-"
              "particle runs this machine was built for (secs. 1, 6.2).\n");
  return 0;
}

int main(int argc, char** argv) { return mdm::run_cli(argc, argv, cli_main); }
