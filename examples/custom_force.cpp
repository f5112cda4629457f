/// \file custom_force.cpp
/// Sec. 6.4: "MDM can be used for other applications, such as cosmological
/// simulation ...". The MDGRAPE-2 pipeline computes any central force
/// f = b g(a r^2) r_vec by reprogramming the function-evaluator RAM
/// (sec. 3.5.4); this example loads a Plummer-softened gravity table,
/// integrates a small self-gravitating cluster on the simulated hardware
/// and verifies the pipeline forces against a direct double-precision sum.
///
///   ./custom_force [--particles 64] [--steps 100] [--softening 0.05]

#include <cmath>
#include <cstdio>
#include <vector>

#include "mdgrape2/system.hpp"
#include "util/cli.hpp"
#include "util/random.hpp"
#include "util/units.hpp"
#include "util/statistics.hpp"

static int cli_main(const mdm::CommandLine& cli) {
  using namespace mdm;
  const std::size_t n = static_cast<std::size_t>(cli.get_int("particles", 64));
  const int steps = static_cast<int>(cli.get_int("steps", 100));
  const double eps = cli.get_double("softening", 0.05);

  // Dimensionless units: G = m = 1, box large enough that periodic images
  // are irrelevant for the compact cluster.
  const double box = 40.0;
  const double r_cut = box / 3.5;

  // Plummer-softened gravity as a g-table: f = -(r^2 + eps^2)^(-3/2) r_vec,
  // i.e. g(x) = -(x + eps^2)^(-3/2) with a = 1, b = G m_i m_j = 1.
  mdgrape2::ForcePass gravity;
  mdgrape2::TableConfig cfg;
  cfg.x_min = 1e-4;
  cfg.x_max = r_cut * r_cut;
  gravity.table = mdgrape2::SegmentedTable::fit(
      [eps](double x) { return -1.0 / std::pow(x + eps * eps, 1.5); }, cfg);
  gravity.coefficients.species_count = 1;
  gravity.coefficients.a[0][0] = 1.0;
  gravity.coefficients.b[0][0] = 1.0;

  // A cold Plummer-ish sphere of unit-mass particles at the box centre.
  ParticleSystem cluster(box);
  const int star = cluster.add_species({"star", 1.0 / units::kAccelUnit, 0.0});
  Random rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    Vec3 r;
    do {
      r = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    } while (norm2(r) > 1.0);
    cluster.add_particle(star, Vec3{box / 2, box / 2, box / 2} + 2.0 * r);
  }

  mdgrape2::Mdgrape2System machine({.clusters = 1, .boards_per_cluster = 2});

  // Verify the pipeline against the direct softened sum.
  machine.load_particles(cluster, r_cut);
  std::vector<Vec3> hw(n, Vec3{});
  machine.run_force_pass(gravity, hw);
  RunningStats err;
  const auto pos = cluster.positions();
  for (std::size_t i = 0; i < n; ++i) {
    Vec3 ref;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const Vec3 d = minimum_image(pos[i], pos[j], box);
      const double r2 = norm2(d);
      if (r2 >= r_cut * r_cut) continue;
      ref += -1.0 / std::pow(r2 + eps * eps, 1.5) * d;
    }
    err.add(relative_error(norm(hw[i]), norm(ref), 1e-12));
  }
  std::printf("Plummer gravity on MDGRAPE-2: %zu stars, softening %.3f\n", n,
              eps);
  std::printf("pipeline vs direct sum: mean rel. err %.2e, max %.2e\n",
              err.mean(), err.max());

  // Leapfrog collapse on the hardware (velocities in box units per step).
  std::vector<Vec3> vel(n, Vec3{});
  const double dt = 0.02;
  auto radius = [&] {
    Vec3 com;
    for (std::size_t i = 0; i < n; ++i) com += cluster.positions()[i];
    com /= double(n);
    double r2 = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      r2 += norm2(cluster.positions()[i] - com);
    return std::sqrt(r2 / double(n));
  };
  std::printf("\n%6s %10s\n", "step", "rms radius");
  std::printf("%6d %10.4f\n", 0, radius());
  for (int s = 1; s <= steps; ++s) {
    machine.load_particles(cluster, r_cut);
    std::vector<Vec3> forces(n, Vec3{});
    machine.run_force_pass(gravity, forces);
    auto positions = cluster.positions();
    for (std::size_t i = 0; i < n; ++i) {
      vel[i] += dt * forces[i];  // unit mass in these units
      positions[i] += dt * vel[i];
    }
    cluster.wrap_positions();
    if (s % (steps / 5 > 0 ? steps / 5 : 1) == 0)
      std::printf("%6d %10.4f\n", s, radius());
  }
  std::printf("\nThe cold sphere collapses under self-gravity - the same "
              "pipelines that did molten salt now do an N-body problem.\n");
  return 0;
}

int main(int argc, char** argv) { return mdm::run_cli(argc, argv, cli_main); }
