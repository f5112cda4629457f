/// \file madelung.cpp
/// Accuracy demonstration: the Ewald solver recovers the Madelung constant
/// of rock salt (M = 1.747565) from a finite periodic supercell, and the
/// result is independent of the splitting parameter alpha - the property
/// that lets the MDM trade real-space against wavenumber-space work freely
/// (sec. 5's alpha = 85 vs 30.1 discussion).
///
///   ./madelung [--cells 2] [--s1 3.6] [--s2 3.8]

#include <cmath>
#include <cstdio>

#include "core/lattice.hpp"
#include "ewald/direct_sum.hpp"
#include "ewald/ewald.hpp"
#include "ewald/parameters.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

static int cli_main(const mdm::CommandLine& cli) {
  using namespace mdm;
  const int cells = static_cast<int>(cli.get_int("cells", 2));
  EwaldAccuracy accuracy;
  accuracy.s1 = cli.get_double("s1", 3.6);
  accuracy.s2 = cli.get_double("s2", 3.8);

  const auto crystal = make_nacl_crystal(cells);
  const double d = kPaperLatticeConstant / 2.0;  // nearest-neighbour distance
  std::printf("Perfect NaCl crystal: %zu ions, d_nn = %.4f A\n",
              crystal.size(), d);
  std::printf("Reference Madelung constant: %.9f\n\n", kMadelungNaCl);

  AsciiTable table("Madelung constant from Ewald summation vs alpha");
  table.set_header({"alpha", "r_cut/A", "Lk_cut", "k-vectors", "M (computed)",
                    "relative error"});
  for (double alpha : {6.0, 8.0, 10.0, 12.0}) {
    auto params =
        clamp_to_box(parameters_from_alpha(alpha, crystal.box(), accuracy),
                     crystal.box());
    EwaldCoulomb ewald(params, crystal.box());
    std::vector<Vec3> forces(crystal.size());
    const double energy = evaluate_forces(ewald, crystal, forces).potential;
    // E = -M k_e / d per ion pair.
    const double m_computed =
        -energy * d / (units::kCoulomb * (crystal.size() / 2.0));
    table.add_row({format_fixed(alpha, 1), format_fixed(params.r_cut, 2),
                   format_fixed(params.lk_cut, 2),
                   format_int(static_cast<long long>(ewald.kvectors().size())),
                   format_fixed(m_computed, 9),
                   format_sci(std::fabs(m_computed - kMadelungNaCl) /
                                  kMadelungNaCl,
                              2)});
  }
  std::printf("%s\n", table.str().c_str());

  std::printf("Forces on a perfect lattice vanish by symmetry: ");
  {
    auto params = clamp_to_box(
        parameters_from_alpha(8.0, crystal.box(), accuracy), crystal.box());
    EwaldCoulomb ewald(params, crystal.box());
    std::vector<Vec3> forces(crystal.size());
    evaluate_forces(ewald, crystal, forces);
    double worst = 0.0;
    for (const auto& f : forces) worst = std::max(worst, norm(f));
    std::printf("max |F| = %.2e eV/A\n", worst);
  }
  return 0;
}

int main(int argc, char** argv) { return mdm::run_cli(argc, argv, cli_main); }
