#include "mdgrape2/gtables.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/units.hpp"

namespace mdm::mdgrape2 {
namespace {

const double kSqrtPi = std::sqrt(std::numbers::pi);

void require_species(int count) {
  if (count < 1 || count > kMaxAtomTypes)
    throw std::invalid_argument(
        "MDGRAPE-2 supports at most 32 atom types (sec. 3.5.3)");
}

}  // namespace

double g_coulomb_real_force(double x) {
  return 2.0 * std::exp(-x) / (kSqrtPi * x) +
         std::erfc(std::sqrt(x)) / (x * std::sqrt(x));
}

double g_coulomb_real_potential(double x) {
  return std::erfc(std::sqrt(x)) / std::sqrt(x);
}

double g_lennard_jones_force(double x) {
  const double x2 = x * x;
  const double x4 = x2 * x2;
  return 2.0 / (x4 * x2 * x) - 1.0 / x4;
}

double g_born_mayer_force(double x) {
  const double r = std::sqrt(x);
  return std::exp(-r) / r;
}

double g_born_mayer_potential(double x) { return std::exp(-std::sqrt(x)); }

double g_r6_force(double x) {
  const double x2 = x * x;
  return 1.0 / (x2 * x2);
}

double g_r6_potential(double x) { return 1.0 / (x * x * x); }

double g_r8_force(double x) {
  const double x2 = x * x;
  return 1.0 / (x2 * x2 * x);
}

double g_r8_potential(double x) {
  const double x2 = x * x;
  return 1.0 / (x2 * x2);
}

ForcePass make_coulomb_real_pass(double beta, double r_cut,
                                 std::span<const double> charges,
                                 double r_min) {
  require_species(static_cast<int>(charges.size()));
  ForcePass pass;
  TableConfig cfg;
  cfg.x_min = beta * beta * r_min * r_min;
  cfg.x_max = beta * beta * r_cut * r_cut;
  pass.table = SegmentedTable::fit(g_coulomb_real_force, cfg);
  pass.coefficients.species_count = static_cast<int>(charges.size());
  const double b3 = beta * beta * beta;
  for (std::size_t i = 0; i < charges.size(); ++i) {
    for (std::size_t j = 0; j < charges.size(); ++j) {
      pass.coefficients.a[i][j] = beta * beta;
      pass.coefficients.b[i][j] =
          units::kCoulomb * charges[i] * charges[j] * b3;
    }
  }
  return pass;
}

ForcePass make_coulomb_real_potential_pass(double beta, double r_cut,
                                           std::span<const double> charges,
                                           double r_min) {
  require_species(static_cast<int>(charges.size()));
  ForcePass pass;
  pass.potential_mode = true;
  TableConfig cfg;
  cfg.x_min = beta * beta * r_min * r_min;
  cfg.x_max = beta * beta * r_cut * r_cut;
  pass.table = SegmentedTable::fit(g_coulomb_real_potential, cfg);
  pass.coefficients.species_count = static_cast<int>(charges.size());
  for (std::size_t i = 0; i < charges.size(); ++i) {
    for (std::size_t j = 0; j < charges.size(); ++j) {
      pass.coefficients.a[i][j] = beta * beta;
      pass.coefficients.b[i][j] =
          units::kCoulomb * charges[i] * charges[j] * beta;
    }
  }
  return pass;
}

ForcePass make_lennard_jones_pass(const LennardJonesParameters& lj,
                                  double r_cut, double r_min) {
  require_species(lj.species_count);
  ForcePass pass;
  pass.coefficients.species_count = lj.species_count;
  // One shared shape; a_ij = sigma^-2 rescales per pair, so the table domain
  // must cover x over all pairs: x in [r_min^2/max(sigma)^2, r_cut^2/min(sigma)^2].
  double sigma_min = 1e300, sigma_max = 0.0;
  for (int i = 0; i < lj.species_count; ++i) {
    for (int j = 0; j < lj.species_count; ++j) {
      sigma_min = std::min(sigma_min, lj.sigma[i][j]);
      sigma_max = std::max(sigma_max, lj.sigma[i][j]);
      const double s2 = lj.sigma[i][j] * lj.sigma[i][j];
      pass.coefficients.a[i][j] = 1.0 / s2;
      pass.coefficients.b[i][j] = 24.0 * lj.epsilon[i][j] / s2;
    }
  }
  TableConfig cfg;
  cfg.x_min = r_min * r_min / (sigma_max * sigma_max);
  cfg.x_max = r_cut * r_cut / (sigma_min * sigma_min);
  pass.table = SegmentedTable::fit(g_lennard_jones_force, cfg);
  return pass;
}

std::vector<ForcePass> make_tosi_fumi_passes(const TosiFumiParameters& tf,
                                             double r_cut, double r_min) {
  require_species(tf.species_count);
  std::vector<ForcePass> passes(3);

  // Born-Mayer: a = rho^-2, b = B_ij / rho^2.
  {
    ForcePass& p = passes[0];
    p.coefficients.species_count = tf.species_count;
    TableConfig cfg;
    cfg.x_min = r_min * r_min / (tf.rho * tf.rho);
    cfg.x_max = r_cut * r_cut / (tf.rho * tf.rho);
    p.table = SegmentedTable::fit(g_born_mayer_force, cfg);
    for (int i = 0; i < tf.species_count; ++i) {
      for (int j = 0; j < tf.species_count; ++j) {
        p.coefficients.a[i][j] = 1.0 / (tf.rho * tf.rho);
        p.coefficients.b[i][j] =
            tf.born_prefactor[i][j] / (tf.rho * tf.rho);
      }
    }
  }
  // Dispersion terms: a = 1, b = -6c / -8d.
  TableConfig cfg;
  cfg.x_min = r_min * r_min;
  cfg.x_max = r_cut * r_cut;
  passes[1].table = SegmentedTable::fit(g_r6_force, cfg);
  passes[2].table = SegmentedTable::fit(g_r8_force, cfg);
  for (int pass = 1; pass <= 2; ++pass)
    passes[pass].coefficients.species_count = tf.species_count;
  for (int i = 0; i < tf.species_count; ++i) {
    for (int j = 0; j < tf.species_count; ++j) {
      passes[1].coefficients.a[i][j] = 1.0;
      passes[1].coefficients.b[i][j] = -6.0 * tf.c6[i][j];
      passes[2].coefficients.a[i][j] = 1.0;
      passes[2].coefficients.b[i][j] = -8.0 * tf.d8[i][j];
    }
  }
  return passes;
}

std::vector<ForcePass> make_tosi_fumi_potential_passes(
    const TosiFumiParameters& tf, double r_cut, double r_min) {
  require_species(tf.species_count);
  std::vector<ForcePass> passes(3);
  for (auto& p : passes) {
    p.potential_mode = true;
    p.coefficients.species_count = tf.species_count;
  }
  {
    TableConfig cfg;
    cfg.x_min = r_min * r_min / (tf.rho * tf.rho);
    cfg.x_max = r_cut * r_cut / (tf.rho * tf.rho);
    passes[0].table = SegmentedTable::fit(g_born_mayer_potential, cfg);
  }
  TableConfig cfg;
  cfg.x_min = r_min * r_min;
  cfg.x_max = r_cut * r_cut;
  passes[1].table = SegmentedTable::fit(g_r6_potential, cfg);
  passes[2].table = SegmentedTable::fit(g_r8_potential, cfg);
  for (int i = 0; i < tf.species_count; ++i) {
    for (int j = 0; j < tf.species_count; ++j) {
      passes[0].coefficients.a[i][j] = 1.0 / (tf.rho * tf.rho);
      passes[0].coefficients.b[i][j] = tf.born_prefactor[i][j];
      passes[1].coefficients.a[i][j] = 1.0;
      passes[1].coefficients.b[i][j] = -tf.c6[i][j];
      passes[2].coefficients.a[i][j] = 1.0;
      passes[2].coefficients.b[i][j] = -tf.d8[i][j];
    }
  }
  return passes;
}

RealSpacePasses make_real_space_passes(double beta, double r_cut,
                                       std::span<const double> charges,
                                       bool include_tosi_fumi,
                                       const TosiFumiParameters& tf) {
  RealSpacePasses passes;
  passes.force.push_back(make_coulomb_real_pass(beta, r_cut, charges));
  passes.potential.push_back(
      make_coulomb_real_potential_pass(beta, r_cut, charges));
  if (include_tosi_fumi) {
    for (auto& p : make_tosi_fumi_passes(tf, r_cut))
      passes.force.push_back(std::move(p));
    for (auto& p : make_tosi_fumi_potential_passes(tf, r_cut))
      passes.potential.push_back(std::move(p));
  }
  return passes;
}

}  // namespace mdm::mdgrape2
