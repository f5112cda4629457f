#pragma once

/// \file gtables.hpp
/// The g(x) function shapes the MDM software loads into the MDGRAPE-2
/// function evaluator, together with their per-pair coefficients
/// (a_ij, b_ij) such that the pipeline's
///
///     f_ij = b_ij * g(a_ij * r_ij^2) * r_vec_ij                   (eq. 14)
///
/// reproduces each physical force term. Force tables (f = ... * r_vec) and
/// potential tables (phi = b * g(a r^2)) are both provided; the real machine
/// evaluates the potential every 100 steps with the same mechanism (sec. 5).
///
/// Conventions used below (k_e = Coulomb constant, beta = alpha/L):
///
///  term            g(x)                         a_ij        b_ij
///  Coulomb real    2 e^-x/(sqrt(pi) x)
///                   + erfc(sqrt x)/x^(3/2)      beta^2      k_e q_i q_j beta^3
///  LJ (eq. 4)      2 x^-7 - x^-4                sigma^-2    24 eps / sigma^2
///  Born-Mayer      e^-sqrt(x) / sqrt(x)         rho^-2      B_ij / rho^2
///  dispersion r^-6 x^-4                         1           -6 c_ij
///  dispersion r^-8 x^-5                         1           -8 d_ij
///
///  Coulomb real pot. erfc(sqrt x)/sqrt(x)       beta^2      k_e q_i q_j beta
///  Born-Mayer pot.   e^-sqrt(x)                 rho^-2      B_ij
///  dispersion pots.  x^-3 / x^-4                1           -c_ij / -d_ij

#include "core/lennard_jones.hpp"
#include "core/tosi_fumi.hpp"
#include "mdgrape2/function_evaluator.hpp"

namespace mdm::mdgrape2 {

/// Per-pair coefficients for one pass, sized for the chip's 32-type
/// coefficient RAM.
inline constexpr int kMaxAtomTypes = 32;

struct PairCoefficients {
  int species_count = 0;
  double a[kMaxAtomTypes][kMaxAtomTypes] = {};
  double b[kMaxAtomTypes][kMaxAtomTypes] = {};
};

/// One full MDGRAPE-2 pass: a fitted table plus its coefficients.
struct ForcePass {
  SegmentedTable table;
  PairCoefficients coefficients;
  bool potential_mode = false;  ///< accumulate b*g scalars instead of forces
  /// Multiply each contribution by the j-particle's stored charge (for
  /// passes whose strength is not type-determined, e.g. tree monopoles).
  bool use_particle_charge = false;
};

/// --- table shapes (pure functions of x) ---------------------------------
double g_coulomb_real_force(double x);
double g_coulomb_real_potential(double x);
double g_lennard_jones_force(double x);
double g_born_mayer_force(double x);
double g_born_mayer_potential(double x);
double g_r6_force(double x);   // x^-4
double g_r6_potential(double x);
double g_r8_force(double x);   // x^-5
double g_r8_potential(double x);

/// --- ready-to-load passes ------------------------------------------------

/// Real-space Ewald Coulomb force (paper sec. 3.5.4). `charges` per species.
ForcePass make_coulomb_real_pass(double beta, double r_cut,
                                 std::span<const double> charges,
                                 double r_min = 0.5);

/// Coulomb real-space potential pass (for energy sampling).
ForcePass make_coulomb_real_potential_pass(double beta, double r_cut,
                                           std::span<const double> charges,
                                           double r_min = 0.5);

/// Lennard-Jones force pass from per-pair parameters.
ForcePass make_lennard_jones_pass(const LennardJonesParameters& lj,
                                  double r_cut, double r_min = 0.5);

/// Tosi-Fumi short-range force as three passes (Born-Mayer, r^-6, r^-8).
std::vector<ForcePass> make_tosi_fumi_passes(const TosiFumiParameters& tf,
                                             double r_cut, double r_min = 1.0);

/// Tosi-Fumi short-range potential passes.
std::vector<ForcePass> make_tosi_fumi_potential_passes(
    const TosiFumiParameters& tf, double r_cut, double r_min = 1.0);

/// The host's real-space pass lists (sec. 3.1): the Ewald real-space
/// Coulomb pass first, then the three Tosi-Fumi passes when
/// `include_tosi_fumi` is set; `potential` mirrors `force` pass for pass.
/// Shared by the serial MdmForceField and the parallel app's real ranks.
struct RealSpacePasses {
  std::vector<ForcePass> force;
  std::vector<ForcePass> potential;
};
RealSpacePasses make_real_space_passes(double beta, double r_cut,
                                       std::span<const double> charges,
                                       bool include_tosi_fumi,
                                       const TosiFumiParameters& tf);

}  // namespace mdm::mdgrape2
