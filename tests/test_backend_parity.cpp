/// Backend parity suite (DESIGN.md §11): the native SIMD backend must agree
/// with the double-precision reference to rounding error, and sit inside
/// the paper's hardware accuracy envelope (~1e-7 real-space, ~10^-4.5
/// wavenumber RMS relative force error) versus the MDGRAPE-2/WINE-2
/// emulators, on the standard NaCl melt.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <vector>

#include "core/backend.hpp"
#include "core/checkpoint.hpp"
#include "core/lattice.hpp"
#include "core/simulation.hpp"
#include "core/tosi_fumi.hpp"
#include "ewald/ewald.hpp"
#include "ewald/parameters.hpp"
#include "host/backend_dispatch.hpp"
#include "host/mdm_force_field.hpp"
#include "host/parallel_app.hpp"
#include "native/native_force_field.hpp"
#include "serve/runner.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace mdm {
namespace {

/// The standard melt fixture: NaCl crystal with thermal jitter.
ParticleSystem melt(int cells, std::uint64_t seed = 42) {
  auto system = make_nacl_crystal(cells);
  Random rng(seed);
  for (auto& r : system.positions()) {
    r.x += rng.uniform(-0.3, 0.3);
    r.y += rng.uniform(-0.3, 0.3);
    r.z += rng.uniform(-0.3, 0.3);
  }
  system.wrap_positions();
  return system;
}

double rms_rel_error(std::span<const Vec3> test, std::span<const Vec3> ref) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    num += norm2(test[i] - ref[i]);
    den += norm2(ref[i]);
  }
  return std::sqrt(num / den);
}

native::NativeForceFieldConfig native_config(const EwaldParameters& params) {
  native::NativeForceFieldConfig config;
  config.ewald = params;
  config.include_tosi_fumi = true;
  config.tosi_fumi = TosiFumiParameters::nacl();
  config.tf_shift_energy = false;
  return config;
}

// --- native vs the double-precision reference ------------------------------

TEST(BackendParity, RealSpaceMatchesReferenceToRoundoff) {
  const auto system = melt(3);
  const EwaldParameters params =
      host::mdm_parameters(double(system.size()), system.box());

  EwaldCoulomb reference(params, system.box());
  TosiFumiShortRange short_range(TosiFumiParameters::nacl(), params.r_cut);
  std::vector<Vec3> ref_forces(system.size());
  ForceResult ref = reference.add_real_space(system, ref_forces);
  ref += short_range.add_forces(system, ref_forces);

  native::NativeForceField nat(native_config(params), system.box());
  std::vector<Vec3> nat_forces(system.size());
  const ForceResult got = nat.add_real_space(system, nat_forces);

  EXPECT_LT(rms_rel_error(nat_forces, ref_forces), 1e-12);
  EXPECT_NEAR(got.potential, ref.potential,
              1e-10 * std::fabs(ref.potential));
  EXPECT_NEAR(got.virial, ref.virial, 1e-10 * std::fabs(ref.virial));
}

TEST(BackendParity, WavenumberMatchesReferenceToRoundoff) {
  const auto system = melt(3);
  const EwaldParameters params =
      host::mdm_parameters(double(system.size()), system.box());

  EwaldCoulomb reference(params, system.box());
  std::vector<Vec3> ref_forces(system.size());
  const ForceResult ref = reference.add_wavenumber_space(system, ref_forces);

  native::NativeForceField nat(native_config(params), system.box());
  std::vector<Vec3> nat_forces(system.size());
  const ForceResult got = nat.add_wavenumber_space(system, nat_forces);

  EXPECT_LT(rms_rel_error(nat_forces, ref_forces), 1e-12);
  EXPECT_NEAR(got.potential, ref.potential,
              1e-10 * std::fabs(ref.potential));
  EXPECT_NEAR(got.virial, ref.virial, 1e-10 * std::fabs(ref.virial));
}

TEST(BackendParity, TotalForcesAndEnergyMatchReference) {
  auto system = melt(4, 7);
  const EwaldParameters params =
      host::mdm_parameters(double(system.size()), system.box());

  CompositeForceField reference;
  reference.add(std::make_unique<EwaldCoulomb>(params, system.box()));
  reference.add(std::make_unique<TosiFumiShortRange>(
      TosiFumiParameters::nacl(), params.r_cut));
  std::vector<Vec3> ref_forces(system.size());
  const ForceResult ref = evaluate_forces(reference, system, ref_forces);

  native::NativeForceField nat(native_config(params), system.box());
  std::vector<Vec3> nat_forces(system.size());
  const ForceResult got = evaluate_forces(nat, system, nat_forces);

  EXPECT_LT(rms_rel_error(nat_forces, ref_forces), 1e-12);
  EXPECT_NEAR(got.potential, ref.potential,
              1e-10 * std::fabs(ref.potential));
  EXPECT_NEAR(got.virial, ref.virial, 1e-10 * std::fabs(ref.virial));
}

TEST(BackendParity, SmallBoxUsesN2FallbackAndStaysExact) {
  // software_parameters on a small melt puts the cell grid under 3 cells:
  // the native kernel must fall back to its vectorized N^2 sweep.
  const auto system = melt(2, 3);
  const EwaldParameters params =
      software_parameters(double(system.size()), system.box());

  CompositeForceField reference;
  reference.add(std::make_unique<EwaldCoulomb>(params, system.box()));
  reference.add(std::make_unique<TosiFumiShortRange>(
      TosiFumiParameters::nacl(), params.r_cut, /*shift_energy=*/true));
  std::vector<Vec3> ref_forces(system.size());
  const ForceResult ref = evaluate_forces(reference, system, ref_forces);

  auto config = native_config(params);
  config.tf_shift_energy = true;
  native::NativeForceField nat(config, system.box());
  std::vector<Vec3> nat_forces(system.size());
  const ForceResult got = evaluate_forces(nat, system, nat_forces);

  EXPECT_LT(rms_rel_error(nat_forces, ref_forces), 1e-12);
  EXPECT_NEAR(got.potential, ref.potential,
              1e-10 * std::fabs(ref.potential));
}

TEST(BackendParity, N2FallbackRebuildsCoefficientsWhenSpeciesChange) {
  // Regression: the Tosi-Fumi coefficient rows are gathered per slot from
  // the type stream, but their rebuild used to be keyed on the cell-list
  // rebuild. The N^2 fallback never reports a rebuild, so in the parallel
  // app a migration that swapped which species a slot holds kept serving
  // stale rows (~1e-3 force error). The kernel must key the rebuild on the
  // type stream itself: mutating types between sweeps of ONE kernel must
  // give the same forces as a fresh kernel on the mutated set.
  const auto system = melt(2, 11);
  const EwaldParameters params =
      software_parameters(double(system.size()), system.box());

  native::NativeRealKernel::Config rc;
  rc.box = system.box();
  rc.beta = params.alpha / system.box();
  rc.r_cut = params.r_cut;
  rc.include_tosi_fumi = true;
  rc.tosi_fumi = TosiFumiParameters::nacl();

  std::vector<int> types(system.types().begin(), system.types().end());
  const std::vector<double> charge_of = {system.species(0).charge,
                                         system.species(1).charge};
  native::SoaParticles soa;
  soa.sync(system.box(), system.positions(), types, charge_of);

  native::NativeRealKernel kernel(rc);
  std::vector<Vec3> before(system.size());
  kernel.sweep(soa, before);
  ASSERT_TRUE(kernel.cells().use_n2_fallback(rc.r_cut));

  // Same-size set, positions untouched, two ions trade species: no cell
  // rebuild fires, only the type stream changes.
  std::swap(types[0], types[1]);
  soa.sync(system.box(), system.positions(), types, charge_of);
  std::vector<Vec3> stale(system.size());
  kernel.sweep(soa, stale);

  native::NativeRealKernel fresh(rc);
  std::vector<Vec3> expect(system.size());
  fresh.sweep(soa, expect);

  bool changed = false;
  for (std::size_t i = 0; i < system.size(); ++i) {
    EXPECT_EQ(stale[i].x, expect[i].x) << i;
    EXPECT_EQ(stale[i].y, expect[i].y) << i;
    EXPECT_EQ(stale[i].z, expect[i].z) << i;
    changed = changed || stale[i].x != before[i].x;
  }
  EXPECT_TRUE(changed) << "species swap did not affect forces; test inert";
}

TEST(BackendParity, PoolSweepBitIdenticalToSerial) {
  const auto system = melt(3, 9);
  const EwaldParameters params =
      host::mdm_parameters(double(system.size()), system.box());

  native::NativeForceField serial(native_config(params), system.box());
  std::vector<Vec3> serial_forces(system.size());
  const ForceResult a = serial.add_real_space(system, serial_forces);

  ThreadPool pool(4);
  native::NativeForceField pooled(native_config(params), system.box());
  pooled.set_thread_pool(&pool);
  std::vector<Vec3> pooled_forces(system.size());
  const ForceResult b = pooled.add_real_space(system, pooled_forces);

  for (std::size_t i = 0; i < system.size(); ++i) {
    EXPECT_EQ(serial_forces[i].x, pooled_forces[i].x) << i;
    EXPECT_EQ(serial_forces[i].y, pooled_forces[i].y) << i;
    EXPECT_EQ(serial_forces[i].z, pooled_forces[i].z) << i;
  }
  EXPECT_EQ(a.potential, b.potential);
  EXPECT_EQ(a.virial, b.virial);
}

TEST(BackendParity, OneSidedSweepMatchesNewtonSweep) {
  const auto system = melt(3, 5);
  const EwaldParameters params =
      host::mdm_parameters(double(system.size()), system.box());

  native::SoaParticles soa;
  soa.sync(system);

  native::NativeRealKernel::Config rc;
  rc.box = system.box();
  rc.beta = params.alpha / system.box();
  rc.r_cut = params.r_cut;
  rc.include_tosi_fumi = true;
  rc.tosi_fumi = TosiFumiParameters::nacl();

  native::NativeRealKernel newton(rc);
  std::vector<Vec3> newton_forces(system.size());
  const ForceResult nt = newton.sweep(soa, newton_forces);

  // One-sided over the full system: every i sees every j, forces identical
  // up to summation order; potential/virial double-counted.
  native::NativeRealKernel one_sided(rc);
  std::vector<Vec3> os_forces(system.size());
  const ForceResult os = one_sided.one_sided(soa, system.size(), os_forces);

  EXPECT_LT(rms_rel_error(os_forces, newton_forces), 1e-12);
  EXPECT_NEAR(0.5 * os.potential, nt.potential,
              1e-10 * std::fabs(nt.potential));
  EXPECT_NEAR(0.5 * os.virial, nt.virial, 1e-10 * std::fabs(nt.virial));
  EXPECT_EQ(os.potential == 0.0, false);
}

// --- the cutoff filter: exactly the in-range pairs, nothing else ----------

native::NativeRealKernel::Config kernel_config(const ParticleSystem& system,
                                               const EwaldParameters& params) {
  native::NativeRealKernel::Config rc;
  rc.box = system.box();
  rc.beta = params.alpha / system.box();
  rc.r_cut = params.r_cut;
  rc.include_tosi_fumi = true;
  rc.tosi_fumi = TosiFumiParameters::nacl();
  return rc;
}

/// Partners j != i of particle i with r^2 < r_cut^2 under the minimum
/// image, by a plain double loop over the wrapped coordinates.
std::uint64_t brute_partners(const native::SoaParticles& soa, std::size_t i,
                             double r_cut) {
  const double box = soa.box;
  const auto image = [box](double d) { return d - box * std::round(d / box); };
  std::uint64_t count = 0;
  for (std::size_t j = 0; j < soa.size(); ++j) {
    if (j == i) continue;
    const double dx = image(soa.x[i] - soa.x[j]);
    const double dy = image(soa.y[i] - soa.y[j]);
    const double dz = image(soa.z[i] - soa.z[j]);
    if (dx * dx + dy * dy + dz * dz < r_cut * r_cut) ++count;
  }
  return count;
}

/// Ordered in-range pairs of the first `n_i` particles (one-sided sweep);
/// half of them over all particles is the Newton sweep's count.
std::uint64_t brute_one_sided_pairs(const native::SoaParticles& soa,
                                    std::size_t n_i, double r_cut) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < n_i; ++i)
    count += brute_partners(soa, i, r_cut);
  return count;
}

TEST(BackendParity, SweepCountsExactlyTheInRangePairs) {
  // N^2 fallback (software_parameters on a small melt: < 3 cells per side)
  // and the half stencil (mdm_parameters keeps r_cut <= L/3).
  struct Case {
    int cells;
    bool n2;
  };
  for (const Case c : {Case{2, true}, Case{4, false}}) {
    const auto system = melt(c.cells, 17);
    const double n = double(system.size());
    const EwaldParameters params =
        c.n2 ? software_parameters(n, system.box())
             : host::mdm_parameters(n, system.box());
    native::SoaParticles soa;
    soa.sync(system);
    native::NativeRealKernel kernel(kernel_config(system, params));
    std::vector<Vec3> forces(system.size());
    kernel.sweep(soa, forces);
    ASSERT_EQ(kernel.cells().use_n2_fallback(params.r_cut), c.n2);
    if (!c.n2) {
      ASSERT_GE(kernel.cells().cells_per_side(), 3);
    }
    const std::uint64_t expect =
        brute_one_sided_pairs(soa, system.size(), params.r_cut) / 2;
    EXPECT_GT(expect, 0u);
    EXPECT_EQ(kernel.last_pairs(), expect) << "cells " << c.cells;
  }
}

TEST(BackendParity, OneSidedCountsExactlyTheOwnedInRangePairs) {
  // Owned particles are listed first; the halo tail gets no force but is
  // a partner of the owned ones.
  for (const int cells : {2, 4}) {
    const auto system = melt(cells, 19);
    const double n = double(system.size());
    const EwaldParameters params =
        cells == 2 ? software_parameters(n, system.box())
                   : host::mdm_parameters(n, system.box());
    native::SoaParticles soa;
    soa.sync(system);
    native::NativeRealKernel kernel(kernel_config(system, params));
    const std::size_t owned = system.size() / 3;
    std::vector<Vec3> forces(system.size());
    kernel.one_sided(soa, owned, forces);
    EXPECT_EQ(kernel.last_pairs(),
              brute_one_sided_pairs(soa, owned, params.r_cut))
        << "cells " << cells;
    for (std::size_t i = owned; i < system.size(); ++i)
      EXPECT_EQ(forces[i], Vec3{}) << i;
  }
}

TEST(BackendParity, PairExactlyAtCutoffIsExcluded) {
  // r_cut = 2.5 and the coordinates are exact binary fractions, so the
  // pair (a, b) sits at r^2 == r_cut^2 with no rounding; (a, c) is just
  // inside. Both the N^2 fallback (box 6, 2 cells per side) and the half
  // stencil (box 10, 4 cells per side) must count only (a, c).
  for (const double box : {6.0, 10.0}) {
    native::NativeRealKernel::Config rc;
    rc.box = box;
    rc.beta = 1.0;
    rc.r_cut = 2.5;
    rc.include_tosi_fumi = true;
    rc.tosi_fumi = TosiFumiParameters::nacl();
    const std::vector<Vec3> pos = {
        {1.0, 1.0, 1.0}, {3.5, 1.0, 1.0}, {1.0, 3.4375, 1.0}};
    const std::vector<int> types = {0, 1, 1};
    const std::vector<double> charge_of = {1.0, -1.0};
    native::SoaParticles soa;
    soa.sync(box, pos, types, charge_of);

    native::NativeRealKernel kernel(rc);
    ASSERT_EQ(kernel.cells().cells_per_side() < 3, box == 6.0);
    std::vector<Vec3> forces(pos.size());
    kernel.sweep(soa, forces);
    EXPECT_EQ(kernel.last_pairs(), 1u) << "box " << box;
    EXPECT_EQ(forces[1], Vec3{}) << "pair at r_cut contributed, box " << box;
    EXPECT_NE(forces[2].y, 0.0);

    std::vector<Vec3> os_forces(pos.size());
    kernel.one_sided(soa, pos.size(), os_forces);
    EXPECT_EQ(kernel.last_pairs(), 2u) << "box " << box;
    EXPECT_EQ(os_forces[1], Vec3{});
  }
}

TEST(BackendParity, OneSidedSkipsSelfAtEitherEndOfARange) {
  // The N^2 fallback hands every i the range [0, n): i = 0 has its own
  // slot first and i = n - 1 last. In cell mode every cell's first and last
  // occupants meet themselves at the ends of their own cell's range.
  // Counting the self slot would add a pair and a non-finite force.
  for (const int cells : {2, 4}) {
    const auto system = melt(cells, 23);
    const double n = double(system.size());
    const EwaldParameters params =
        cells == 2 ? software_parameters(n, system.box())
                   : host::mdm_parameters(n, system.box());
    native::SoaParticles soa;
    soa.sync(system);
    const auto rc = kernel_config(system, params);

    native::NativeRealKernel one_sided(rc);
    std::vector<Vec3> os_forces(system.size());
    one_sided.one_sided(soa, system.size(), os_forces);
    EXPECT_EQ(one_sided.last_pairs(),
              brute_one_sided_pairs(soa, system.size(), params.r_cut));

    native::NativeRealKernel newton(rc);
    std::vector<Vec3> nt_forces(system.size());
    newton.sweep(soa, nt_forces);

    // Particles that sit at the first or last slot of their j-range.
    std::vector<std::size_t> ends;
    if (newton.cells().use_n2_fallback(rc.r_cut)) {
      ends = {0, system.size() - 1};
    } else {
      const auto order = newton.cells().order();
      for (int c = 0; c < newton.cells().cell_count(); ++c) {
        const auto r = newton.cells().cell_range(c);
        if (r.size() == 0) continue;
        ends.push_back(order[r.begin]);
        ends.push_back(order[r.end - 1]);
      }
    }
    ASSERT_FALSE(ends.empty());
    for (const std::size_t id : ends) {
      const Vec3 d = os_forces[id] - nt_forces[id];
      ASSERT_TRUE(std::isfinite(os_forces[id].x) &&
                  std::isfinite(os_forces[id].y) &&
                  std::isfinite(os_forces[id].z))
          << id;
      EXPECT_LT(std::sqrt(norm2(d)), 1e-10 * std::sqrt(norm2(nt_forces[id])))
          << id;
    }
  }
}

// --- native vs the hardware emulators (the paper's envelope) ---------------

TEST(BackendParity, NativeWithinEmulatorEnvelopeOnStandardMelt) {
  auto system = melt(3, 11);
  const EwaldParameters params =
      host::mdm_parameters(double(system.size()), system.box());

  host::MdmForceFieldConfig mdm_config;
  mdm_config.ewald = params;
  host::MdmForceField emulator(mdm_config, system.box());
  std::vector<Vec3> emu_forces(system.size());
  evaluate_forces(emulator, system, emu_forces);

  native::NativeForceField nat(native_config(params), system.box());
  std::vector<Vec3> nat_forces(system.size());
  evaluate_forces(nat, system, nat_forces);

  // The native backend tracks the double-precision reference to ~1e-12, so
  // its disagreement with the emulators IS the emulator error. The repo's
  // fixed-point pipelines land at ~1.8e-4 RMS relative on this melt, inside
  // the 5e-4 emulator envelope asserted by test_mdm_force_field.
  const double err = rms_rel_error(nat_forces, emu_forces);
  EXPECT_LT(err, 5e-4);
  EXPECT_GT(err, 1e-10);  // the fixed-point pipelines are not exact
}

TEST(BackendParity, RealSpaceComponentWithinMdgrapeEnvelope) {
  auto system = melt(3, 13);
  const EwaldParameters params =
      host::mdm_parameters(double(system.size()), system.box());

  host::MdmForceFieldConfig mdm_config;
  mdm_config.ewald = params;
  mdm_config.include_tosi_fumi = false;  // isolate the Coulomb real term
  host::MdmForceField emulator(mdm_config, system.box());
  std::vector<Vec3> emu_forces(system.size());
  evaluate_forces(emulator, system, emu_forces);

  auto config = native_config(params);
  config.include_tosi_fumi = false;
  native::NativeForceField nat(config, system.box());
  std::vector<Vec3> nat_forces(system.size());
  evaluate_forces(nat, system, nat_forces);

  EXPECT_LT(rms_rel_error(nat_forces, emu_forces), 5e-4);
}

// --- backend selection -----------------------------------------------------

TEST(BackendParity, DispatchBuildsRequestedBackend) {
  const auto system = melt(3);
  host::MdmForceFieldConfig config;
  config.ewald = host::mdm_parameters(double(system.size()), system.box());

  auto emu = host::make_backend_force_field(Backend::kEmulator, config,
                                            system.box());
  auto nat = host::make_backend_force_field(Backend::kNative, config,
                                            system.box());
  EXPECT_EQ(emu->name(), "mdm-machine");
  EXPECT_EQ(nat->name(), "native-simd");

  EXPECT_EQ(backend_from_string("native"), Backend::kNative);
  EXPECT_EQ(backend_from_string("emulator"), Backend::kEmulator);
  EXPECT_THROW(backend_from_string("gpu"), std::invalid_argument);
  EXPECT_STREQ(to_string(Backend::kNative), "native");
}

// --- the serve layer on the native backend ---------------------------------

TEST(BackendParity, ServeRunsNativeJobsOnBothPaths) {
  // Single-process path: same spec on both backends, same protocol; the
  // native trajectory must land within the software envelope (identical
  // physics, double precision on both sides — only summation order and
  // erfc evaluation differ, so the tolerance is tight).
  serve::JobSpec spec;
  spec.cells = 2;
  spec.nvt_steps = 2;
  spec.nve_steps = 3;
  const serve::JobResult emu = serve::run_job(spec);
  ASSERT_EQ(emu.state, serve::JobState::kCompleted);

  spec.backend = Backend::kNative;
  const serve::JobResult nat = serve::run_job(spec);
  ASSERT_EQ(nat.state, serve::JobState::kCompleted);
  ASSERT_EQ(nat.samples.size(), emu.samples.size());
  EXPECT_NEAR(nat.samples.back().total_eV, emu.samples.back().total_eV,
              1e-8 * std::fabs(emu.samples.back().total_eV));

  // Parallel path: the spec's backend flows through to MdmParallelApp.
  spec.parallel_real = 2;
  spec.parallel_wn = 2;
  const serve::JobResult par = serve::run_job(spec);
  ASSERT_EQ(par.state, serve::JobState::kCompleted);
  EXPECT_EQ(par.positions.size(), std::size_t(spec.particle_count()));
  for (const auto& s : par.samples)
    EXPECT_TRUE(std::isfinite(s.total_eV));
}

// --- checkpoint restore across a backend switch ----------------------------

TEST(BackendParity, CheckpointRestoreAcrossBackendSwitch) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("mdm_backend_switch_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  auto initial = make_nacl_crystal(2);
  assign_maxwell_velocities(initial, 1200.0, 42);
  const EwaldParameters params =
      host::mdm_parameters(double(initial.size()), initial.box());
  host::MdmForceFieldConfig ff_config;
  ff_config.ewald = params;
  SimulationConfig protocol;
  protocol.nvt_steps = 2;
  protocol.nve_steps = 4;

  // Emulator run with checkpointing; the step-4 generation is the restore
  // point for both continuations.
  CheckpointManager mgr((dir / "ckpt").string());
  auto sys_emu = initial;
  auto emu = host::make_backend_force_field(Backend::kEmulator, ff_config,
                                            sys_emu.box());
  Simulation emu_run(sys_emu, *emu, protocol);
  emu_run.run({}, [&](int step) {
    if (step > 0 && step % 2 == 0) mgr.write(emu_run.checkpoint_state());
  });
  ASSERT_TRUE(fs::exists(mgr.path_for_step(4)));
  const CheckpointState ckpt = read_checkpoint_file(mgr.path_for_step(4));

  // Continuation A: restore on the emulator (the control trajectory).
  auto sys_a = initial;
  auto field_a = host::make_backend_force_field(Backend::kEmulator,
                                                ff_config, sys_a.box());
  Simulation run_a(sys_a, *field_a, protocol);
  run_a.restore(ckpt);
  run_a.run();

  // Continuation B: restore the SAME emulator checkpoint on the native
  // backend. The restore must succeed (checkpoints are backend-agnostic)
  // and the resumed trajectory may diverge only by the emulator error
  // envelope propagated over the remaining two steps.
  auto sys_b = initial;
  auto field_b = host::make_backend_force_field(Backend::kNative, ff_config,
                                                sys_b.box());
  Simulation run_b(sys_b, *field_b, protocol);
  run_b.restore(ckpt);
  run_b.run();

  double max_dev = 0.0;
  for (std::size_t i = 0; i < sys_a.size(); ++i)
    max_dev = std::max(max_dev, norm(sys_b.positions()[i] -
                                     sys_a.positions()[i]));
  EXPECT_LT(max_dev, 1e-3);  // envelope-bounded divergence, Angstrom
  EXPECT_GT(max_dev, 0.0);   // the backend really switched

  ASSERT_FALSE(run_b.samples().empty());
  EXPECT_EQ(run_b.samples().front().step, 5);
  EXPECT_NEAR(run_b.samples().back().total_eV,
              run_a.samples().back().total_eV,
              1e-3 * std::fabs(run_a.samples().back().total_eV));

  fs::remove_all(dir);
}

// --- the parallel application on the native backend ------------------------

TEST(BackendParity, ParallelAppNativeMatchesSerialNative) {
  auto sys = make_nacl_crystal(2);
  assign_maxwell_velocities(sys, 1200.0, 7);
  const EwaldParameters params =
      host::mdm_parameters(double(sys.size()), sys.box());

  host::ParallelAppConfig cfg;
  cfg.backend = Backend::kNative;
  cfg.real_processes = 4;
  cfg.wn_processes = 2;
  cfg.protocol.nvt_steps = 3;
  cfg.protocol.nve_steps = 5;
  cfg.ewald = params;

  host::MdmParallelApp app(cfg);
  auto sys_parallel = sys;
  const auto parallel = app.run(sys_parallel);

  native::NativeForceField nat(native_config(params), sys.box());
  Simulation serial(sys, nat, cfg.protocol);
  serial.run();

  ASSERT_EQ(parallel.samples.size(), serial.samples().size());
  for (std::size_t k = 0; k < serial.samples().size(); ++k) {
    EXPECT_EQ(parallel.samples[k].step, serial.samples()[k].step);
    // Both sides run the same double-precision kernels; only summation
    // order differs (one-sided rank sweeps vs the Newton sweep), so the
    // agreement is far tighter than the emulator-vs-serial bound.
    EXPECT_NEAR(parallel.samples[k].temperature_K,
                serial.samples()[k].temperature_K,
                1e-6 * serial.samples()[k].temperature_K + 1e-9)
        << k;
    EXPECT_NEAR(parallel.samples[k].total_eV, serial.samples()[k].total_eV,
                1e-7 * std::fabs(serial.samples()[k].total_eV))
        << k;
  }
  EXPECT_EQ(parallel.positions.size(), sys.size());
}

}  // namespace
}  // namespace mdm
