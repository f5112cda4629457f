/// \file test_checkpoint.cpp
/// Crash-consistent checkpoint/restart + numerical-health watchdog
/// (DESIGN.md §8): format round-trips, atomic-rename crash safety,
/// generation rotation and corruption fallback, legacy-format reading,
/// bit-identical restart of the serial and parallel drivers, and in-run
/// recovery from an injected rank death.

#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/health.hpp"
#include "core/io.hpp"
#include "core/manifest.hpp"
#include "core/lattice.hpp"
#include "core/simulation.hpp"
#include "core/tosi_fumi.hpp"
#include "ewald/ewald.hpp"
#include "ewald/parameters.hpp"
#include "host/fault_injector.hpp"
#include "host/mdm_force_field.hpp"
#include "host/parallel_app.hpp"
#include "native/native_force_field.hpp"
#include "obs/metrics.hpp"
#include "util/random.hpp"

namespace mdm {
namespace {

namespace fs = std::filesystem;

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter_value(name);
}

/// Run `sim` to the end, writing a generation into `mgr` at the end of
/// every `interval`-th step.
void run_checkpointed(Simulation& sim, CheckpointManager& mgr, int interval) {
  sim.run({}, [&](int step) {
    if (step > 0 && step % interval == 0) mgr.write(sim.checkpoint_state());
  });
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("mdm_ckpt_" + std::string(info->name()) + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    checkpoint_fail_next_writes_for_testing(0);
    fs::remove_all(dir_);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

/// A fully populated state from a small crystal; `salt` varies the dynamic
/// fields so distinct states are distinguishable on disk.
CheckpointState make_state(std::uint64_t step, std::uint64_t salt = 1) {
  auto sys = make_nacl_crystal(1);
  assign_maxwell_velocities(sys, 300.0 + double(salt), salt);
  auto state = CheckpointState::capture(sys, step, double(step) * 2e-3);
  state.thermostat.applications = 3 + salt;
  state.thermostat.last_scale = 0.9876;
  state.thermostat.work_eV = -0.125;
  Random rng(salt);
  rng.normal();  // populate the polar cache
  state.rng = rng.state();
  // NPT coupling block (format v3): counters, an advanced volume-move
  // stream and a box-edge history.
  state.barostat.applications = 11 + salt;
  state.barostat.attempts = 7 + salt;
  state.barostat.accepts = 2 + salt;
  state.barostat.last_scale = 1.0009765625;
  Random baro_rng(salt + 77);
  baro_rng.normal();
  state.barostat.rng = baro_rng.state();
  state.barostat.record_box(sys.box());
  state.barostat.record_box(sys.box() * 0.999);
  return state;
}

void expect_states_bitwise_equal(const CheckpointState& a,
                                 const CheckpointState& b) {
  EXPECT_EQ(a.step, b.step);
  EXPECT_EQ(a.time_ps, b.time_ps);
  EXPECT_EQ(a.box, b.box);
  ASSERT_EQ(a.species.size(), b.species.size());
  for (std::size_t i = 0; i < a.species.size(); ++i) {
    EXPECT_EQ(a.species[i].name, b.species[i].name);
    EXPECT_EQ(a.species[i].mass, b.species[i].mass);
    EXPECT_EQ(a.species[i].charge, b.species[i].charge);
  }
  ASSERT_EQ(a.types, b.types);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  ASSERT_EQ(a.velocities.size(), b.velocities.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(a.positions[i].x, b.positions[i].x) << i;
    EXPECT_EQ(a.positions[i].y, b.positions[i].y) << i;
    EXPECT_EQ(a.positions[i].z, b.positions[i].z) << i;
    EXPECT_EQ(a.velocities[i].x, b.velocities[i].x) << i;
    EXPECT_EQ(a.velocities[i].y, b.velocities[i].y) << i;
    EXPECT_EQ(a.velocities[i].z, b.velocities[i].z) << i;
  }
  EXPECT_EQ(a.thermostat.applications, b.thermostat.applications);
  EXPECT_EQ(a.thermostat.last_scale, b.thermostat.last_scale);
  EXPECT_EQ(a.thermostat.work_eV, b.thermostat.work_eV);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.rng.s[i], b.rng.s[i]);
  EXPECT_EQ(a.rng.cached, b.rng.cached);
  EXPECT_EQ(a.rng.have_cached, b.rng.have_cached);
  EXPECT_EQ(a.barostat.applications, b.barostat.applications);
  EXPECT_EQ(a.barostat.attempts, b.barostat.attempts);
  EXPECT_EQ(a.barostat.accepts, b.barostat.accepts);
  EXPECT_EQ(a.barostat.last_scale, b.barostat.last_scale);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(a.barostat.rng.s[i], b.barostat.rng.s[i]);
  EXPECT_EQ(a.barostat.rng.cached, b.barostat.rng.cached);
  EXPECT_EQ(a.barostat.rng.have_cached, b.barostat.rng.have_cached);
  ASSERT_EQ(a.barostat.box_history.size(), b.barostat.box_history.size());
  for (std::size_t i = 0; i < a.barostat.box_history.size(); ++i)
    EXPECT_EQ(a.barostat.box_history[i], b.barostat.box_history[i]) << i;
}

/// ------------------------- RNG state -------------------------------------

TEST(RandomStateSerialization, RestoredStreamContinuesExactly) {
  Random original(12345);
  for (int i = 0; i < 7; ++i) original.normal();  // leaves a cached draw
  const RandomState snapshot = original.state();

  Random restored(999);  // different seed: state must fully override it
  restored.set_state(snapshot);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(original.next_u64(), restored.next_u64()) << i;
  }
  // The Marsaglia cache travels too: the first normal() after restore must
  // return the cached second draw, not a fresh pair.
  Random a(7), b(42);
  a.normal();
  b.set_state(a.state());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.normal(), b.normal()) << i;
}

/// ------------------------- format round-trip -----------------------------

TEST_F(CheckpointTest, RoundTripPreservesEveryFieldBitwise) {
  const auto state = make_state(42);
  const auto writes = counter("ckpt.writes");
  const auto bytes = counter("ckpt.bytes");
  const auto restores = counter("ckpt.restores");
  write_checkpoint_file(path("a.mdm"), state);
  const auto loaded = read_checkpoint_file(path("a.mdm"));
  EXPECT_EQ(loaded.version, kCheckpointVersion);
  expect_states_bitwise_equal(state, loaded);
  EXPECT_EQ(counter("ckpt.writes"), writes + 1);
  EXPECT_GT(counter("ckpt.bytes"), bytes);
  EXPECT_EQ(counter("ckpt.restores"), restores + 1);
}

TEST_F(CheckpointTest, ApplyToRestoresDynamicState) {
  auto sys = make_nacl_crystal(1);
  assign_maxwell_velocities(sys, 1200.0, 5);
  const auto state = CheckpointState::capture(sys, 10, 0.02);
  auto target = make_nacl_crystal(1);  // zero velocities, lattice positions
  state.apply_to(target);
  for (std::size_t i = 0; i < sys.size(); ++i) {
    EXPECT_EQ(target.positions()[i].x, sys.positions()[i].x);
    EXPECT_EQ(target.velocities()[i].x, sys.velocities()[i].x);
  }
  // Mismatched targets are rejected, not silently mangled.
  auto wrong = make_nacl_crystal(2);
  EXPECT_THROW(state.apply_to(wrong), CheckpointError);
}

/// ------------------------- crash consistency -----------------------------

TEST_F(CheckpointTest, FailedWriteLeavesNoPartialFileAndKeepsOldCheckpoint) {
  const auto old_state = make_state(2, /*salt=*/2);
  write_checkpoint_file(path("a.mdm"), old_state);

  checkpoint_fail_next_writes_for_testing(1);
  try {
    write_checkpoint_file(path("a.mdm"), make_state(4, /*salt=*/4));
    FAIL() << "expected the injected ENOSPC to surface";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint write failed"),
              std::string::npos)
        << e.what();
  }
  // The half-written temp file was cleaned up and the previous generation
  // is untouched: a crash mid-write can never lose the old checkpoint.
  EXPECT_FALSE(fs::exists(path("a.mdm.tmp")));
  const auto survivor = read_checkpoint_file(path("a.mdm"));
  expect_states_bitwise_equal(old_state, survivor);
}

/// ------------------------- rotation --------------------------------------

TEST_F(CheckpointTest, RotationKeepsExactlyNGenerationsAndLatestPointer) {
  CheckpointManager mgr(path("rot"), /*keep_generations=*/2);
  EXPECT_EQ(mgr.keep_generations(), 2);
  for (std::uint64_t step : {2, 4, 6, 8}) mgr.write(make_state(step, step));

  const auto gens = mgr.generations();
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0], mgr.path_for_step(6));
  EXPECT_EQ(gens[1], mgr.path_for_step(8));
  EXPECT_FALSE(fs::exists(mgr.path_for_step(2)));
  EXPECT_FALSE(fs::exists(mgr.path_for_step(4)));

  std::ifstream latest(fs::path(mgr.directory()) / "latest");
  std::string name;
  latest >> name;
  EXPECT_EQ(name, "ckpt.000008.mdm");

  const auto restored = mgr.restore_latest();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->step, 8u);
}

TEST_F(CheckpointTest, ManagerRejectsZeroGenerations) {
  EXPECT_THROW(CheckpointManager(path("bad"), 0), std::invalid_argument);
}

TEST_F(CheckpointTest, EmptyDirectoryRestoresNothing) {
  CheckpointManager mgr(path("empty"));
  EXPECT_TRUE(mgr.generations().empty());
  EXPECT_FALSE(mgr.restore_latest().has_value());
}

/// ------------------------- corruption ------------------------------------

void flip_byte(const std::string& file, std::size_t offset) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0x5a));
}

TEST_F(CheckpointTest, BitFlipIsRejectedNamingFileAndOffset) {
  write_checkpoint_file(path("a.mdm"), make_state(6));
  flip_byte(path("a.mdm"), 100);
  try {
    read_checkpoint_file(path("a.mdm"));
    FAIL() << "expected a CRC mismatch";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CRC mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("a.mdm"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
    EXPECT_NE(what.find("stored 0x"), std::string::npos) << what;
  }
}

TEST_F(CheckpointTest, TruncatedFilesAreRejected) {
  write_checkpoint_file(path("full.mdm"), make_state(6));
  std::ifstream in(path("full.mdm"), std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 64u);

  const auto truncate_to = [&](std::size_t n) {
    std::ofstream out(path("cut.mdm"), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamoff>(n));
  };
  truncate_to(4);  // shorter than the magic
  EXPECT_THROW(read_checkpoint_file(path("cut.mdm")), CheckpointError);
  truncate_to(10);  // magic but no room for the CRC footer
  try {
    read_checkpoint_file(path("cut.mdm"));
    FAIL() << "expected a truncation error";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
  truncate_to(bytes.size() / 2);  // mid-payload: caught by the CRC
  EXPECT_THROW(read_checkpoint_file(path("cut.mdm")), CheckpointError);
}

TEST_F(CheckpointTest, NonCheckpointFileIsRejected) {
  std::ofstream(path("junk.mdm")) << "definitely not a checkpoint file";
  try {
    read_checkpoint_file(path("junk.mdm"));
    FAIL() << "expected a magic mismatch";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("not an MDM checkpoint"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(read_checkpoint_file(path("missing.mdm")), CheckpointError);
}

TEST_F(CheckpointTest, CorruptLatestFallsBackToPreviousGeneration) {
  CheckpointManager mgr(path("fb"));
  mgr.write(make_state(2, 2));
  mgr.write(make_state(4, 4));
  flip_byte(mgr.path_for_step(4), 80);

  const auto skipped = counter("ckpt.corrupt_skipped");
  const auto restored = mgr.restore_latest();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->step, 2u);
  EXPECT_EQ(counter("ckpt.corrupt_skipped"), skipped + 1);

  // With every generation corrupt there is nothing to restore.
  flip_byte(mgr.path_for_step(2), 80);
  EXPECT_FALSE(mgr.restore_latest().has_value());
}

/// ------------------------- legacy format ---------------------------------

TEST_F(CheckpointTest, LegacyFormatStillLoads) {
  auto sys = make_nacl_crystal(1);
  assign_maxwell_velocities(sys, 800.0, 11);

  // Hand-write the old bare "MDMCKPT1" dump: magic, n, box, pos, vel.
  {
    std::ofstream out(path("old.mdm"), std::ios::binary);
    const std::uint64_t magic = 0x4d444d434b505431ULL;
    const std::uint64_t n = sys.size();
    const double box = sys.box();
    out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
    out.write(reinterpret_cast<const char*>(&n), sizeof n);
    out.write(reinterpret_cast<const char*>(&box), sizeof box);
    out.write(reinterpret_cast<const char*>(sys.positions().data()),
              static_cast<std::streamoff>(n * sizeof(Vec3)));
    out.write(reinterpret_cast<const char*>(sys.velocities().data()),
              static_cast<std::streamoff>(n * sizeof(Vec3)));
  }
  const auto state = read_checkpoint_file(path("old.mdm"));
  EXPECT_EQ(state.version, 1u);
  EXPECT_TRUE(state.types.empty());  // v1 carries no species info

  auto target = make_nacl_crystal(1);
  load_checkpoint(path("old.mdm"), target);
  for (std::size_t i = 0; i < sys.size(); ++i) {
    EXPECT_EQ(target.positions()[i].x, sys.positions()[i].x) << i;
    EXPECT_EQ(target.velocities()[i].z, sys.velocities()[i].z) << i;
  }
}

/// ------------------------- serial restart --------------------------------

std::unique_ptr<CompositeForceField> nacl_force_field(
    const ParticleSystem& sys) {
  auto field = std::make_unique<CompositeForceField>();
  const auto params = software_parameters(sys.size(), sys.box(), {3.6, 3.8});
  field->add(std::make_unique<EwaldCoulomb>(params, sys.box()));
  field->add(std::make_unique<TosiFumiShortRange>(TosiFumiParameters::nacl(),
                                                  params.r_cut,
                                                  /*shift_energy=*/true));
  return field;
}

TEST_F(CheckpointTest, SerialRestartContinuesBitIdentically) {
  const auto initial = [] {
    auto sys = make_nacl_crystal(2);
    assign_maxwell_velocities(sys, 1200.0, 42);
    return sys;
  }();
  SimulationConfig cfg;
  cfg.nvt_steps = 4;
  cfg.nve_steps = 4;

  // Uninterrupted baseline.
  auto sys_a = initial;
  auto field_a = nacl_force_field(sys_a);
  Simulation baseline(sys_a, *field_a, cfg);
  baseline.run();

  // Same run with checkpointing on: must not perturb the trajectory.
  CheckpointManager mgr(path("serial"));
  auto sys_b = initial;
  auto field_b = nacl_force_field(sys_b);
  Simulation checkpointed(sys_b, *field_b, cfg);
  run_checkpointed(checkpointed, mgr, /*interval=*/2);
  ASSERT_TRUE(fs::exists(mgr.path_for_step(4)));

  // Kill-and-resume: a fresh Simulation restored from the step-4 generation
  // must land on bit-identical final positions AND velocities.
  auto sys_c = initial;
  auto field_c = nacl_force_field(sys_c);
  Simulation resumed(sys_c, *field_c, cfg);
  resumed.restore(read_checkpoint_file(mgr.path_for_step(4)));
  resumed.run();

  for (std::size_t i = 0; i < sys_a.size(); ++i) {
    EXPECT_EQ(sys_b.positions()[i].x, sys_a.positions()[i].x) << i;
    EXPECT_EQ(sys_c.positions()[i].x, sys_a.positions()[i].x) << i;
    EXPECT_EQ(sys_c.positions()[i].y, sys_a.positions()[i].y) << i;
    EXPECT_EQ(sys_c.positions()[i].z, sys_a.positions()[i].z) << i;
    EXPECT_EQ(sys_c.velocities()[i].x, sys_a.velocities()[i].x) << i;
    EXPECT_EQ(sys_c.velocities()[i].y, sys_a.velocities()[i].y) << i;
    EXPECT_EQ(sys_c.velocities()[i].z, sys_a.velocities()[i].z) << i;
  }
  // The thermostat accumulators continue across the restart too.
  EXPECT_EQ(resumed.thermostat().state().applications,
            baseline.thermostat().state().applications);
  EXPECT_EQ(resumed.thermostat().state().work_eV,
            baseline.thermostat().state().work_eV);
  // The resumed run only holds samples from after the restore point.
  EXPECT_EQ(resumed.samples().front().step, 5);
}

/// NPT restart (format v3): the barostat block — volume-move RNG stream,
/// acceptance counters, drifted box — must restore so a killed NPT run
/// continues bit-identically. Monte-Carlo volume moves are the hard case:
/// one lost RNG draw desynchronizes every subsequent accept/reject.
TEST_F(CheckpointTest, NptMonteCarloRestartContinuesBitIdentically) {
  const auto initial = [] {
    auto sys = make_nacl_crystal(2);
    assign_maxwell_velocities(sys, 1200.0, 7);
    return sys;
  }();
  SimulationConfig cfg;
  cfg.nvt_steps = 8;  // thermostat throughout: the scenario NPT protocol
  cfg.nve_steps = 0;
  const auto make_barostat = [] {
    return MonteCarloBarostat(/*target_GPa=*/2.0, /*temperature_K=*/1200.0,
                              /*max_frac_dv=*/0.05, /*seed=*/99);
  };

  // Uninterrupted baseline.
  auto sys_a = initial;
  auto field_a = nacl_force_field(sys_a);
  Simulation baseline(sys_a, *field_a, cfg);
  auto baro_a = make_barostat();
  baseline.set_barostat(&baro_a, /*interval=*/2);
  baseline.run();
  ASSERT_GE(baro_a.state().attempts, 4u);  // the moves actually happened

  // Checkpointed run, killed (stopped) after step 4.
  CheckpointManager mgr(path("npt"));
  auto sys_b = initial;
  auto field_b = nacl_force_field(sys_b);
  Simulation first_half(sys_b, *field_b, cfg);
  auto baro_b = make_barostat();
  first_half.set_barostat(&baro_b, /*interval=*/2);
  run_checkpointed(first_half, mgr, /*interval=*/4);
  const auto state = read_checkpoint_file(mgr.path_for_step(4));
  EXPECT_EQ(state.version, kCheckpointVersion);

  // Resume into fresh objects: box, positions, thermostat AND barostat
  // (counters + RNG stream position) all come from the checkpoint.
  auto sys_c = initial;
  auto field_c = nacl_force_field(sys_c);
  Simulation resumed(sys_c, *field_c, cfg);
  auto baro_c = make_barostat();
  resumed.set_barostat(&baro_c, /*interval=*/2);
  resumed.restore(state);
  resumed.run();

  EXPECT_EQ(sys_c.box(), sys_a.box());
  for (std::size_t i = 0; i < sys_a.size(); ++i) {
    EXPECT_EQ(sys_c.positions()[i].x, sys_a.positions()[i].x) << i;
    EXPECT_EQ(sys_c.positions()[i].y, sys_a.positions()[i].y) << i;
    EXPECT_EQ(sys_c.positions()[i].z, sys_a.positions()[i].z) << i;
    EXPECT_EQ(sys_c.velocities()[i].x, sys_a.velocities()[i].x) << i;
    EXPECT_EQ(sys_c.velocities()[i].y, sys_a.velocities()[i].y) << i;
    EXPECT_EQ(sys_c.velocities()[i].z, sys_a.velocities()[i].z) << i;
  }
  EXPECT_EQ(baro_c.state().applications, baro_a.state().applications);
  EXPECT_EQ(baro_c.state().attempts, baro_a.state().attempts);
  EXPECT_EQ(baro_c.state().accepts, baro_a.state().accepts);
  EXPECT_EQ(baro_c.state().last_scale, baro_a.state().last_scale);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(baro_c.state().rng.s[i], baro_a.state().rng.s[i]);
}

/// Same restart contract for the Berendsen barostat (no RNG, but the box
/// drift and counters must still survive the restore).
TEST_F(CheckpointTest, NptBerendsenRestartContinuesBitIdentically) {
  const auto initial = [] {
    auto sys = make_nacl_crystal(2);
    assign_maxwell_velocities(sys, 1200.0, 21);
    return sys;
  }();
  SimulationConfig cfg;
  cfg.nvt_steps = 8;
  cfg.nve_steps = 0;

  auto sys_a = initial;
  auto field_a = nacl_force_field(sys_a);
  Simulation baseline(sys_a, *field_a, cfg);
  BerendsenBarostat baro_a(1.0, 300.0, 0.05);
  baseline.set_barostat(&baro_a, /*interval=*/2);
  baseline.run();
  ASSERT_NE(sys_a.box(), initial.box());  // the coupling moved the box

  CheckpointManager mgr(path("npt_berendsen"));
  auto sys_b = initial;
  auto field_b = nacl_force_field(sys_b);
  Simulation first_half(sys_b, *field_b, cfg);
  BerendsenBarostat baro_b(1.0, 300.0, 0.05);
  first_half.set_barostat(&baro_b, /*interval=*/2);
  run_checkpointed(first_half, mgr, /*interval=*/4);

  auto sys_c = initial;
  auto field_c = nacl_force_field(sys_c);
  Simulation resumed(sys_c, *field_c, cfg);
  BerendsenBarostat baro_c(1.0, 300.0, 0.05);
  resumed.set_barostat(&baro_c, /*interval=*/2);
  resumed.restore(read_checkpoint_file(mgr.path_for_step(4)));
  resumed.run();

  EXPECT_EQ(sys_c.box(), sys_a.box());
  for (std::size_t i = 0; i < sys_a.size(); ++i) {
    EXPECT_EQ(sys_c.positions()[i].x, sys_a.positions()[i].x) << i;
    EXPECT_EQ(sys_c.velocities()[i].x, sys_a.velocities()[i].x) << i;
  }
  EXPECT_EQ(baro_c.state().applications, baro_a.state().applications);
  EXPECT_EQ(baro_c.state().last_scale, baro_a.state().last_scale);
  ASSERT_FALSE(baro_c.state().box_history.empty());
  EXPECT_EQ(baro_c.state().box_history.back(),
            baro_a.state().box_history.back());
}

/// Regression (ISSUE 8): restoring into a LIVE native-backend Simulation
/// must invalidate the real-space kernel's lazy cell-list anchor. Before
/// the fix the half-skin displacement test compared the restored positions
/// against the dead trajectory's anchor and could skip the rebuild, leaving
/// the traversal (and therefore the floating-point summation order) keyed
/// to stale binning — forces were no longer bit-identical to a fresh build.
TEST_F(CheckpointTest, NativeRestoreIntoLiveSimulationMatchesFreshBuild) {
  const auto initial = [] {
    auto sys = make_nacl_crystal(2);
    assign_maxwell_velocities(sys, 1200.0, 42);
    return sys;
  }();
  const auto params = host::mdm_parameters(double(initial.size()),
                                           initial.box());
  native::NativeForceFieldConfig ncfg;
  ncfg.ewald = params;
  SimulationConfig cfg;
  cfg.nvt_steps = 4;
  cfg.nve_steps = 4;

  // Run to completion once, checkpointing at step 4; the kernel's cell-list
  // anchor now belongs to the end of that trajectory.
  CheckpointManager mgr(path("native"));
  auto sys_a = initial;
  native::NativeForceField field_a(ncfg, sys_a.box());
  Simulation sim_a(sys_a, field_a, cfg);
  run_checkpointed(sim_a, mgr, /*interval=*/4);
  ASSERT_TRUE(fs::exists(mgr.path_for_step(4)));

  // Restore INTO the same live Simulation (the auto-recovery pattern) and
  // finish the run with its now-stale kernel state...
  sim_a.restore(read_checkpoint_file(mgr.path_for_step(4)));
  sim_a.run();

  // ...and from a fresh Simulation + fresh force field. Same file, same
  // remaining steps: positions, velocities and cached forces must agree
  // bit-for-bit.
  auto sys_b = initial;
  native::NativeForceField field_b(ncfg, sys_b.box());
  Simulation sim_b(sys_b, field_b, cfg);
  sim_b.restore(read_checkpoint_file(mgr.path_for_step(4)));
  sim_b.run();

  ASSERT_EQ(sys_a.size(), sys_b.size());
  for (std::size_t i = 0; i < sys_a.size(); ++i) {
    EXPECT_EQ(sys_a.positions()[i].x, sys_b.positions()[i].x) << i;
    EXPECT_EQ(sys_a.positions()[i].y, sys_b.positions()[i].y) << i;
    EXPECT_EQ(sys_a.positions()[i].z, sys_b.positions()[i].z) << i;
    EXPECT_EQ(sys_a.velocities()[i].x, sys_b.velocities()[i].x) << i;
  }
  // sim_a keeps its pre-restore samples and appends the resumed ones; only
  // the post-restore tail must match sim_b's records exactly.
  ASSERT_GE(sim_a.samples().size(), sim_b.samples().size());
  EXPECT_EQ(sim_a.samples().back().step, sim_b.samples().back().step);
  EXPECT_EQ(sim_a.samples().back().potential_eV,
            sim_b.samples().back().potential_eV);
}

/// ------------------------- job-resume manifests --------------------------

Sample make_sample(int step) {
  Sample s;
  s.step = step;
  s.time_ps = double(step) * 2e-3;
  s.temperature_K = 1200.0 + step;
  s.kinetic_eV = 0.25 * step;
  s.potential_eV = -100.0 - step;
  s.total_eV = s.kinetic_eV + s.potential_eV;
  s.pressure_GPa = 0.5 + 0.01 * step;
  return s;
}

JobResumeManifest make_manifest(std::uint64_t step, std::uint64_t key) {
  JobResumeManifest m;
  m.job_key = key;
  m.step = step;
  m.total_steps = 20;
  for (int i = 1; i <= int(step); ++i) m.samples.push_back(make_sample(i));
  return m;
}

/// Write the (checkpoint, manifest) pair a fleet shard would leave at
/// `step` — checkpoint first, manifest second, same order as the runner.
void write_pair(const fs::path& dir, std::uint64_t step, std::uint64_t key,
                int keep = 3) {
  CheckpointManager checkpoints(dir.string(), keep);
  checkpoints.write(make_state(step, step));
  ManifestStore manifests(dir.string(), keep);
  manifests.write(make_manifest(step, key));
}

TEST_F(CheckpointTest, ManifestRoundTripPreservesEveryFieldBitwise) {
  const auto writes = counter("ckpt.manifest.writes");
  const auto restores = counter("ckpt.manifest.restores");
  const auto m = make_manifest(6, 0xfeedULL);
  write_manifest_file(path("m.mdm"), m);
  const auto loaded = read_manifest_file(path("m.mdm"));
  EXPECT_EQ(loaded.version, kManifestVersion);
  EXPECT_EQ(loaded.job_key, m.job_key);
  EXPECT_EQ(loaded.step, m.step);
  EXPECT_EQ(loaded.total_steps, m.total_steps);
  ASSERT_EQ(loaded.samples.size(), m.samples.size());
  for (std::size_t i = 0; i < m.samples.size(); ++i) {
    EXPECT_EQ(loaded.samples[i].step, m.samples[i].step);
    EXPECT_EQ(loaded.samples[i].time_ps, m.samples[i].time_ps);
    EXPECT_EQ(loaded.samples[i].temperature_K, m.samples[i].temperature_K);
    EXPECT_EQ(loaded.samples[i].kinetic_eV, m.samples[i].kinetic_eV);
    EXPECT_EQ(loaded.samples[i].potential_eV, m.samples[i].potential_eV);
    EXPECT_EQ(loaded.samples[i].total_eV, m.samples[i].total_eV);
    EXPECT_EQ(loaded.samples[i].pressure_GPa, m.samples[i].pressure_GPa);
  }
  EXPECT_EQ(counter("ckpt.manifest.writes"), writes + 1);
  EXPECT_EQ(counter("ckpt.manifest.restores"), restores + 1);
}

TEST_F(CheckpointTest, ManifestStoreRotatesLikeCheckpoints) {
  ManifestStore store(path("rot"), /*keep_generations=*/2);
  for (std::uint64_t step : {2, 4, 6}) store.write(make_manifest(step, 1));
  const auto gens = store.generations();
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0], store.path_for_step(4));
  EXPECT_EQ(gens[1], store.path_for_step(6));
  EXPECT_FALSE(fs::exists(store.path_for_step(2)));
  const auto latest = store.restore_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->step, 6u);
}

TEST_F(CheckpointTest, ManifestWriteFailpointLeavesOldGenerationIntact) {
  ManifestStore store(path("enospc"));
  store.write(make_manifest(2, 1));
  checkpoint_fail_next_writes_for_testing(1);
  EXPECT_THROW(store.write(make_manifest(4, 1)), CheckpointError);
  checkpoint_fail_next_writes_for_testing(0);
  // No half-written file joined the rotation; the old generation survives.
  EXPECT_FALSE(fs::exists(store.path_for_step(4) + ".tmp"));
  const auto latest = store.restore_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->step, 2u);
}

TEST_F(CheckpointTest, ResumePointPairsNewestValidManifestAndCheckpoint) {
  write_pair(dir_ / "pair", 2, 0xabcULL);
  write_pair(dir_ / "pair", 4, 0xabcULL);
  const auto rp = find_resume_point((dir_ / "pair").string(), 0xabcULL,
                                    make_state(4, 4).positions.size());
  ASSERT_TRUE(rp.has_value());
  EXPECT_EQ(rp->state.step, 4u);
  EXPECT_EQ(rp->manifest.step, 4u);
  EXPECT_EQ(rp->manifest.samples.size(), 4u);
}

/// The mid-migration kill scenario (ISSUE 9 satellite): the newest manifest
/// generation is CRC-corrupt (or truncated), so the resume walks back to
/// the older intact (checkpoint, manifest) pair instead of failing.
TEST_F(CheckpointTest, CorruptNewestManifestFallsBackToOlderPair) {
  const fs::path d = dir_ / "fb";
  write_pair(d, 2, 7);
  write_pair(d, 4, 7);
  ManifestStore store(d.string());
  flip_byte(store.path_for_step(4).c_str(), 40);

  const auto skipped = counter("ckpt.manifest.corrupt_skipped");
  const auto rp = find_resume_point(d.string(), 7);
  ASSERT_TRUE(rp.has_value());
  EXPECT_EQ(rp->state.step, 2u);
  EXPECT_EQ(rp->manifest.step, 2u);
  EXPECT_GE(counter("ckpt.manifest.corrupt_skipped"), skipped + 1);
}

TEST_F(CheckpointTest, TruncatedNewestManifestFallsBackToOlderPair) {
  const fs::path d = dir_ / "trunc";
  write_pair(d, 2, 7);
  write_pair(d, 4, 7);
  ManifestStore store(d.string());
  // Truncate mid-payload: exactly what a kill -9 between write and rename
  // fsyncs can leave behind on a non-journaling filesystem.
  fs::resize_file(store.path_for_step(4), 24);
  const auto rp = find_resume_point(d.string(), 7);
  ASSERT_TRUE(rp.has_value());
  EXPECT_EQ(rp->state.step, 2u);
}

/// The other half of the pair can be the torn one: a valid newest manifest
/// whose same-step checkpoint is corrupt/pruned must also walk back.
TEST_F(CheckpointTest, CorruptNewestCheckpointFallsBackToOlderPair) {
  const fs::path d = dir_ / "ckfb";
  write_pair(d, 2, 7);
  write_pair(d, 4, 7);
  CheckpointManager checkpoints(d.string());
  flip_byte(checkpoints.path_for_step(4).c_str(), 80);
  const auto rp = find_resume_point(d.string(), 7);
  ASSERT_TRUE(rp.has_value());
  EXPECT_EQ(rp->state.step, 2u);

  fs::remove(checkpoints.path_for_step(2));  // now no pair is left
  EXPECT_FALSE(find_resume_point(d.string(), 7).has_value());
}

TEST_F(CheckpointTest, ResumePointEnforcesJobKeyAndParticleCount) {
  const fs::path d = dir_ / "key";
  write_pair(d, 2, /*key=*/11);
  // A different job's key never resumes this directory's state.
  EXPECT_FALSE(find_resume_point(d.string(), /*expected_key=*/22).has_value());
  // Key 0 = not enforced.
  EXPECT_TRUE(find_resume_point(d.string()).has_value());
  // Wrong particle count (a different `cells`) is rejected too.
  EXPECT_FALSE(find_resume_point(d.string(), 11, /*expected_particles=*/9999)
                   .has_value());
}

/// ------------------------- health watchdog -------------------------------

TEST_F(CheckpointTest, WatchdogRaisesOnInjectedNaN) {
  auto sys = make_nacl_crystal(2);
  assign_maxwell_velocities(sys, 1200.0, 3);
  auto field = nacl_force_field(sys);
  SimulationConfig cfg;
  cfg.nvt_steps = 5;
  cfg.nve_steps = 0;
  Simulation sim(sys, *field, cfg);

  const auto violations = counter("health.violations");
  try {
    sim.run([&](const Sample& s) {
      if (s.step == 2)
        sys.velocities()[3].x = std::numeric_limits<double>::quiet_NaN();
    });
    FAIL() << "expected the watchdog to fire";
  } catch (const SimulationHealthError& e) {
    EXPECT_EQ(e.kind(), SimulationHealthError::Kind::kNonFinite);
    EXPECT_EQ(e.step(), 2);
    EXPECT_EQ(e.particle(), 3);
    EXPECT_NE(std::string(e.what()).find("velocity"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(counter("health.violations"), violations + 1);
}

TEST_F(CheckpointTest, WatchdogRaisesOnTemperatureExplosion) {
  auto sys = make_nacl_crystal(2);
  assign_maxwell_velocities(sys, 1200.0, 3);
  auto field = nacl_force_field(sys);
  SimulationConfig cfg;
  cfg.nvt_steps = 5;
  cfg.nve_steps = 0;
  cfg.health.max_temperature_K = 1.0;  // ~1200 K run: trips immediately
  Simulation sim(sys, *field, cfg);
  try {
    sim.run();
    FAIL() << "expected the watchdog to fire";
  } catch (const SimulationHealthError& e) {
    EXPECT_EQ(e.kind(), SimulationHealthError::Kind::kTemperature);
    EXPECT_EQ(e.particle(), -1);
  }
}

TEST(HealthMonitor, EnergyDriftReferenceAndTolerance) {
  HealthConfig cfg;
  cfg.max_energy_drift = 1e-6;
  HealthMonitor monitor(cfg);
  monitor.observe_energy(-100.0, 10);      // sets the reference
  monitor.observe_energy(-100.00001, 11);  // 1e-7 relative: fine
  try {
    monitor.observe_energy(-101.0, 12);  // 1e-2 relative: violation
    FAIL() << "expected a drift violation";
  } catch (const SimulationHealthError& e) {
    EXPECT_EQ(e.kind(), SimulationHealthError::Kind::kEnergyDrift);
    EXPECT_EQ(e.step(), 12);
  }
  monitor.reset_energy_reference();
  monitor.observe_energy(-101.0, 13);  // new reference after reset
}

/// ------------------------- parallel restart ------------------------------

ParticleSystem initial_state(int n_cells, std::uint64_t seed) {
  auto sys = make_nacl_crystal(n_cells);
  assign_maxwell_velocities(sys, 1200.0, seed);
  return sys;
}

host::ParallelAppConfig app_config(const ParticleSystem& sys, int real,
                                   int wn, int nvt, int nve) {
  host::ParallelAppConfig cfg;
  cfg.real_processes = real;
  cfg.wn_processes = wn;
  cfg.protocol.nvt_steps = nvt;
  cfg.protocol.nve_steps = nve;
  cfg.ewald = host::mdm_parameters(double(sys.size()), sys.box());
  cfg.mdgrape_boards_per_process = 2;
  cfg.wine_boards_per_process = 1;
  return cfg;
}

void expect_bitwise_equal(const host::ParallelRunResult& a,
                          const host::ParallelRunResult& b) {
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < b.positions.size(); ++i) {
    EXPECT_EQ(a.positions[i].x, b.positions[i].x) << i;
    EXPECT_EQ(a.positions[i].y, b.positions[i].y) << i;
    EXPECT_EQ(a.positions[i].z, b.positions[i].z) << i;
    EXPECT_EQ(a.velocities[i].x, b.velocities[i].x) << i;
    EXPECT_EQ(a.velocities[i].y, b.velocities[i].y) << i;
    EXPECT_EQ(a.velocities[i].z, b.velocities[i].z) << i;
  }
}

/// The complete trajectory: an in-run recovery keeps the failed attempt's
/// samples through the restored step, so nothing is missing or repeated.
void expect_same_samples(const host::ParallelRunResult& a,
                         const host::ParallelRunResult& b) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < b.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].step, b.samples[i].step) << i;
    EXPECT_EQ(a.samples[i].temperature_K, b.samples[i].temperature_K) << i;
    EXPECT_EQ(a.samples[i].potential_eV, b.samples[i].potential_eV) << i;
    EXPECT_EQ(a.samples[i].total_eV, b.samples[i].total_eV) << i;
  }
}

TEST_F(CheckpointTest, ParallelKillAndAutoRecoverIsBitIdentical) {
  const auto sys = initial_state(2, 7);
  const auto cfg = app_config(sys, 4, 2, 2, 3);

  host::MdmParallelApp baseline_app(cfg);
  const auto baseline = baseline_app.run(sys);

  // Rank 2 dies at step 3, right after the step-2 checkpoint was written;
  // the app must restore it, rebuild the decomposition and finish on the
  // exact same trajectory.
  vmpi::FaultInjector injector;
  injector.add_rule({.kind = vmpi::FaultRule::Kind::kFailRank, .rank = 2,
                     .step = 3});
  auto faulty_cfg = cfg;
  faulty_cfg.fault_injector = &injector;
  faulty_cfg.checkpoint_dir = path("recover");
  faulty_cfg.checkpoint_interval = 2;
  faulty_cfg.auto_recover = true;
  faulty_cfg.max_recoveries = 2;
  const auto restores = counter("ckpt.restores");
  host::MdmParallelApp faulty_app(faulty_cfg);
  const auto recovered = faulty_app.run(sys);

  EXPECT_EQ(recovered.recoveries, 1);
  EXPECT_EQ(recovered.restored_from_step, 2u);
  EXPECT_GT(counter("ckpt.restores"), restores);
  expect_bitwise_equal(recovered, baseline);
  expect_same_samples(recovered, baseline);

  // --restore PATH: resuming a *fresh* app from an on-disk generation also
  // reproduces the uninterrupted run.
  CheckpointManager mgr(path("recover"));
  auto resume_cfg = cfg;
  resume_cfg.restore = read_checkpoint_file(mgr.path_for_step(2));
  host::MdmParallelApp resume_app(resume_cfg);
  const auto resumed = resume_app.run(sys);
  EXPECT_EQ(resumed.recoveries, 0);
  expect_bitwise_equal(resumed, baseline);
}

TEST_F(CheckpointTest, ParallelRecoveryWithoutCheckpointsRethrows) {
  const auto sys = initial_state(2, 7);
  auto cfg = app_config(sys, 4, 2, 2, 2);
  vmpi::FaultInjector injector;
  injector.add_rule({.kind = vmpi::FaultRule::Kind::kFailRank, .rank = 1,
                     .step = 1});
  cfg.fault_injector = &injector;
  cfg.auto_recover = true;  // no checkpoint_dir: nothing to restore from
  host::MdmParallelApp app(cfg);
  EXPECT_THROW(app.run(sys), std::runtime_error);
}

TEST_F(CheckpointTest, ParallelHealthViolationRollsBackAndHalts) {
  const auto sys = initial_state(2, 9);

  // Step-2 reference state: the same protocol stopped where the last good
  // checkpoint will be taken.
  auto short_cfg = app_config(sys, 4, 2, 2, 0);
  host::MdmParallelApp short_app(short_cfg);
  const auto at_step2 = short_app.run(sys);

  // An impossible drift tolerance guarantees a violation early in the NVE
  // phase — deterministic numerical garbage must NOT be retried, only
  // rolled back.
  auto cfg = app_config(sys, 4, 2, 2, 3);
  cfg.checkpoint_dir = path("rollback");
  cfg.checkpoint_interval = 2;
  cfg.auto_recover = true;  // must not be consulted for health errors
  cfg.rollback_on_health_error = true;
  cfg.health.max_energy_drift = 1e-18;
  host::MdmParallelApp app(cfg);
  const auto result = app.run(sys);

  EXPECT_TRUE(result.halted_on_health);
  EXPECT_EQ(result.recoveries, 0);
  EXPECT_EQ(result.restored_from_step, 2u);
  EXPECT_NE(result.health_message.find("energy drift"), std::string::npos)
      << result.health_message;
  expect_bitwise_equal(result, at_step2);
}

TEST_F(CheckpointTest, Acceptance24RankKillResumeIsBitIdentical) {
  // The paper's full 16 + 8 process layout: kill a rank mid-run and the
  // auto-restored run must finish bit-identical to the uninterrupted one.
  const auto sys = initial_state(3, 13);
  const auto cfg = app_config(sys, 16, 8, 2, 3);

  host::MdmParallelApp baseline_app(cfg);
  const auto baseline = baseline_app.run(sys);

  vmpi::FaultInjector injector;
  injector.add_rule({.kind = vmpi::FaultRule::Kind::kFailRank, .rank = 5,
                     .step = 3});
  auto faulty_cfg = cfg;
  faulty_cfg.fault_injector = &injector;
  faulty_cfg.checkpoint_dir = path("accept");
  faulty_cfg.checkpoint_interval = 2;
  faulty_cfg.auto_recover = true;
  host::MdmParallelApp faulty_app(faulty_cfg);
  const auto recovered = faulty_app.run(sys);

  EXPECT_EQ(recovered.recoveries, 1);
  EXPECT_EQ(recovered.restored_from_step, 2u);
  expect_bitwise_equal(recovered, baseline);
  expect_same_samples(recovered, baseline);
}

}  // namespace
}  // namespace mdm
