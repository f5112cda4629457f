#include "host/parallel_app.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numbers>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "host/distributed_pme.hpp"
#include "host/fault_injector.hpp"
#include "host/vmpi.hpp"
#include "host/wine2_mpi.hpp"
#include "mdgrape2/gtables.hpp"
#include "native/native_force_field.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/logger.hpp"
#include "obs/metrics.hpp"
#include "obs/step_breakdown.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "util/units.hpp"

namespace mdm::host {
namespace {

/// Message tags (sec. 4 communication patterns). Must avoid the collective
/// ranges of vmpi and the 7001+ tags of the WINE-2 MPI library.
enum Tag : int {
  kScatter = 100,
  kHalo = 200,
  kToWine = 300,
  kFromWine = 400,
  kWineEnergy = 450,
  kMigrate = 500,
};

/// One particle as it travels between processes.
struct PRec {
  std::uint32_t id = 0;
  std::int32_t type = 0;
  Vec3 pos{};
  Vec3 vel{};
  Vec3 force{};
};
static_assert(std::is_trivially_copyable_v<PRec>);

/// Compact record shipped to the wavenumber processes. A wavenumber rank
/// returns one force per record, in the order it received them.
struct WnRec {
  std::int32_t type = 0;
  Vec3 pos{};
};
static_assert(std::is_trivially_copyable_v<WnRec>);

/// Thrown by the first real rank to see the cancel flag.
class ParallelCancelled : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Rank 0's record of the run; it outlives the epochs (recovery rewinds it).
struct Progress {
  std::vector<Sample> samples;
  int completed_step = 0;
  int streamed_step = -1;

  void rewind_to(int step) {
    std::erase_if(samples, [step](const Sample& s) { return s.step > step; });
    completed_step = step;
  }
};

/// Immutable data shared by all ranks (read-only after construction).
struct Shared {
  ParallelAppConfig config;
  double box = 0.0;
  std::size_t n_particles = 0;
  std::vector<Species> species;
  std::vector<double> charge_of_type;  ///< species charges, e
  std::vector<int> real_ranks, wn_ranks;  ///< world ranks of each group
  std::vector<PRec> initial;  // full initial state
  double self_energy = 0.0;
  double background_energy = 0.0;
  int total_steps = 0;
  vmpi::FaultInjector* injector = nullptr;  ///< not owned; may be null

  // Checkpoint/restart wiring (DESIGN.md §8). `initial` and `start_step`
  // are rewritten between recovery attempts; threads are joined in between,
  // so the mutation is race-free.
  int start_step = 0;                      ///< resume after this step
  CheckpointManager* checkpoint = nullptr; ///< not owned; may be null
  Progress* progress = nullptr;            ///< written by rank 0 only
};

/// Cooperative cancel, polled by every real rank at each step boundary. The
/// first rank to observe the flag unwinds (poisoning the fabric wakes any
/// blocked peer); World::run rethrows the ParallelCancelled.
void maybe_cancel(const Shared& shared, int rank, int step) {
  if (shared.config.cancel &&
      shared.config.cancel->load(std::memory_order_relaxed)) {
    obs::FlightRecorder::record(obs::FlightKind::kNote, "cancelled", step,
                                rank);
    throw ParallelCancelled("parallel app cancelled at step " +
                            std::to_string(step));
  }
}

double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(obs::Trace::now_ns() - start_ns) * 1e-6;
}

/// Flight-recorder dump next to the checkpoints (DESIGN.md §10): the last
/// ~512 events per thread — steps, sends/recvs, health samples, checkpoint
/// generations — for the postmortem of a failed run. Requires a checkpoint
/// directory ("alongside the latest checkpoint"); without one the events
/// stay in memory.
void dump_flight(const ParallelAppConfig& config, const char* reason) {
  if (!obs::FlightRecorder::enabled() || config.checkpoint_dir.empty())
    return;
  const std::string path =
      config.checkpoint_dir + "/flight_" + reason + ".json";
  if (obs::FlightRecorder::write_json_file(path)) {
    MDM_LOG_WARN("parallel: flight recorder dumped to %s (%llu events "
                 "recorded)",
                 path.c_str(),
                 static_cast<unsigned long long>(
                     obs::FlightRecorder::recorded_count()));
  }
}

/// ---------------- rank engines ------------------------------------------
/// Each rank role of sec. 4 runs one loop; what differs between backends and
/// k-space solvers sits behind these two engines, picked by make_engines.

class RealEngine {
 public:
  virtual ~RealEngine() = default;
  /// Assigns forces[0, n_owned) for the owned particles, listed first in
  /// `positions` before the halo (`forces` is sized like `positions`, its
  /// tail is scratch). Returns the owned particles' potential; pair
  /// energies are halved, as every pair is seen from both sides.
  virtual double compute(std::span<const Vec3> positions,
                         std::span<const int> types, std::size_t n_owned,
                         std::span<Vec3> forces) = 0;
  /// Injected loss of one board; engines without boards ignore it.
  virtual void fail_board(int /*board*/, int /*rank*/, int /*step*/) {}
};

/// Emulator: the MDGRAPE-2 force and potential passes (sec. 3.5). The
/// engine owns the rank's boards, so it also takes their failures.
class MdgrapeRealEngine final : public RealEngine {
 public:
  explicit MdgrapeRealEngine(const Shared& shared)
      : shared_(shared),
        mdgrape_({.clusters = shared.config.mdgrape_boards_per_process,
                  .boards_per_cluster = 1}),
        passes_(mdgrape2::make_real_space_passes(
            shared.config.ewald.alpha / shared.box, shared.config.ewald.r_cut,
            shared.charge_of_type, shared.config.include_tosi_fumi,
            shared.config.tosi_fumi)) {}

  double compute(std::span<const Vec3> positions, std::span<const int> types,
                 std::size_t n_owned, std::span<Vec3> forces) override {
    ParticleSystem local(shared_.box);
    for (const auto& s : shared_.species) local.add_species(s);
    for (std::size_t i = 0; i < positions.size(); ++i)
      local.add_particle(types[i], positions[i]);
    std::fill(forces.begin(), forces.end(), Vec3{});
    pot_.assign(local.size(), 0.0);
    if (local.size() > 0) {
      mdgrape_.load_particles(local, shared_.config.ewald.r_cut);
      for (const auto& pass : passes_.force)
        mdgrape_.run_force_pass(pass, forces);
      for (const auto& pass : passes_.potential)
        mdgrape_.run_potential_pass(pass, pot_);
    }
    double potential = 0.0;
    for (std::size_t i = 0; i < n_owned; ++i) potential += 0.5 * pot_[i];
    return potential;
  }

  void fail_board(int board, int rank, int step) override {
    if (board >= mdgrape_.board_count() || mdgrape_.board_failed(board))
      return;
    MDM_LOG_WARN(
        "parallel: rank %d loses MDGRAPE-2 board %d at step %d; degrading "
        "to %d boards",
        rank, board, step, mdgrape_.alive_board_count() - 1);
    mdgrape_.fail_board(board);
    static obs::Counter& failures =
        obs::Registry::global().counter("parallel.board_failures");
    failures.add(1);
  }

 private:
  const Shared& shared_;
  mdgrape2::Mdgrape2System mdgrape_;
  mdgrape2::RealSpacePasses passes_;
  std::vector<double> pot_;
};

/// Native (DESIGN.md §11): one fused one-sided sweep over owned + halo
/// gives forces and potential.
class NativeRealEngine final : public RealEngine {
 public:
  explicit NativeRealEngine(const Shared& shared)
      : shared_(shared),
        kernel_(native::real_kernel_config(
            {.ewald = shared.config.ewald,
             .include_tosi_fumi = shared.config.include_tosi_fumi,
             .tosi_fumi = shared.config.tosi_fumi},
            shared.box)) {}

  double compute(std::span<const Vec3> positions, std::span<const int> types,
                 std::size_t n_owned, std::span<Vec3> forces) override {
    soa_.sync(shared_.box, positions, types, shared_.charge_of_type);
    std::fill(forces.begin(), forces.end(), Vec3{});
    if (soa_.size() == 0) return 0.0;
    return 0.5 * kernel_.one_sided(soa_, n_owned, forces).potential;
  }

 private:
  const Shared& shared_;
  native::NativeRealKernel kernel_;
  native::SoaParticles soa_;
};

class KspaceEngine {
 public:
  virtual ~KspaceEngine() = default;
  /// Collective over the wavenumber group: reciprocal forces on this rank's
  /// particles (`forces` resized to match) and the global reciprocal energy.
  virtual double compute(std::span<const Vec3> positions,
                         std::span<const int> types,
                         std::vector<Vec3>& forces) = 0;
};

/// Emulator structure factors: the MPI-parallel WINE-2 library of Table 2,
/// which allreduces the structure factors internally.
class Wine2Kspace final : public KspaceEngine {
 public:
  Wine2Kspace(const Shared& shared, const vmpi::Communicator& wn_comm)
      : shared_(shared),
        wn_comm_(wn_comm),
        kvectors_(shared.box, shared.config.ewald.alpha,
                  shared.config.ewald.lk_cut) {
    lib_.wine2_set_MPI_community(&wn_comm_);
    lib_.wine2_allocate_board(shared.config.wine_boards_per_process);
    lib_.wine2_initialize_board();
  }
  Wine2Kspace(const Wine2Kspace&) = delete;  // lib_ points at wn_comm_
  Wine2Kspace& operator=(const Wine2Kspace&) = delete;

  double compute(std::span<const Vec3> positions, std::span<const int> types,
                 std::vector<Vec3>& forces) override {
    charges_.resize(types.size());
    for (std::size_t i = 0; i < types.size(); ++i)
      charges_[i] = shared_.charge_of_type[types[i]];
    forces.assign(positions.size(), Vec3{});
    return lib_.calculate_force_and_pot_wavepart_nooffset(
        positions, charges_, shared_.box, kvectors_, forces);
  }

 private:
  const Shared& shared_;
  vmpi::Communicator wn_comm_;  ///< the library keeps a pointer to it
  KVectorTable kvectors_;
  Wine2MpiLibrary lib_;
  std::vector<double> charges_;
};

/// Native structure factors (DESIGN.md §11): the vectorized NativeKspace
/// DFT on the local slice, an explicit allreduce over the wavenumber group
/// (the WINE-2 library's internal reduction), then the IDFT.
class NativeSfKspace final : public KspaceEngine {
 public:
  NativeSfKspace(const Shared& shared, const vmpi::Communicator& wn_comm)
      : shared_(shared),
        wn_comm_(wn_comm),
        kspace_(KVectorTable(shared.box, shared.config.ewald.alpha,
                             shared.config.ewald.lk_cut)) {}

  double compute(std::span<const Vec3> positions, std::span<const int> types,
                 std::vector<Vec3>& forces) override {
    soa_.sync(shared_.box, positions, types, shared_.charge_of_type);
    kspace_.dft(soa_, sf_);
    {
      obs::ScopedPhase comm_phase(obs::Phase::kComm);
      MDM_TRACE_SCOPE("parallel.sf_allreduce");
      // Tags above the WINE-2 library's 7001+.
      wn_comm_.allreduce_sum(sf_.s, 7101);
      wn_comm_.allreduce_sum(sf_.c, 7103);
    }
    forces.assign(positions.size(), Vec3{});
    kspace_.idft(soa_, sf_, forces);
    return kspace_.energy_virial(sf_).potential;
  }

 private:
  const Shared& shared_;
  vmpi::Communicator wn_comm_;
  native::NativeKspace kspace_;
  native::SoaParticles soa_;
  StructureFactors sf_;
};

/// Distributed PME (DESIGN.md §12): the slab-decomposed mesh engine.
class PmeKspace final : public KspaceEngine {
 public:
  PmeKspace(const Shared& shared, const vmpi::Communicator& wn_comm)
      : shared_(shared),
        pme_(validated_pme(resolved_pme(shared.config), shared.box),
             shared.box, wn_comm) {}

  double compute(std::span<const Vec3> positions, std::span<const int> types,
                 std::vector<Vec3>& forces) override {
    charges_.resize(types.size());
    for (std::size_t i = 0; i < types.size(); ++i)
      charges_[i] = shared_.charge_of_type[types[i]];
    return pme_.step(positions, charges_, forces);
  }

 private:
  const Shared& shared_;
  DistributedPmeRank pme_;
  std::vector<double> charges_;
};

/// Wavenumber rank of a particle, from its global id and position.
using WnRoute = std::function<int(std::uint32_t id, const Vec3& pos)>;

struct RankEngines {
  std::unique_ptr<RealEngine> real;      ///< real ranks only
  WnRoute route;                         ///< real ranks only
  std::unique_ptr<KspaceEngine> kspace;  ///< wavenumber ranks only
};

/// The one place `backend` and `kspace_solver` are read. A real rank gets
/// its real-space engine and the routing (by id for the structure-factor
/// solvers, by mesh plane for PME); a wavenumber rank its k-space engine
/// over the wavenumber subgroup.
RankEngines make_engines(const Shared& shared,
                         const vmpi::Communicator& comm) {
  const ParallelAppConfig& config = shared.config;
  const bool native = config.backend == Backend::kNative;
  const bool pme = config.kspace_solver == KspaceSolver::kPme;
  RankEngines engines;
  if (comm.rank() < config.real_processes) {
    if (native)
      engines.real = std::make_unique<NativeRealEngine>(shared);
    else
      engines.real = std::make_unique<MdgrapeRealEngine>(shared);
    if (pme) {
      // The owner of the base spreading plane, found as the spline kernel
      // finds it, so routing and spreading cannot disagree.
      const PmeParameters p = resolved_pme(config);
      engines.route = [layout = PmeSlabLayout::create(p.grid, p.order,
                                                      config.wn_processes),
                       box = shared.box](std::uint32_t, const Vec3& pos) {
        return layout.route(pos.z, box);
      };
    } else {
      engines.route = [w = static_cast<std::uint32_t>(config.wn_processes)](
                          std::uint32_t id, const Vec3&) {
        return static_cast<int>(id % w);
      };
    }
    return engines;
  }
  const vmpi::Communicator wn_comm = comm.subgroup(shared.wn_ranks);
  if (pme)
    engines.kspace = std::make_unique<PmeKspace>(shared, wn_comm);
  else if (native)
    engines.kspace = std::make_unique<NativeSfKspace>(shared, wn_comm);
  else
    engines.kspace = std::make_unique<Wine2Kspace>(shared, wn_comm);
  return engines;
}

/// ---------------- wavenumber process ------------------------------------

/// One round per force evaluation (round k serves step k, from the resume or
/// initial priming pass on): receive one possibly empty batch from every
/// real rank, run the k-space engine, return each batch's forces in order.
void wavenumber_main(const Shared& shared, vmpi::Communicator& comm,
                     KspaceEngine& kspace) {
  const int R = shared.config.real_processes;
  std::vector<std::size_t> offset(R + 1, 0);  // r's batch: offset[r, r+1)
  std::vector<Vec3> positions;
  std::vector<int> types;
  std::vector<Vec3> forces;
  std::vector<Vec3> outgoing;
  for (int round = shared.start_step; round <= shared.total_steps; ++round) {
    // Coarse per-rank span (always compiled, unlike MDM_TRACE_SCOPE): the
    // merged job trace shows every rank's round cadence in Release too.
    obs::TraceSpan round_span("wn.round");
    positions.clear();
    types.clear();
    {
      obs::ScopedPhase comm_phase(obs::Phase::kComm);
      MDM_TRACE_SCOPE("parallel.wn_recv");
      for (int r = 0; r < R; ++r) {
        const auto batch = comm.recv<WnRec>(r, kToWine);
        offset[r + 1] = offset[r] + batch.size();
        for (const auto& rec : batch) {
          positions.push_back(rec.pos);
          types.push_back(rec.type);
        }
      }
    }
    // Fault poll after the recv: an injected death models a k-space rank
    // dying mid-compute, while its peers are inside the collective reduction
    // or mesh transform and surface PeerFailedError from it.
    if (shared.injector) shared.injector->fail_rank_if_due(comm.rank(), round);

    const double energy = kspace.compute(positions, types, forces);

    obs::ScopedPhase comm_phase(obs::Phase::kComm);
    MDM_TRACE_SCOPE("parallel.wn_send");
    for (int r = 0; r < R; ++r) {
      outgoing.assign(forces.data() + offset[r], forces.data() + offset[r + 1]);
      comm.send(r, kFromWine, outgoing);
    }
    if (comm.rank() == R) comm.send_value(0, kWineEnergy, energy);
  }
}

/// ---------------- real-space process -------------------------------------

class RealProcess {
 public:
  RealProcess(const Shared& shared, vmpi::Communicator& comm,
              RankEngines engines)
      : shared_(shared),
        comm_(comm),
        grid_(shared.config.domain_nx > 0
                  ? DomainGrid(shared.config.domain_nx,
                               shared.config.domain_ny,
                               shared.config.domain_nz, shared.box)
                  : DomainGrid::for_processes(shared.config.real_processes,
                                              shared.box)),
        real_comm_(comm.subgroup(shared.real_ranks)),
        real_(std::move(engines.real)),
        route_(std::move(engines.route)),
        buckets_(shared.config.real_processes),
        to_wine_(shared.config.wn_processes),
        sent_(shared.config.wn_processes) {}

  void main() {
    const int start = shared_.start_step;
    obs::FlightRecorder::record(obs::FlightKind::kPhase, "scatter", start);
    scatter_initial();
    apply_injected_faults(start);
    compute_forces();
    // Collective: every real rank joins the reductions. After a restore
    // the samples continue from start + 1.
    if (start == 0) record_sample(0);
    const auto& cfg = shared_.config.protocol;
    for (int step = start + 1; step <= shared_.total_steps; ++step) {
      // Coarse per-rank span (always compiled, unlike MDM_TRACE_SCOPE): the
      // merged job trace shows every rank's step cadence in Release too.
      obs::TraceSpan step_span("rank.step");
      obs::FlightRecorder::record(obs::FlightKind::kStep, nullptr, step);
      maybe_cancel(shared_, rank(), step);
      apply_injected_faults(step);
      half_kick();
      drift();
      migrate();
      compute_forces();
      half_kick();
      if (step <= cfg.nvt_steps && step % cfg.rescale_interval == 0)
        thermostat();
      check_health(step);
      if (step % cfg.sample_interval == 0) record_sample(step);
      if (rank() == 0) shared_.progress->completed_step = step;
      maybe_checkpoint(step);
    }
    obs::FlightRecorder::record(obs::FlightKind::kPhase, "gather",
                                shared_.total_steps);
    flush_rank_metrics();
    // Over the real-process subgroup only (the wavenumber ranks have
    // already finished their rounds).
    final_state = gather_state();
  }

  CheckpointState final_state;  // rank 0 only: positions/velocities by id

 private:
  int rank() const { return comm_.rank(); }
  int real_count() const { return shared_.config.real_processes; }
  int wn_count() const { return shared_.config.wn_processes; }

  /// Poll the fault injector at the top of each step: an injected rank
  /// failure throws (and poisons the fabric); an injected board failure
  /// goes to the real-space engine.
  void apply_injected_faults(int step) {
    auto* injector = shared_.injector;
    if (!injector) return;
    injector->fail_rank_if_due(rank(), step);
    const int board = injector->board_to_fail(rank(), step);
    if (board >= 0) real_->fail_board(board, rank(), step);
  }

  /// Sort `particles` into buckets_ by owning domain.
  void fill_buckets(const std::vector<PRec>& particles) {
    for (auto& bucket : buckets_) bucket.clear();
    for (const auto& p : particles)
      buckets_[grid_.domain_of(p.pos)].push_back(p);
  }

  void scatter_initial() {
    if (rank() == 0) {
      fill_buckets(shared_.initial);
      my_.swap(buckets_[0]);
      for (int r = 1; r < real_count(); ++r)
        comm_.send(r, kScatter, buckets_[r]);
    } else {
      my_ = comm_.recv<PRec>(0, kScatter);
    }
  }

  /// Halo exchange: ship to each other real rank the particles within r_cut
  /// of that rank's domain cuboid; receive the same from everyone. The
  /// engine's local image is the owned particles followed by the halo.
  void exchange_halos() {
    obs::ScopedPhase comm_phase(obs::Phase::kComm);
    MDM_TRACE_SCOPE("parallel.halo_exchange");
    const std::uint64_t t0 = obs::Trace::now_ns();
    const double r_cut = shared_.config.ewald.r_cut;
    for (int d = 0; d < real_count(); ++d) {
      if (d == rank()) continue;
      halo_out_.clear();
      for (const auto& p : my_)
        if (grid_.distance_to_domain(p.pos, d) < r_cut) halo_out_.push_back(p);
      comm_.send(d, kHalo, halo_out_);
    }
    local_pos_.clear();
    local_type_.clear();
    const auto add_local = [this](const PRec& p) {
      local_pos_.push_back(p.pos);
      local_type_.push_back(p.type);
    };
    std::ranges::for_each(my_, add_local);
    for (int d = 0; d < real_count(); ++d)
      if (d != rank())
        std::ranges::for_each(comm_.recv<PRec>(d, kHalo), add_local);
    halo_ms_ += ms_since(t0);
  }

  void compute_forces() {
    exchange_halos();
    const std::uint64_t t_force = obs::Trace::now_ns();
    local_force_.resize(local_pos_.size());
    local_potential_ =
        real_->compute(local_pos_, local_type_, my_.size(), local_force_);
    for (std::size_t i = 0; i < my_.size(); ++i) my_[i].force = local_force_[i];
    mdgrape_ms_ += ms_since(t_force);

    // Wavenumber part: route the owned particles over the wavenumber
    // processes and add the forces they return, batch order preserved.
    const std::uint64_t t_wine = obs::Trace::now_ns();
    obs::ScopedPhase comm_phase(obs::Phase::kComm);
    MDM_TRACE_SCOPE("parallel.wine_exchange");
    for (auto& batch : to_wine_) batch.clear();
    for (auto& slots : sent_) slots.clear();
    for (std::size_t i = 0; i < my_.size(); ++i) {
      const int w = route_(my_[i].id, my_[i].pos);
      to_wine_[w].push_back({my_[i].type, my_[i].pos});
      sent_[w].push_back(i);
    }
    for (int w = 0; w < wn_count(); ++w)
      comm_.send(real_count() + w, kToWine, to_wine_[w]);
    for (int w = 0; w < wn_count(); ++w) {
      const auto part = comm_.recv<Vec3>(real_count() + w, kFromWine);
      if (part.size() != sent_[w].size())
        throw std::runtime_error("parallel app: wavenumber force count "
                                 "does not match the particles sent");
      for (std::size_t k = 0; k < part.size(); ++k)
        my_[sent_[w][k]].force += part[k];
    }
    if (rank() == 0)
      wn_energy_ = comm_.recv_value<double>(real_count(), kWineEnergy);
    wine_ms_ += ms_since(t_wine);
  }

  void half_kick() {
    const double dt = shared_.config.protocol.dt_fs;
    for (auto& p : my_) {
      const double c =
          0.5 * dt * units::kAccelUnit / shared_.species[p.type].mass;
      p.vel += c * p.force;
    }
  }

  void drift() {
    const double dt = shared_.config.protocol.dt_fs;
    for (auto& p : my_) {
      p.pos += dt * p.vel;
      p.pos = wrap_position(p.pos, shared_.box);
    }
  }

  void migrate() {
    obs::ScopedPhase comm_phase(obs::Phase::kComm);
    MDM_TRACE_SCOPE("parallel.migrate");
    const std::uint64_t t0 = obs::Trace::now_ns();
    fill_buckets(my_);
    my_.swap(buckets_[rank()]);
    for (int d = 0; d < real_count(); ++d) {
      if (d == rank()) continue;
      comm_.send(d, kMigrate, buckets_[d]);
    }
    for (int d = 0; d < real_count(); ++d) {
      if (d == rank()) continue;
      const auto part = comm_.recv<PRec>(d, kMigrate);
      my_.insert(my_.end(), part.begin(), part.end());
    }
    // Deterministic ownership order regardless of arrival order.
    std::sort(my_.begin(), my_.end(),
              [](const PRec& a, const PRec& b) { return a.id < b.id; });
    migrate_ms_ += ms_since(t0);
  }

  /// Global kinetic energy (eV) via allreduce over the real group.
  double global_kinetic() {
    double twice_ke = 0.0;
    for (const auto& p : my_)
      twice_ke += shared_.species[p.type].mass * norm2(p.vel);
    twice_ke = real_allreduce(twice_ke);
    return 0.5 * twice_ke / units::kAccelUnit;
  }

  double temperature_of(double kinetic) const {
    const double dof =
        3.0 * static_cast<double>(shared_.n_particles) -
        (shared_.n_particles > 1 ? 3.0 : 0.0);
    return 2.0 * kinetic / (dof * units::kBoltzmann);
  }

  void thermostat() {
    const double t = temperature_of(global_kinetic());
    if (t <= 0.0) return;
    const double scale =
        std::sqrt(shared_.config.protocol.temperature_K / t);
    for (auto& p : my_) p.vel *= scale;
  }

  /// Sum-allreduce one double over the real-process group.
  double real_allreduce(double v) {
    obs::ScopedPhase comm_phase(obs::Phase::kComm);
    return real_comm_.allreduce_sum_value(v);
  }

  void record_sample(int step) {
    const double kinetic = global_kinetic();
    const double potential_rs = real_allreduce(local_potential_);
    if (rank() != 0) return;
    Sample s;
    s.step = step;
    s.time_ps = step * shared_.config.protocol.dt_fs * 1e-3;
    s.temperature_K = temperature_of(kinetic);
    s.kinetic_eV = kinetic;
    s.potential_eV = potential_rs + wn_energy_ + shared_.self_energy +
                     shared_.background_energy;
    s.total_eV = s.kinetic_eV + s.potential_eV;
    Progress& progress = *shared_.progress;
    progress.samples.push_back(s);
    if (shared_.config.on_sample && step > progress.streamed_step) {
      shared_.config.on_sample(s);
      progress.streamed_step = step;
    }
    // Global watchdog checks run on rank 0, which alone sees the reduced
    // quantities; a violation poisons the fabric like any rank failure and
    // surfaces from World::run as SimulationHealthError.
    health_.check_temperature(s.temperature_K, step);
    if (step >= shared_.config.protocol.nvt_steps)
      health_.observe_energy(s.total_eV, step);
  }

  /// Rank-local NaN/Inf scan of the owned particles (reported by global
  /// particle id).
  void check_health(int step) {
    if (!shared_.config.health.check_finite) return;
    for (const auto& p : my_) {
      health_.check_finite_one(p.pos, "position", step, p.id);
      health_.check_finite_one(p.vel, "velocity", step, p.id);
      health_.check_finite_one(p.force, "force", step, p.id);
    }
  }

  /// Every checkpoint_interval steps the real group gathers its particles
  /// to rank 0, which writes one rotating crash-consistent generation.
  void maybe_checkpoint(int step) {
    auto* mgr = shared_.checkpoint;
    const int interval = shared_.config.checkpoint_interval;
    if (!mgr || interval <= 0 || step % interval != 0) return;
    obs::ScopedPhase comm_phase(obs::Phase::kComm);
    MDM_TRACE_SCOPE("parallel.checkpoint");
    CheckpointState state = gather_state();
    if (rank() == 0) {
      state.step = static_cast<std::uint64_t>(step);
      state.time_ps = step * shared_.config.protocol.dt_fs * 1e-3;
      state.box = shared_.box;
      state.species = shared_.species;
      mgr->write(state);
      if (shared_.config.on_checkpoint) shared_.config.on_checkpoint(state);
    }
    // The barrier makes the checkpoint an epoch barrier: no real rank
    // enters step+1 until the generation is durably on disk. Without it a
    // rank dying at step+1 can poison the fabric while rank 0 is still
    // writing, leaving nothing to recover from.
    real_comm_.barrier();
  }

  /// Every real rank's particles gathered to rank 0 and indexed by id
  /// (empty elsewhere).
  CheckpointState gather_state() {
    const auto all = real_comm_.gather(my_, 0);
    CheckpointState state;
    if (rank() != 0) return state;
    state.types.assign(shared_.n_particles, 0);
    state.positions.assign(shared_.n_particles, Vec3{});
    state.velocities.assign(shared_.n_particles, Vec3{});
    for (const auto& p : all) {
      state.types[p.id] = p.type;
      state.positions[p.id] = p.pos;
      state.velocities[p.id] = p.vel;
    }
    return state;
  }

  /// Publish this rank's accumulated phase timings as gauges so a run can
  /// inspect per-rank load balance (Table-1's "communication" row is the
  /// spread between these).
  void flush_rank_metrics() {
    auto& reg = obs::Registry::global();
    const std::string prefix = "parallel.rank" + std::to_string(rank()) + ".";
    reg.gauge(prefix + "halo_ms").set(halo_ms_);
    reg.gauge(prefix + "mdgrape_ms").set(mdgrape_ms_);
    reg.gauge(prefix + "wine_ms").set(wine_ms_);
    reg.gauge(prefix + "migrate_ms").set(migrate_ms_);
  }

  const Shared& shared_;
  vmpi::Communicator& comm_;
  DomainGrid grid_;
  vmpi::Communicator real_comm_;  ///< the real-process subgroup
  std::unique_ptr<RealEngine> real_;
  WnRoute route_;
  std::vector<PRec> my_;
  // Round buffers, kept across rounds.
  std::vector<PRec> halo_out_;
  std::vector<Vec3> local_pos_;  ///< owned, then halo
  std::vector<int> local_type_;
  std::vector<Vec3> local_force_;
  std::vector<std::vector<PRec>> buckets_;   ///< per real rank (migration)
  std::vector<std::vector<WnRec>> to_wine_;  ///< per wavenumber rank
  std::vector<std::vector<std::size_t>> sent_;  ///< my_ slots per batch
  HealthMonitor health_{shared_.config.health};
  double local_potential_ = 0.0;
  double wn_energy_ = 0.0;  // rank 0 only

  // Per-rank accumulated phase timings (flushed at the end of the run).
  double halo_ms_ = 0.0;
  double mdgrape_ms_ = 0.0;
  double wine_ms_ = 0.0;
  double migrate_ms_ = 0.0;
};

}  // namespace

ParallelRunResult MdmParallelApp::run(const ParticleSystem& initial) {
  Shared shared;
  shared.config = config_;
  shared.box = initial.box();
  shared.n_particles = initial.size();
  for (int t = 0; t < initial.species_count(); ++t) {
    shared.species.push_back(initial.species(t));
    shared.charge_of_type.push_back(initial.species(t).charge);
  }
  shared.initial.resize(initial.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    shared.initial[i] = {static_cast<std::uint32_t>(i),
                         initial.type(i), initial.positions()[i],
                         initial.velocities()[i], Vec3{}};
  }
  const double beta = config_.ewald.alpha / shared.box;
  shared.self_energy = -units::kCoulomb * beta /
                       std::sqrt(std::numbers::pi) *
                       initial.total_charge_squared();
  const double q = initial.total_charge();
  shared.background_energy =
      -units::kCoulomb * std::numbers::pi /
      (2.0 * beta * beta * shared.box * shared.box * shared.box) * q * q;
  shared.total_steps =
      config_.protocol.nvt_steps + config_.protocol.nve_steps;
  for (int r = 0; r < config_.real_processes + config_.wn_processes; ++r)
    (r < config_.real_processes ? shared.real_ranks : shared.wn_ranks)
        .push_back(r);
  // Fail fast on box-dependent PME misconfiguration (r_cut vs L/2) before
  // any rank thread launches.
  if (config_.kspace_solver == KspaceSolver::kPme)
    validated_pme(resolved_pme(config_), shared.box);

  // Fault-tolerance wiring: explicit injector wins; otherwise the
  // MDM_FAULT_SPEC/MDM_FAULT_SEED environment knobs apply. vmpi
  // retransmits dropped messages with bounded backoff, so a transient
  // fabric fault costs latency, not the run.
  std::unique_ptr<vmpi::FaultInjector> env_injector;
  shared.injector = config_.fault_injector;
  if (!shared.injector) {
    env_injector = vmpi::FaultInjector::from_env();
    shared.injector = env_injector.get();
  }

  // Checkpoint/restart wiring (DESIGN.md §8): rank 0 writes a rotating
  // generation every checkpoint_interval steps; on a rank failure the app
  // restores the latest CRC-valid generation, rebuilds the domain
  // decomposition over the restored configuration and resumes.
  std::unique_ptr<CheckpointManager> ckpt_mgr;
  if (!config_.checkpoint_dir.empty())
    ckpt_mgr = std::make_unique<CheckpointManager>(config_.checkpoint_dir,
                                                   config_.checkpoint_keep);
  shared.checkpoint = ckpt_mgr.get();
  Progress progress;
  shared.progress = &progress;

  const auto apply_state = [&shared](const CheckpointState& state) {
    if (state.size() != shared.n_particles)
      throw CheckpointError(
          "checkpoint particle count mismatch: file holds " +
          std::to_string(state.size()) + ", run holds " +
          std::to_string(shared.n_particles));
    if (state.box != shared.box)
      throw CheckpointError("checkpoint box mismatch");
    shared.start_step = static_cast<int>(state.step);
    shared.progress->rewind_to(shared.start_step);
    for (std::size_t i = 0; i < shared.n_particles; ++i) {
      auto& p = shared.initial[i];
      if (!state.types.empty()) p.type = state.types[i];
      p.pos = state.positions[i];
      p.vel = state.velocities[i];
      p.force = Vec3{};
    }
  };
  if (config_.restore) apply_state(*config_.restore);

  ParallelRunResult result;
  const auto finish = [&](int step) {
    progress.rewind_to(step);
    result.samples = std::move(progress.samples);
    result.completed_steps = step;
    return std::move(result);
  };
  vmpi::World world(config_.real_processes + config_.wn_processes);
  if (shared.injector) world.set_fault_injector(shared.injector);

  // One trace per run: adopt the caller's ambient context (a serve job's
  // trace) or mint a fresh one; every epoch — the initial attempt and each
  // auto-recovery — gets its own span under that trace, and vmpi propagates
  // the context into every rank thread.
  const obs::TraceContext run_ctx = obs::TraceContext::current_or_mint();
  obs::TraceContextScope run_scope(run_ctx);

  for (;;) {
    obs::TraceContextScope epoch_scope(
        obs::TraceContext{run_ctx.trace_id, obs::TraceContext::next_span_id()});
    obs::TraceSpan epoch_span("parallel.epoch");
    try {
      world.run([&](vmpi::Communicator& comm) {
        RankEngines engines = make_engines(shared, comm);
        if (!engines.real) {
          wavenumber_main(shared, comm, *engines.kspace);
          return;
        }
        RealProcess proc(shared, comm, std::move(engines));
        proc.main();
        if (comm.rank() == 0) {  // only rank 0 writes the result
          result.positions = std::move(proc.final_state.positions);
          result.velocities = std::move(proc.final_state.velocities);
        }
      });
      return finish(shared.total_steps);
    } catch (const ParallelCancelled&) {
      // A cancel is a request, not a failure: no recovery, no dump.
      result.cancelled = true;
      return finish(progress.completed_step);
    } catch (const SimulationHealthError& e) {
      dump_flight(config_, "health");
      // Deterministic numerical garbage: resuming would reproduce it, so
      // optionally roll the result back to the last good checkpoint and
      // halt cleanly instead of rethrowing.
      if (config_.rollback_on_health_error && shared.checkpoint) {
        if (auto state = shared.checkpoint->restore_latest()) {
          MDM_LOG_WARN(
              "parallel: health violation (%s); rolling back to checkpoint "
              "at step %llu and halting",
              e.what(), static_cast<unsigned long long>(state->step));
          result.halted_on_health = true;
          result.health_message = e.what();
          result.restored_from_step = state->step;
          result.positions = std::move(state->positions);
          result.velocities = std::move(state->velocities);
          return finish(static_cast<int>(state->step));
        }
      }
      throw;
    } catch (const std::exception& e) {
      dump_flight(config_, "failure");
      if (!config_.auto_recover || !shared.checkpoint ||
          result.recoveries >= config_.max_recoveries)
        throw;
      const auto state = shared.checkpoint->restore_latest();
      if (!state) throw;  // nothing durable to resume from
      apply_state(*state);
      ++result.recoveries;
      result.restored_from_step = state->step;
      static obs::Counter& recoveries =
          obs::Registry::global().counter("parallel.recoveries");
      recoveries.add(1);
      MDM_LOG_WARN(
          "parallel: run failed (%s); recovered from checkpoint at step "
          "%llu, resuming (%d/%d)",
          e.what(), static_cast<unsigned long long>(state->step),
          result.recoveries, config_.max_recoveries);
    }
  }
}

}  // namespace mdm::host
