#include "host/wine2_mpi.hpp"

#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace mdm::host {

void Wine2MpiLibrary::wine2_set_MPI_community(vmpi::Communicator* comm) {
  if (!comm) throw std::invalid_argument("wine2_set_MPI_community: null");
  comm_ = comm;
}

void Wine2MpiLibrary::wine2_allocate_board(int n_boards) {
  if (n_boards < 1)
    throw std::invalid_argument("wine2_allocate_board: n < 1");
  requested_boards_ = n_boards;
}

void Wine2MpiLibrary::wine2_initialize_board(wine2::WineFormats formats) {
  if (!comm_)
    throw std::logic_error(
        "wine2_initialize_board: call wine2_set_MPI_community first");
  wine2::SystemConfig config;
  config.clusters = requested_boards_;
  config.boards_per_cluster = 1;
  config.formats = formats;
  system_ = std::make_unique<wine2::Wine2System>(config);
}

void Wine2MpiLibrary::wine2_set_nn(std::size_t n_local_particles) {
  expected_particles_ = n_local_particles;
}

double Wine2MpiLibrary::calculate_force_and_pot_wavepart_nooffset(
    std::span<const Vec3> positions, std::span<const double> charges,
    double box, const KVectorTable& kvectors, std::span<Vec3> forces) {
  if (!system_)
    throw std::logic_error("wine2 library: boards not initialized");
  if (expected_particles_ != 0 && positions.size() != expected_particles_)
    throw std::invalid_argument(
        "wine2 library: rank " + std::to_string(comm_->world_rank()) +
        " passed " + std::to_string(positions.size()) +
        " particles but wine2_set_nn announced " +
        std::to_string(expected_particles_));

  system_->load_waves(kvectors);
  // An empty rank loads no particles but still sets the box, so it knows
  // the global energy after the reduction.
  system_->set_particles(positions, charges, box);
  StructureFactors sf;
  if (positions.empty()) {
    sf.s.assign(kvectors.size(), 0.0);
    sf.c.assign(kvectors.size(), 0.0);
  } else {
    sf = system_->run_dft();
  }

  // The only cross-process coupling: structure factors are linear in the
  // particles, so the global S/C are element-wise sums. The communicator
  // salts these tags with its subgroup id, so the 7001+ range cannot
  // collide with world point-to-point traffic (it used to be a comment-
  // level caveat only). A failed peer rank surfaces here as
  // vmpi::PeerFailedError instead of a hang.
  static obs::Counter& allreduces =
      obs::Registry::global().counter("wine2.mpi_allreduces");
  comm_->allreduce_sum(sf.s, /*tag=*/7001);
  comm_->allreduce_sum(sf.c, /*tag=*/7003);
  allreduces.add(2);

  if (!positions.empty()) system_->run_idft(sf, forces);
  return system_->reciprocal_energy(sf);
}

void Wine2MpiLibrary::wine2_free_board() { system_.reset(); }

}  // namespace mdm::host
