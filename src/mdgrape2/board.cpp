#include "mdgrape2/board.hpp"

#include <stdexcept>

namespace mdm::mdgrape2 {

void Board::load_particles(const std::vector<StoredParticle>& particles,
                           const CellList& cells) {
  if (particles.size() > kBoardParticleCapacity)
    throw std::length_error(
        "Board: particle memory capacity exceeded (8 MB SSRAM)");
  particles_ = particles;
  const int n_cells = cells.cell_count();
  cell_ranges_.resize(n_cells);
  neighbors_.resize(n_cells);
  for (int c = 0; c < n_cells; ++c) {
    cell_ranges_[c] = cells.cell_range(c);
    neighbors_[c] = cells.neighbors27(c);
  }
}

void Board::load_pass(const ForcePass& pass) {
  for (auto& chip : chips_) chip.load_pass(pass);
}

std::span<const StoredParticle> Board::cell_stream(int cell) const {
  const auto r = cell_ranges_[cell];
  return {particles_.data() + r.begin, r.end - r.begin};
}

void Board::calc_cell_forces(std::span<const StoredParticle> i_batch,
                             std::span<const int> i_cells, double box,
                             std::span<Vec3> forces) {
  if (failed_)
    throw std::logic_error("Board: pass issued to a failed board");
  if (particles_.empty() && !i_batch.empty())
    throw std::logic_error("Board: particle memory not loaded");
  if (i_batch.size() != i_cells.size() || i_batch.size() != forces.size())
    throw std::invalid_argument("Board: batch size mismatch");
  // The two chips split the i-batch; each sees the same j-streams.
  for (std::size_t k = 0; k < i_batch.size(); ++k) {
    Chip& chip = chips_[k % kChips];
    for (const int cell : neighbors_[i_cells[k]]) {
      chip.calc_forces({&i_batch[k], 1}, cell_stream(cell), box,
                       {&forces[k], 1});
    }
  }
}

void Board::calc_cell_potentials(std::span<const StoredParticle> i_batch,
                                 std::span<const int> i_cells, double box,
                                 std::span<double> potentials) {
  if (failed_)
    throw std::logic_error("Board: pass issued to a failed board");
  if (particles_.empty() && !i_batch.empty())
    throw std::logic_error("Board: particle memory not loaded");
  if (i_batch.size() != i_cells.size() ||
      i_batch.size() != potentials.size())
    throw std::invalid_argument("Board: batch size mismatch");
  for (std::size_t k = 0; k < i_batch.size(); ++k) {
    Chip& chip = chips_[k % kChips];
    for (const int cell : neighbors_[i_cells[k]]) {
      chip.calc_potentials({&i_batch[k], 1}, cell_stream(cell), box,
                           {&potentials[k], 1});
    }
  }
}

std::uint64_t Board::pair_operations() const {
  std::uint64_t total = 0;
  for (const auto& chip : chips_) total += chip.pair_operations();
  return total;
}

std::uint64_t Board::useful_pair_operations() const {
  std::uint64_t total = 0;
  for (const auto& chip : chips_) total += chip.useful_pair_operations();
  return total;
}

void Board::reset_counters() {
  for (auto& chip : chips_) chip.reset_counters();
}

}  // namespace mdm::mdgrape2
