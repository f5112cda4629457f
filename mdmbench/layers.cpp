#include "layers.hpp"

#include <algorithm>
#include <cstdio>

#include "common.hpp"
#include "core/cell_list.hpp"
#include "host/distributed_pme.hpp"
#include "host/vmpi.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fft.hpp"
#include "util/random.hpp"

namespace mdmbench {

mdm::ForceResult LayerTimingField::add_forces(const mdm::ParticleSystem& system,
                                              std::span<mdm::Vec3> forces) {
  mdm::obs::TraceSpan span("bench.add_forces");
  const std::uint64_t p0 = counter("native.real_pairs");
  const auto t0 = Clock::now();
  mdm::ForceResult result;
  {
    mdm::obs::TraceSpan s("bench.native.add_real_space");
    result += inner_.add_real_space(system, forces);
  }
  const auto t1 = Clock::now();
  {
    mdm::obs::TraceSpan s("bench.native.add_wavenumber_space");
    result += inner_.add_wavenumber_space(system, forces);
  }
  const auto t2 = Clock::now();
  result.potential += inner_.self_energy(system);
  result.potential += inner_.background_energy(system);
  const auto t3 = Clock::now();
  using secs = std::chrono::duration<double>;
  real_s.push_back(secs(t1 - t0).count());
  kspace_s.push_back(secs(t2 - t1).count());
  total_s.push_back(secs(t3 - t0).count());
  pairs += counter("native.real_pairs") - p0;
  return result;
}

double half_list_candidates(const mdm::ParticleSystem& system, double r_cut) {
  const double n = double(system.size());
  mdm::CellList cells(system.box(), r_cut);
  if (cells.use_n2_fallback(r_cut)) return n * (n - 1.0) / 2.0;
  cells.build(system.positions());
  double ordered = 0.0;  // ordered (i, j != i) pairs in 27-cell neighbourhoods
  for (int c = 0; c < cells.cell_count(); ++c) {
    const double own = cells.cell_range(c).size();
    auto neigh = cells.neighbors27(c);
    std::sort(neigh.begin(), neigh.end());
    const auto end = std::unique(neigh.begin(), neigh.end());
    for (auto it = neigh.begin(); it != end; ++it)
      ordered += own * (*it == c ? own - 1.0 : cells.cell_range(*it).size());
  }
  return ordered / 2.0;
}

namespace {

template <class Fn>
double median_ms(int reps, Fn&& fn) {
  fn();  // warm caches and scratch
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0) * 1e3);
  }
  return median(t);
}

}  // namespace

double probe_serial_pme_ms(const mdm::PmeParameters& pme,
                           const mdm::ParticleSystem& system, int reps) {
  mdm::obs::TraceSpan span("bench.probe.smooth_pme");
  mdm::SmoothPme solver(mdm::validated_pme(pme, system.box()), system.box());
  std::vector<mdm::Vec3> forces(system.size());
  return median_ms(reps, [&] { solver.add_reciprocal(system, forces); });
}

double probe_fft_ms(int grid, int reps, std::uint64_t seed) {
  mdm::obs::TraceSpan span("bench.probe.grid3d");
  mdm::Grid3D g(static_cast<std::size_t>(grid));
  mdm::Random rng(seed);
  for (auto& v : g.data()) v = {rng.uniform(-1.0, 1.0), 0.0};
  return median_ms(reps, [&] {
    g.transform(false);
    g.transform(true);
  });
}

double probe_distributed_pme_ms(const mdm::PmeParameters& pme,
                                const mdm::ParticleSystem& system, int ranks,
                                int reps, std::vector<double>* per_rank) {
  mdm::obs::TraceSpan span("bench.probe.distributed_pme");
  const double box = system.box();
  const mdm::PmeParameters params = mdm::validated_pme(pme, box);
  const auto layout =
      mdm::host::PmeSlabLayout::create(params.grid, params.order, ranks);
  std::vector<std::vector<mdm::Vec3>> pos(ranks);
  std::vector<std::vector<double>> q(ranks);
  const auto positions = system.positions();
  for (std::size_t i = 0; i < system.size(); ++i) {
    const int w = layout.route(positions[i].z, box);
    pos[w].push_back(positions[i]);
    q[w].push_back(system.charge(i));
  }
  std::vector<double> busy(ranks, 0.0);
  mdm::vmpi::World world(ranks);
  world.run([&](mdm::vmpi::Communicator& comm) {
    const int r = comm.rank();
    mdm::host::DistributedPmeRank engine(params, box, comm);
    std::vector<mdm::Vec3> forces;
    busy[r] = median_ms(reps, [&] { engine.step(pos[r], q[r], forces); });
  });
  if (per_rank) *per_rank = busy;
  return *std::max_element(busy.begin(), busy.end());
}

NativeProbe probe_native(const mdm::native::NativeForceFieldConfig& config,
                         const mdm::ParticleSystem& system, int reps) {
  mdm::obs::TraceSpan span("bench.probe.native");
  mdm::native::NativeForceField field(config, system.box());
  std::vector<mdm::Vec3> forces(system.size());
  NativeProbe out;
  const std::uint64_t p0 = counter("native.real_pairs");
  field.add_real_space(system, forces);
  out.pairs = counter("native.real_pairs") - p0;
  out.real_ms =
      median_ms(reps, [&] { field.add_real_space(system, forces); });
  out.kspace_ms =
      median_ms(reps, [&] { field.add_wavenumber_space(system, forces); });
  return out;
}

std::uint64_t counter(const char* name) {
  return mdm::obs::Registry::global().counter_value(name);
}

double gauge(const std::string& name) {
  return mdm::obs::Registry::global().gauge_value(name);
}

double span_mean_ms(const std::string& name) {
  for (const auto& s : mdm::obs::Trace::summarize(0))
    if (s.name == name && s.count > 0)
      return double(s.total_ns) * 1e-6 / double(s.count);
  return 0.0;
}

void write_trace(const std::string& path) {
  if (!mdm::obs::Trace::write_chrome_json_file(path))
    std::fprintf(stderr, "mdmbench: could not write trace %s\n",
                 path.c_str());
  else
    std::fprintf(stderr, "mdmbench: trace written to %s (%zu events)\n",
                 path.c_str(), mdm::obs::Trace::event_count());
}

}  // namespace mdmbench
