#pragma once

/// \file parallel.hpp
/// Bridge a ScenarioSpec onto the parallel machine (host/parallel_app).
/// The domain-decomposed emulator path supports the salts the hardware was
/// built for — rock-salt lattices under Ewald + Tosi-Fumi in NVE/NVT — so
/// this adapter validates expressibility with named errors instead of
/// silently dropping spec features (NPT box changes do not decompose).

#include "host/parallel_app.hpp"
#include "scenario/engine.hpp"

namespace mdm::scenario {

/// The app configuration that runs `spec` on `machine` for `system` (from
/// build_system(spec)): the Ewald alpha / r_cut of the spec, else
/// host::mdm_parameters (the MDGRAPE cell index needs r_cut <= L/3); the
/// recommended PME mesh for grid 0; the perf model's pick for solver
/// "auto". Boards, domain grid, checkpointing and hooks are left to the
/// caller. Throws ScenarioError naming the unsupported feature.
host::ParallelAppConfig parallel_app_config(const ScenarioSpec& spec,
                                            const Machine& machine,
                                            const ParticleSystem& system);

}  // namespace mdm::scenario
