// String-keyed scenario registry over the deployment builders.
//
// The experiment runner (src/runner) sweeps scenarios by name, so the canned
// geometries need a uniform, parameterizable entry point: name + params + rng
// in, deployment out. Built-in scenarios cover every geometry the paper uses;
// register_scenario() lets future workloads plug in without touching the
// runner. Lookup is guarded by a mutex so worker threads may build
// deployments concurrently; registration should still happen up front, before
// a campaign starts.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "math/rng.hpp"

namespace resloc::sim {

/// What a scenario builder may be asked for. Mote failures are applied after
/// construction with drop_random_nodes (the runner's drop_rate axis).
struct ScenarioParams {
  /// Target node count; 0 keeps the scenario's native size. Grid scenarios
  /// choose a near-square layout, random_uniform places exactly this many.
  std::size_t node_count = 0;
};

/// Builds a deployment for the given parameters. Must be deterministic in
/// (params, rng state) and safe to call from multiple threads at once.
using ScenarioBuilder =
    std::function<resloc::core::Deployment(const ScenarioParams&, resloc::math::Rng&)>;

/// Registered scenario names, sorted. Built-ins:
///   "offset_grid"    -- the Figure 5 offset grid (native 49 positions)
///   "grass_grid"     -- offset grid with 3 failed motes (native 46 nodes)
///   "town"           -- the 59-node small-town layout of Figures 20-22
///   "parking_lot"    -- the 15-node / 5-anchor lot of Figure 12
///   "random_uniform" -- uniform random field with minimum spacing
///   "urban_60"       -- the 60-node urban survey site of Figures 2/4
///                       (random 70 x 55 m, 6 m minimum spacing)
///   "wooded_patch"   -- 30 nodes over a 60 x 60 m wooded area (native size;
///                       the strongest-absorption terrain of Section 3.6)
///   "campus_500"     -- 500 nodes over 320 x 240 m of grass (large scale)
///   "city_1000"      -- 1000 nodes over 390 x 290 m of urban terrain
///   "uniform_n"      -- parameterized uniform field whose side grows with
///                       sqrt(node_count) (constant density; for node_counts
///                       sweeps). Native size 100.
/// The three large-scale scenarios throw std::invalid_argument instead of
/// silently under-filling when the requested count cannot fit the field.
std::vector<std::string> scenario_names();

bool has_scenario(const std::string& name);

/// Builds `name` with `params`, drawing randomness from `rng`. Throws
/// std::out_of_range for an unknown name (has_scenario() to probe).
resloc::core::Deployment build_scenario(const std::string& name, const ScenarioParams& params,
                                        resloc::math::Rng& rng);

/// Canonical acoustic environment of a scenario's site (a name accepted by
/// acoustics::environment_by_name), or "" when the scenario does not pin one.
/// The runner's environment axis value "scenario" resolves through this, so
/// a mixed-terrain sweep ranges each deployment on its own ground.
std::string scenario_environment(const std::string& name);

/// Adds (or replaces) a scenario. Call before campaigns start; the builder
/// itself must be thread-safe. `environment` optionally pins the scenario's
/// canonical terrain (see scenario_environment).
void register_scenario(const std::string& name, ScenarioBuilder builder,
                       const std::string& environment = "");

}  // namespace resloc::sim
