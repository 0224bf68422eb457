#include "sim/scenario_registry.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>

#include "sim/deployments.hpp"

namespace resloc::sim {

using resloc::core::Deployment;
using resloc::core::NodeId;

namespace {

// Uniform random field that *guarantees* the requested node count: the
// rejection sampler under it gives up silently when the field saturates, and
// a 600-node "city_1000" would poison every aggregate labeled n=1000.
Deployment checked_random_uniform(const char* scenario, std::size_t count, double width_m,
                                  double height_m, double min_spacing_m,
                                  resloc::math::Rng& rng) {
  Deployment d = random_uniform(count, width_m, height_m, min_spacing_m, rng);
  if (d.positions.size() != count) {
    throw std::invalid_argument(std::string("scenario '") + scenario + "' saturated at " +
                                std::to_string(d.positions.size()) + " of " +
                                std::to_string(count) +
                                " nodes; lower node_count or the minimum spacing");
  }
  return d;
}

// Near-square offset grid with exactly `node_count` positions (row-major
// trim of the last column), or the canonical 7x7 when node_count is 0.
Deployment sized_offset_grid(std::size_t node_count) {
  if (node_count == 0) return offset_grid();
  const auto rows = static_cast<std::size_t>(
      std::max(1.0, std::floor(std::sqrt(static_cast<double>(node_count)))));
  const std::size_t columns = (node_count + rows - 1) / rows;
  Deployment d = offset_grid(columns, rows);
  d.positions.resize(node_count);
  return d;
}

/// The random_uniform scenario's square field side and minimum spacing.
constexpr double kRandomUniformFieldM = 70.0;
constexpr double kRandomUniformSpacingM = 9.0;

/// A registered scenario: how to build it, and which terrain it sits on.
struct ScenarioEntry {
  ScenarioBuilder builder;
  std::string environment;  ///< "" = no canonical site
};

std::map<std::string, ScenarioEntry> make_builtins() {
  std::map<std::string, ScenarioEntry> m;
  m["offset_grid"] = {[](const ScenarioParams& p, resloc::math::Rng&) {
                        return sized_offset_grid(p.node_count);
                      },
                      "grass"};
  m["grass_grid"] = {[](const ScenarioParams& p, resloc::math::Rng& rng) {
                       // The field campaign's grid: 49 positions, 3 failed
                       // motes.
                       Deployment d = sized_offset_grid(p.node_count);
                       drop_random_nodes(d, 3, rng);
                       return d;
                     },
                     "grass"};
  // Fixed-geometry scenarios reject a node_count they cannot honor rather
  // than silently running their native size under a mislabeled sweep axis.
  m["town"] = {[](const ScenarioParams& p, resloc::math::Rng&) {
                 if (p.node_count != 0 && p.node_count != 59) {
                   throw std::invalid_argument("scenario 'town' has a fixed 59-node layout");
                 }
                 return town_blocks_59();
               },
               "urban"};
  m["parking_lot"] = {[](const ScenarioParams& p, resloc::math::Rng&) {
                        if (p.node_count != 0 && p.node_count != 15) {
                          throw std::invalid_argument(
                              "scenario 'parking_lot' has a fixed 15-node layout");
                        }
                        return parking_lot_15();
                      },
                      "pavement"};
  m["random_uniform"] = {[](const ScenarioParams& p, resloc::math::Rng& rng) {
                           const std::size_t count = p.node_count == 0 ? 49 : p.node_count;
                           return random_uniform(count, kRandomUniformFieldM,
                                                 kRandomUniformFieldM, kRandomUniformSpacingM,
                                                 rng);
                         },
                         ""};
  // The 60-node urban survey of Figures 2/4: distances recorded out to ~30 m
  // over a 70 x 55 m site.
  m["urban_60"] = {[](const ScenarioParams& p, resloc::math::Rng& rng) {
                     const std::size_t count = p.node_count == 0 ? 60 : p.node_count;
                     return random_uniform(count, 70.0, 55.0, 6.0, rng);
                   },
                   "urban"};
  // Sparse wooded patch: the strongest-absorption terrain of Section 3.6 --
  // acoustic links die fast, so campaigns here are deliberately edge-starved.
  m["wooded_patch"] = {[](const ScenarioParams& p, resloc::math::Rng& rng) {
                         const std::size_t count = p.node_count == 0 ? 30 : p.node_count;
                         return random_uniform(count, 60.0, 60.0, 8.0, rng);
                       },
                       "wooded"};

  // --- Large-scale workloads (the ROADMAP's production-scale axis). The
  // paper stops at ~60 nodes; these keep its ~8-9 m spacing regime and the
  // 22 m synthetic ranging cutoff meaningful while growing n by 10-20x.
  // Field areas hold the packing fraction near 0.25 so the rejection sampler
  // stays fast and cannot saturate. ---

  // Campus-sized deployment: 500 nodes over ~8 hectares of open ground
  // (~154 m^2 per node -> ~10 in-range neighbors at the 22 m cutoff).
  m["campus_500"] = {[](const ScenarioParams& p, resloc::math::Rng& rng) {
                       const std::size_t count = p.node_count == 0 ? 500 : p.node_count;
                       return checked_random_uniform("campus_500", count, 320.0, 240.0, 7.0, rng);
                     },
                     "grass"};
  // City-district deployment: 1000 nodes over ~11 hectares of urban terrain,
  // denser than the campus (~113 m^2 per node, ~13 in-range neighbors).
  m["city_1000"] = {[](const ScenarioParams& p, resloc::math::Rng& rng) {
                      const std::size_t count = p.node_count == 0 ? 1000 : p.node_count;
                      return checked_random_uniform("city_1000", count, 390.0, 290.0, 6.0, rng);
                    },
                    "urban"};
  // Density-invariant uniform field for node-count sweeps: the square side
  // grows with sqrt(n) so each node keeps ~144 m^2 regardless of n -- a
  // node_counts axis over this scenario varies scale, not crowding.
  m["uniform_n"] = {[](const ScenarioParams& p, resloc::math::Rng& rng) {
                      const std::size_t count = p.node_count == 0 ? 100 : p.node_count;
                      const double side =
                          12.0 * std::sqrt(static_cast<double>(count));
                      return checked_random_uniform("uniform_n", count, side, side, 6.0, rng);
                    },
                    ""};
  return m;
}

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::map<std::string, ScenarioEntry>& registry() {
  static std::map<std::string, ScenarioEntry> r = make_builtins();
  return r;
}

}  // namespace

std::vector<std::string> scenario_names() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, entry] : registry()) names.push_back(name);
  return names;  // std::map iterates sorted
}

bool has_scenario(const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  return registry().count(name) != 0;
}

Deployment build_scenario(const std::string& name, const ScenarioParams& params,
                          resloc::math::Rng& rng) {
  ScenarioBuilder builder;
  {
    std::lock_guard<std::mutex> lock(registry_mutex());
    const auto it = registry().find(name);
    if (it == registry().end()) {
      throw std::out_of_range("unknown scenario: " + name);
    }
    builder = it->second.builder;  // copy so the build runs outside the lock
  }
  return builder(params, rng);
}

std::string scenario_environment(const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  const auto it = registry().find(name);
  return it == registry().end() ? std::string() : it->second.environment;
}

void register_scenario(const std::string& name, ScenarioBuilder builder,
                       const std::string& environment) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  registry()[name] = {std::move(builder), environment};
}

}  // namespace resloc::sim
