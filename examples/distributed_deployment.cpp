// Distributed deployment: scalable self-localization for large networks.
//
// Each node builds a local map (LSS over its neighborhood), estimates rigid
// transforms to its neighbors' maps via the closed-form method, and the
// network aligns itself by flooding the root's coordinate frame -- first with
// the graph-driven reference implementation, then as an actual message
// protocol over the discrete-event radio simulator with drifting clocks.
#include <cstdio>

#include "core/alignment_protocol.hpp"
#include "core/distributed_lss.hpp"
#include "core/lss.hpp"
#include "eval/metrics.hpp"
#include "sim/deployments.hpp"
#include "sim/measurement_gen.hpp"

int main() {
  using namespace resloc;
  std::puts("== distributed localization over a 59-node town deployment ==\n");

  const auto town = sim::town_blocks_59();
  math::Rng rng(611);
  const auto measurements = sim::gaussian_measurements(town, {}, rng);
  std::printf("deployment: %zu nodes, %zu measured pairs\n", town.size(),
              measurements.edge_count());

  core::DistributedLssOptions options;
  options.local_lss.min_spacing_m = 9.0;
  options.local_lss.independent_inits = 8;
  options.local_lss.gd.max_iterations = 2500;
  options.local_lss.target_stress_per_edge = 0.5;
  const core::NodeId root = 0;

  // Graph-driven: the algorithm, free of radio effects.
  const auto graph_run = core::localize_distributed(measurements, root, options, rng);
  const auto graph_rep =
      eval::evaluate_localization(graph_run.result.positions, town.positions, true);
  std::printf("\n[graph-driven]  localized %zu/%zu, average error %.2f m\n", graph_rep.localized,
              graph_rep.total_nodes, graph_rep.average_error_m);

  // Event-driven: local maps exchanged and the origin/axes flooded over the
  // simulated radio (drifting clocks, delivery jitter).
  net::RadioParams radio;
  radio.range_m = 50.0;
  const auto protocol = core::run_alignment_protocol(graph_run.maps, root, town.positions,
                                                     options, radio, /*seed=*/99);
  const auto protocol_rep =
      eval::evaluate_localization(protocol.result.positions, town.positions, true);
  std::printf("[event-driven]  localized %zu/%zu, average error %.2f m\n",
              protocol_rep.localized, protocol_rep.total_nodes, protocol_rep.average_error_m);
  std::printf("[event-driven]  %zu map broadcasts + %zu alignment broadcasts, %zu deliveries\n",
              protocol.map_broadcasts, protocol.align_broadcasts, protocol.messages_delivered);

  // Compare against the centralized solution on the same data.
  core::LssOptions central;
  central.min_spacing_m = 9.0;
  central.independent_inits = 16;
  central.gd.max_iterations = 6000;
  central.target_stress_per_edge = 0.5;
  math::Rng crng(12);
  const auto central_run = core::localize_lss(measurements, central, crng);
  const auto central_rep =
      eval::evaluate_localization(central_run.positions, town.positions, true);
  std::printf("\n[centralized]   average error %.2f m -- the distributed algorithm trades\n"
              "accuracy for per-node computation and two local exchanges + one flood.\n",
              central_rep.average_error_m);
  return protocol_rep.localized > town.positions.size() / 2 ? 0 : 1;
}
