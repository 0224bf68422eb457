#include "core/dv_hop.hpp"

#include <deque>
#include <limits>

namespace resloc::core {

namespace {
constexpr std::size_t kUnreachable = std::numeric_limits<std::size_t>::max();

/// BFS hop counts from `source` over the measurement connectivity graph (an
/// unlimited flood).
std::vector<std::size_t> hop_counts_from(NodeId source, const MeasurementSet& measurements,
                                         std::size_t n) {
  std::vector<std::size_t> hops(n, kUnreachable);
  std::deque<NodeId> frontier{source};
  hops[source] = 0;
  while (!frontier.empty()) {
    const NodeId current = frontier.front();
    frontier.pop_front();
    for (const auto& [neighbor, dist] : measurements.neighbors(current)) {
      (void)dist;
      if (hops[neighbor] != kUnreachable) continue;
      hops[neighbor] = hops[current] + 1;
      frontier.push_back(neighbor);
    }
  }
  return hops;
}

}  // namespace

DvHopResult localize_dv_hop(const Deployment& deployment, const MeasurementSet& measurements,
                            const DvHopOptions& options, resloc::math::Rng& rng) {
  const std::size_t n = deployment.size();
  const std::size_t a = deployment.anchors.size();
  DvHopResult out;
  out.result.positions.assign(n, std::nullopt);
  out.hop_counts.assign(n, std::vector<std::size_t>(a, kUnreachable));
  out.anchor_hop_distance.assign(a, 0.0);

  // Phase 1: each anchor floods hop counts.
  std::vector<std::vector<std::size_t>> from_anchor(a);
  for (std::size_t k = 0; k < a; ++k) {
    from_anchor[k] = hop_counts_from(deployment.anchors[k], measurements, n);
    for (std::size_t node = 0; node < n; ++node) out.hop_counts[node][k] = from_anchor[k][node];
  }

  // Phase 2: each anchor computes its distance-per-hop correction from the
  // true distances and hop counts to the other anchors.
  for (std::size_t k = 0; k < a; ++k) {
    double total_distance = 0.0;
    std::size_t total_hops = 0;
    for (std::size_t m = 0; m < a; ++m) {
      if (m == k) continue;
      const std::size_t hops = from_anchor[k][deployment.anchors[m]];
      if (hops == kUnreachable || hops == 0) continue;
      total_distance += resloc::math::distance(deployment.positions[deployment.anchors[k]],
                                               deployment.positions[deployment.anchors[m]]);
      total_hops += hops;
    }
    out.anchor_hop_distance[k] =
        total_hops > 0 ? total_distance / static_cast<double>(total_hops) : 0.0;
  }

  // Phase 3: each non-anchor estimates distances to anchors using the
  // correction of its *nearest* anchor (fewest hops) -- the APS rule -- and
  // multilaterates.
  for (NodeId node = 0; node < n; ++node) {
    if (deployment.is_anchor(node)) {
      out.result.positions[node] = deployment.positions[node];
      continue;
    }
    // Nearest anchor's correction.
    std::size_t best_hops = kUnreachable;
    double correction = 0.0;
    for (std::size_t k = 0; k < a; ++k) {
      const std::size_t hops = out.hop_counts[node][k];
      if (hops < best_hops && out.anchor_hop_distance[k] > 0.0) {
        best_hops = hops;
        correction = out.anchor_hop_distance[k];
      }
    }
    if (best_hops == kUnreachable || correction <= 0.0) continue;

    std::vector<AnchorObservation> observations;
    for (std::size_t k = 0; k < a; ++k) {
      const std::size_t hops = out.hop_counts[node][k];
      if (hops == kUnreachable || hops == 0) continue;
      observations.push_back({deployment.positions[deployment.anchors[k]],
                              static_cast<double>(hops) * correction, 1.0});
    }
    out.result.positions[node] = multilaterate(observations, options.fit, rng);
  }
  return out;
}

}  // namespace resloc::core
