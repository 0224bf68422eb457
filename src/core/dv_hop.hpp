// DV-hop localization baseline (Niculescu & Nath's APS, described in the
// paper's Related Work, Section 2).
//
// "DV-hop ... maintains minimum hop counts to anchor nodes for each node and
// computes average distance per hop. ... The DV-hop and DV-distance
// techniques work well only for isotropic networks with uniform node
// density." Implemented here as a comparison baseline: the ablation bench
// demonstrates exactly that isotropy sensitivity against LSS.
//
// Algorithm: anchors flood hop counts through the connectivity graph (an
// edge = any pair with a range measurement); each anchor computes its
// distance-per-hop correction from true distances to the other anchors; each
// non-anchor converts hop counts to distance estimates using the correction
// of its nearest anchor and multilaterates.
#pragma once

#include "core/multilateration.hpp"
#include "core/types.hpp"
#include "math/rng.hpp"

namespace resloc::core {

/// DV-hop configuration.
struct DvHopOptions {
  /// Position fit settings (the final multilateration step).
  MultilaterationOptions fit;
};

/// Per-run diagnostics.
struct DvHopResult {
  LocalizationResult result;
  /// hop_counts[node][k] = min hops from node to deployment.anchors[k]
  /// (SIZE_MAX when unreachable).
  std::vector<std::vector<std::size_t>> hop_counts;
  /// Average distance-per-hop correction computed by each anchor.
  std::vector<double> anchor_hop_distance;
};

/// Runs DV-hop over the connectivity implied by `measurements` (hop = any
/// measured pair). Anchor positions come from the deployment.
DvHopResult localize_dv_hop(const Deployment& deployment, const MeasurementSet& measurements,
                            const DvHopOptions& options, resloc::math::Rng& rng);

}  // namespace resloc::core
