// Distributed LSS localization (Section 4.3): local maps, pairwise
// transforms, and alignment to the root's coordinate system.
//
// This is the graph-driven reference implementation: it computes exactly what
// the mote protocol computes, with alignment propagating outward from the
// root along a breadth-first tree of neighbor relations (the network flood of
// Step 3 explores the same edges). The event-driven implementation on the
// network simulator lives in alignment_protocol.hpp; the two agree when given
// the same local maps.
#pragma once

#include <optional>
#include <vector>

#include "core/local_map.hpp"
#include "core/transform_estimation.hpp"
#include "core/types.hpp"

namespace resloc::core {

/// Minimum shared members required to align two local maps; below 3 the
/// reflection/rotation is under-determined and alignment is refused. Two maps
/// are aligned by the closed-form transform (Section 4.3.1: the method a mote
/// can afford).
inline constexpr std::size_t kMinSharedMembers = 3;

/// Distributed-LSS configuration.
struct DistributedLssOptions {
  /// LSS settings for the per-node local maps (the soft constraint applies
  /// within each neighborhood too).
  LssOptions local_lss;

  /// Reject a pairwise transform whose per-shared-member RMS residual
  /// exceeds this (meters); large residuals signal a folded local map whose
  /// propagation would corrupt everything downstream (the Figure 24 failure).
  /// Set to a huge value to disable (the default 1e9 effectively does).
  double max_transform_rmse_m = 1e9;
};

/// Output of the distributed localization.
struct DistributedLssResult {
  /// Per-node positions in the root's local coordinate frame (nullopt =
  /// unreached / unalignable).
  LocalizationResult result;
  /// Per-node local maps (diagnostics, reused by the event-driven protocol).
  std::vector<LocalMap> maps;
  /// BFS order in which nodes were aligned (root first).
  std::vector<NodeId> alignment_order;
  /// Per-node transform from the node's local frame to the root frame.
  std::vector<std::optional<resloc::math::Transform2D>> to_root;
};

/// Runs the full distributed pipeline: builds every node's local map, then
/// aligns maps outward from `root`, and reads each node's own position out of
/// its aligned local frame.
DistributedLssResult localize_distributed(const MeasurementSet& measurements, NodeId root,
                                          const DistributedLssOptions& options,
                                          resloc::math::Rng& rng);

/// Alignment-only entry point over prebuilt local maps (used by tests, the
/// event-driven protocol, and the ablation benches).
DistributedLssResult align_local_maps(std::vector<LocalMap> maps, NodeId root,
                                      const DistributedLssOptions& options);

}  // namespace resloc::core
