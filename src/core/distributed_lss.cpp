#include "core/distributed_lss.hpp"

#include <deque>

#include "math/procrustes.hpp"

namespace resloc::core {

using resloc::math::Transform2D;
using resloc::math::Vec2;

DistributedLssResult localize_distributed(const MeasurementSet& measurements, NodeId root,
                                          const DistributedLssOptions& options,
                                          resloc::math::Rng& rng) {
  const std::size_t n = measurements.node_count();
  std::vector<LocalMap> maps;
  maps.reserve(n);
  for (NodeId node = 0; node < n; ++node) {
    maps.push_back(build_local_map(node, measurements, options.local_lss, rng));
  }
  return align_local_maps(std::move(maps), root, options);
}

DistributedLssResult align_local_maps(std::vector<LocalMap> maps, NodeId root,
                                      const DistributedLssOptions& options) {
  DistributedLssResult out;
  const std::size_t n = maps.size();
  out.result.positions.assign(n, std::nullopt);
  out.to_root.assign(n, std::nullopt);

  if (root >= n) {
    out.maps = std::move(maps);
    return out;
  }

  // BFS from the root over the neighbor relation. A neighbor of `node` is any
  // other map owner appearing in node's local map (i.e. a direct
  // measurement), which is exactly who the mote protocol exchanges maps with.
  out.to_root[root] = Transform2D{};  // identity: root frame = global frame
  std::deque<NodeId> frontier{root};
  out.alignment_order.push_back(root);

  while (!frontier.empty()) {
    const NodeId parent = frontier.front();
    frontier.pop_front();
    const LocalMap& parent_map = maps[parent];

    for (std::size_t i = 1; i < parent_map.members.size(); ++i) {
      const NodeId child = parent_map.members[i];
      if (child >= n || out.to_root[child].has_value()) continue;
      const LocalMap& child_map = maps[child];
      if (child_map.owner != child) continue;

      // Shared members with coordinates in both local frames.
      const std::vector<NodeId> shared = child_map.shared_members(parent_map);
      if (shared.size() < kMinSharedMembers) continue;

      std::vector<Vec2> source;  // child frame
      std::vector<Vec2> target;  // parent frame
      source.reserve(shared.size());
      target.reserve(shared.size());
      for (NodeId m : shared) {
        source.push_back(*child_map.coord_of(m));
        target.push_back(*parent_map.coord_of(m));
      }

      const resloc::math::RigidFit fit = resloc::math::fit_rigid(source, target);
      if (!fit.valid) continue;
      if (resloc::math::fit_rmse(fit, shared.size()) > options.max_transform_rmse_m) continue;

      // child frame -> parent frame -> root frame.
      out.to_root[child] = fit.transform.then(*out.to_root[parent]);
      out.alignment_order.push_back(child);
      frontier.push_back(child);
    }
  }

  // Each aligned node reads its own position out of its own local map.
  for (NodeId node = 0; node < n; ++node) {
    if (!out.to_root[node].has_value()) continue;
    const auto own = maps[node].coord_of(node);
    if (!own) continue;
    out.result.positions[node] = out.to_root[node]->apply(*own);
  }

  out.maps = std::move(maps);
  return out;
}

}  // namespace resloc::core
