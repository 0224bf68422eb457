#include "core/types.hpp"

#include <algorithm>

namespace resloc::core {

bool Deployment::is_anchor(NodeId id) const {
  return std::find(anchors.begin(), anchors.end(), id) != anchors.end();
}

std::uint64_t MeasurementSet::key(NodeId i, NodeId j) {
  const NodeId lo = std::min(i, j);
  const NodeId hi = std::max(i, j);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

void MeasurementSet::set_node_count(std::size_t n) { node_count_ = std::max(node_count_, n); }

void MeasurementSet::reserve(std::size_t edge_count) {
  edges_.reserve(edge_count);
  index_.reserve(edge_count);
  adjacency_.reserve(node_count_);
}

void MeasurementSet::add(NodeId i, NodeId j, double distance_m, double weight) {
  if (i == j) return;
  DistanceEdge edge;
  edge.i = std::min(i, j);
  edge.j = std::max(i, j);
  edge.distance_m = distance_m;
  edge.weight = weight;

  const std::uint64_t k = key(i, j);
  const auto it = index_.find(k);
  if (it == index_.end()) {
    const std::size_t idx = edges_.size();
    index_[k] = idx;
    edges_.push_back(edge);
    if (adjacency_.size() <= edge.j) adjacency_.resize(static_cast<std::size_t>(edge.j) + 1);
    adjacency_[edge.i].emplace_back(edge.j, idx);
    adjacency_[edge.j].emplace_back(edge.i, idx);
  } else {
    // Replacement: the edge keeps its slot, so the adjacency entries pointing
    // at it stay valid.
    edges_[it->second] = edge;
  }
  node_count_ = std::max(node_count_, static_cast<std::size_t>(edge.j) + 1);
}

std::optional<DistanceEdge> MeasurementSet::between(NodeId i, NodeId j) const {
  const auto it = index_.find(key(i, j));
  if (it == index_.end()) return std::nullopt;
  return edges_[it->second];
}

std::vector<std::pair<NodeId, double>> MeasurementSet::neighbors(NodeId id) const {
  std::vector<std::pair<NodeId, double>> out;
  if (id >= adjacency_.size()) return out;
  out.reserve(adjacency_[id].size());
  for (const auto& [neighbor, edge_index] : adjacency_[id]) {
    out.emplace_back(neighbor, edges_[edge_index].distance_m);
  }
  return out;
}

double MeasurementSet::average_degree() const {
  if (node_count_ == 0) return 0.0;
  return 2.0 * static_cast<double>(edges_.size()) / static_cast<double>(node_count_);
}

LocalizationStatus LocalizationResult::status_of(NodeId id) const {
  if (id < status.size()) return status[id];
  const bool placed = id < positions.size() && positions[id].has_value();
  return placed ? LocalizationStatus::kOk : LocalizationStatus::kUnlocalized;
}

std::size_t LocalizationResult::localized_count() const {
  std::size_t n = 0;
  for (const auto& p : positions) {
    if (p.has_value()) ++n;
  }
  return n;
}

std::size_t LocalizationResult::degraded_count() const {
  std::size_t n = 0;
  for (const LocalizationStatus s : status) {
    if (s == LocalizationStatus::kDegraded) ++n;
  }
  return n;
}

}  // namespace resloc::core
