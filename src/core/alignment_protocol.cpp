#include "core/alignment_protocol.hpp"

#include <map>
#include <memory>

#include "math/procrustes.hpp"

namespace resloc::core {

using resloc::math::Transform2D;
using resloc::math::Vec2;
using resloc::net::Message;
using resloc::net::Network;
using resloc::net::Reception;

namespace {

constexpr int kMapMessage = 1;
constexpr int kAlignMessage = 2;

/// Shared state the per-node apps report into (the "experiment observer").
struct ProtocolState {
  std::vector<std::optional<Vec2>> computed;
  std::size_t map_broadcasts = 0;
  std::size_t align_broadcasts = 0;
};

/// Serializes a local map into a payload: [count, (id, x, y)...].
std::vector<double> encode_map(const LocalMap& map) {
  std::vector<double> payload;
  payload.reserve(1 + 3 * map.members.size());
  payload.push_back(static_cast<double>(map.members.size()));
  for (std::size_t i = 0; i < map.members.size(); ++i) {
    payload.push_back(static_cast<double>(map.members[i]));
    payload.push_back(map.coords[i].x);
    payload.push_back(map.coords[i].y);
  }
  return payload;
}

LocalMap decode_map(NodeId owner, const std::vector<double>& payload) {
  LocalMap map;
  map.owner = owner;
  const auto count = static_cast<std::size_t>(payload.at(0));
  for (std::size_t i = 0; i < count; ++i) {
    map.members.push_back(static_cast<NodeId>(payload.at(1 + 3 * i)));
    map.coords.push_back(Vec2{payload.at(2 + 3 * i), payload.at(3 + 3 * i)});
  }
  return map;
}

class AlignmentApp : public resloc::net::NodeApp {
 public:
  AlignmentApp(LocalMap own_map, bool is_root, double max_transform_rmse_m,
               ProtocolState& state)
      : own_map_(std::move(own_map)),
        is_root_(is_root),
        max_transform_rmse_m_(max_transform_rmse_m),
        state_(state) {}

  void on_start(Network& net, resloc::net::NodeId self) override {
    // Phase A: stagger local-map broadcasts so the shared medium is not
    // saturated at t=0 (real motes would CSMA; staggering is deterministic).
    net.schedule_local(self, 0.01 * (static_cast<double>(self) + 1.0), [this, &net, self]() {
      Message msg;
      msg.kind = kMapMessage;
      msg.payload = encode_map(own_map_);
      ++state_.map_broadcasts;
      net.broadcast(self, msg);
    });

    if (is_root_) {
      // Phase B: after the map exchange settles, the root initiates the
      // alignment flood with its own frame as the global frame.
      net.schedule_local(self, 5.0, [this, &net, self]() {
        aligned_ = true;
        const auto own = own_map_.coord_of(static_cast<NodeId>(self));
        if (own) state_.computed[self] = *own;
        broadcast_alignment(net, self, Vec2{0.0, 0.0}, Vec2{1.0, 0.0}, Vec2{0.0, 1.0});
      });
    }
  }

  void on_message(Network& net, resloc::net::NodeId self, const Reception& reception) override {
    const Message& msg = reception.message;
    if (msg.kind == kMapMessage) {
      handle_map(static_cast<NodeId>(msg.sender), msg.payload);
    } else if (msg.kind == kAlignMessage && !aligned_) {
      handle_alignment(net, self, static_cast<NodeId>(msg.sender), msg.payload);
    }
  }

 private:
  void handle_map(NodeId sender, const std::vector<double>& payload) {
    const LocalMap sender_map = decode_map(sender, payload);
    // Only neighbors (nodes in our own map) matter for alignment.
    if (!own_map_.coord_of(sender).has_value() && sender != own_map_.owner) return;

    const std::vector<NodeId> shared = sender_map.shared_members(own_map_);
    if (shared.size() < kMinSharedMembers) return;

    std::vector<Vec2> source;  // sender frame
    std::vector<Vec2> target;  // own frame
    for (NodeId m : shared) {
      source.push_back(*sender_map.coord_of(m));
      target.push_back(*own_map_.coord_of(m));
    }
    const resloc::math::RigidFit fit = resloc::math::fit_rigid(source, target);
    if (!fit.valid) return;
    if (resloc::math::fit_rmse(fit, shared.size()) > max_transform_rmse_m_) return;
    from_sender_[sender] = fit.transform;
  }

  void handle_alignment(Network& net, resloc::net::NodeId self, NodeId sender,
                        const std::vector<double>& payload) {
    const auto it = from_sender_.find(sender);
    if (it == from_sender_.end()) return;  // no transform for this sender

    const Vec2 o{payload.at(0), payload.at(1)};
    const Vec2 x{payload.at(2), payload.at(3)};
    const Vec2 y{payload.at(4), payload.at(5)};

    // Map the global origin (a point) and the axis directions (vectors) into
    // our own frame.
    const Transform2D& t = it->second;
    const Vec2 o_hat = t.apply(o);
    const Vec2 x_hat = t.apply_linear(x);
    const Vec2 y_hat = t.apply_linear(y);

    aligned_ = true;
    const auto own = own_map_.coord_of(static_cast<NodeId>(self));
    if (own) {
      const Vec2 p = *own - o_hat;
      state_.computed[self] = Vec2{p.dot(x_hat), p.dot(y_hat)};
    }
    broadcast_alignment(net, self, o_hat, x_hat, y_hat);
  }

  void broadcast_alignment(Network& net, resloc::net::NodeId self, Vec2 o, Vec2 x, Vec2 y) {
    Message msg;
    msg.kind = kAlignMessage;
    msg.payload = {o.x, o.y, x.x, x.y, y.x, y.y};
    ++state_.align_broadcasts;
    net.broadcast(self, msg);
  }

  LocalMap own_map_;
  bool is_root_;
  double max_transform_rmse_m_;
  ProtocolState& state_;
  std::map<NodeId, Transform2D> from_sender_;
  bool aligned_ = false;
};

}  // namespace

AlignmentProtocolResult run_alignment_protocol(const std::vector<LocalMap>& maps, NodeId root,
                                               const std::vector<Vec2>& true_positions,
                                               const DistributedLssOptions& options,
                                               const resloc::net::RadioParams& radio,
                                               std::uint64_t seed) {
  const std::size_t n = maps.size();
  ProtocolState state;
  state.computed.assign(n, std::nullopt);

  resloc::math::Rng master(seed);
  Network net(radio, master.split());
  for (NodeId id = 0; id < n; ++id) {
    net.add_node(true_positions[id],
                 std::make_unique<AlignmentApp>(maps[id], id == root,
                                                options.max_transform_rmse_m, state));
  }
  net.start();
  net.run();

  AlignmentProtocolResult out;
  out.result.positions = std::move(state.computed);
  out.map_broadcasts = state.map_broadcasts;
  out.align_broadcasts = state.align_broadcasts;
  out.messages_delivered = net.deliveries();
  return out;
}

}  // namespace resloc::core
