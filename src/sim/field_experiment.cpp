#include "sim/field_experiment.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"
#include "sim/campaign_turns.hpp"

namespace resloc::sim {

using resloc::core::MeasurementSet;
using resloc::core::NodeId;

namespace {

/// Fork tags separating the campaign's two substream families. Shadowing
/// substreams are indexed by unordered pair (i * n + j, i < j) and
/// measurement substreams by turn (round * n + source); the index spaces
/// overlap, so each family forks from its own tagged base to keep a pair's
/// shadowing decorrelated from a turn's measurement noise.
constexpr std::uint64_t kShadowingStreamTag = 0x5AD0;
constexpr std::uint64_t kMeasurementStreamTag = 0x3EA5;
/// Base fork handed to the fault injector; it derives per-kind, per-key
/// substreams internally (see fault/fault_injector.hpp).
constexpr std::uint64_t kFaultStreamTag = 0xFA17;

/// Per-link shadowing: each unordered pair draws a constant excess
/// attenuation from N(0, this) dB once per campaign, applied symmetrically in
/// both directions. Models the paper's geographically varying conditions
/// ("taller than average grass absorbing the signal more", bushes, ground
/// undulation) that silence mid-range links and make real field data much
/// sparser than line-of-sight physics predicts. Drawn on demand from the
/// pair's own substream -- O(1) memory, identical value every time the link
/// is used.
constexpr double kLinkShadowingStddevDb = 5.0;

/// Bidirectional agreement tolerance (Section 3.5 consistency check): a pair
/// whose two directions disagree by more than this is discarded.
constexpr double kBidirectionalToleranceM = 1.0;

}  // namespace

MeasurementSet FieldExperimentData::to_measurement_set(std::size_t node_count) const {
  MeasurementSet set(node_count);
  set.reserve(filtered.size());
  for (const auto& pair : filtered) {
    set.add(pair.a, pair.b, pair.distance_m, /*weight=*/1.0);
  }
  return set;
}

std::vector<double> FieldExperimentData::raw_errors() const {
  std::vector<double> errors;
  errors.reserve(samples.size());
  for (const auto& s : samples) errors.push_back(s.measured_m - s.true_distance_m);
  return errors;
}

namespace detail {

Campaign::Campaign(const resloc::core::Deployment& deployment_in,
                   const FieldExperimentConfig& config_in, resloc::math::Rng& rng)
    : deployment(deployment_in),
      config(config_in),
      n(deployment_in.size()),
      service(config_in.ranging) {
  // Each node's physical units are drawn once for the whole campaign.
  speakers.reserve(n);
  mics.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    speakers.push_back(config.units.sample_speaker(resloc::acoustics::kLoudspeakerDb, rng));
    mics.push_back(config.units.sample_mic(rng));
  }

  // Substream bases, forked off the post-unit state.
  shadow_base = rng.fork(kShadowingStreamTag);
  measurement_base = rng.fork(kMeasurementStreamTag);

  // Fault injector on its own tagged fork. fork() is const and never
  // advances `rng`, and an inert plan draws nothing, so a fault-free
  // campaign's byte-stream is unchanged by the injector existing.
  injector = resloc::fault::FaultInjector(config.faults, rng.fork(kFaultStreamTag), n,
                                          config.rounds);

  // Faulty-mic injection reuses the campaign's physical fault model: a
  // forced-faulty mic suffers the same persistent wide-band noise (spurious
  // detections + leakage) a unit-model-drawn faulty mic does.
  if (injector.active()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (injector.mic_faulty(static_cast<NodeId>(i))) mics[i].faulty = true;
    }
  }
}

double Campaign::shadowing_db(NodeId a, NodeId b) const {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  resloc::math::Rng stream = shadow_base.fork(static_cast<std::uint64_t>(lo) * n + hi);
  return stream.gaussian(0.0, kLinkShadowingStddevDb);
}

std::size_t Campaign::turn_count() const {
  return config.rounds > 0 ? static_cast<std::size_t>(config.rounds) * n : 0;
}

FieldExperimentData finish_campaign(const Campaign& campaign, std::size_t skipped_pairs,
                                    const std::vector<std::vector<TurnEstimate>>& turns) {
  FieldExperimentData data;
  data.skipped_pairs = skipped_pairs;
  std::size_t estimate_count = 0;
  for (const auto& turn : turns) estimate_count += turn.size();
  data.samples.reserve(estimate_count);
  for (std::size_t turn = 0; turn < turns.size(); ++turn) {
    const auto source = static_cast<NodeId>(turn % campaign.n);
    for (const TurnEstimate& e : turns[turn]) {
      data.samples.push_back({source, e.receiver, e.true_distance_m, e.measured_m});
    }
  }

  {
    RESLOC_SPAN("ranging/filtering");
    data.filtered = resloc::ranging::symmetric_estimates(data.samples, campaign.config.filter,
                                                         kBidirectionalToleranceM);
  }
  obs::add(obs::Counter::kFilteredPairs, data.filtered.size());
  return data;
}

}  // namespace detail

FieldExperimentData run_field_experiment(const resloc::core::Deployment& deployment,
                                         const FieldExperimentConfig& config,
                                         resloc::math::Rng& rng) {
  const detail::Campaign campaign(deployment, config, rng);
  return detail::run_grid_campaign(campaign,
                                   [&campaign] { return detail::service_measure(campaign); });
}

}  // namespace resloc::sim
