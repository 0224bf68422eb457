#include "reference/campaign.hpp"

#include <cstddef>
#include <vector>

#include "reference/ranging.hpp"
#include "sim/campaign_turns.hpp"

namespace resloc::reference {

using core::NodeId;

sim::FieldExperimentData run_field_experiment_dense(const core::Deployment& deployment,
                                                    const sim::FieldExperimentConfig& config,
                                                    math::Rng& rng) {
  const sim::detail::Campaign campaign(deployment, config, rng);
  const std::size_t n = campaign.n;
  std::vector<double> shadowing(n * n, 0.0);
  std::size_t skipped_pairs = 0;
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = static_cast<NodeId>(i + 1); j < n; ++j) {
      const double s = campaign.shadowing_db(i, j);
      shadowing[i * n + j] = s;
      shadowing[j * n + i] = s;
      if (math::distance(deployment.positions[i], deployment.positions[j]) >
          config.simulate_within_m) {
        ++skipped_pairs;
      }
    }
  }
  return sim::detail::run_campaign(
      campaign, skipped_pairs,
      [&](NodeId source, auto&& visit) {
        for (NodeId receiver = 0; receiver < n; ++receiver) {
          if (receiver == source) continue;
          const double true_d =
              math::distance(deployment.positions[source], deployment.positions[receiver]);
          if (true_d > config.simulate_within_m) continue;
          visit(receiver, true_d);
        }
      },
      [&](NodeId source, NodeId receiver) { return shadowing[source * n + receiver]; },
      [&campaign] { return sim::detail::service_measure(campaign); });
}

sim::FieldExperimentData run_field_experiment_per_sample(
    const core::Deployment& deployment, const sim::FieldExperimentConfig& config,
    math::Rng& rng) {
  const sim::detail::Campaign campaign(deployment, config, rng);
  return sim::detail::run_grid_campaign(campaign, [&campaign] {
    return [&campaign, scratch = MeasureScratch{}](double true_d,
                                                   const acoustics::SpeakerUnit& speaker,
                                                   const acoustics::MicUnit& mic,
                                                   math::Rng& stream) mutable {
      return measure_per_sample(campaign.service, true_d, speaker, mic, stream, scratch)
          .distance_m;
    };
  });
}

}  // namespace resloc::reference
