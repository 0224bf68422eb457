// The field campaign's turn loop (internal).
//
// run_field_experiment sets a campaign up (per-node units, substream bases,
// fault injector), ranges every (round, source) turn, and aggregates the
// turns in turn order. The steps live in this header so the test-only
// reference campaigns (tests/reference) -- the dense O(n^2) front end and
// the per-sample measure path -- run the very same turns and aggregation
// with their own receiver enumeration or measure call. Nothing outside sim
// and its tests should include it.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "acoustics/units.hpp"
#include "core/types.hpp"
#include "fault/fault_injector.hpp"
#include "math/grid_pairs.hpp"
#include "math/parallel_for.hpp"
#include "math/rng.hpp"
#include "obs/telemetry.hpp"
#include "ranging/ranging_service.hpp"
#include "sim/channel_cache.hpp"
#include "sim/field_experiment.hpp"

namespace resloc::sim::detail {

/// One successful estimate, staged per (round, source) turn so threaded and
/// sequential runs aggregate in the same order.
struct TurnEstimate {
  resloc::core::NodeId receiver = 0;
  double true_distance_m = 0.0;
  double measured_m = 0.0;
};

/// What every turn of one campaign reads. Construction draws the per-node
/// units from `rng` -- the only draws the campaign takes from `rng` itself
/// -- and forks the shadowing, measurement and fault substream bases off
/// the post-unit state, so every later draw is indexed by what it is for
/// (pair, turn), never by when it happens.
struct Campaign {
  Campaign(const resloc::core::Deployment& deployment, const FieldExperimentConfig& config,
           resloc::math::Rng& rng);

  /// The link's symmetric shadowing draw, recomputed from its own substream:
  /// the same value in both directions and every round, O(1) memory.
  double shadowing_db(resloc::core::NodeId a, resloc::core::NodeId b) const;

  /// Number of (round, source) turns: rounds x n.
  std::size_t turn_count() const;

  const resloc::core::Deployment& deployment;
  const FieldExperimentConfig& config;
  std::size_t n = 0;
  std::vector<resloc::acoustics::SpeakerUnit> speakers;
  std::vector<resloc::acoustics::MicUnit> mics;  ///< fault-forced faulty mics applied
  resloc::ranging::RangingService service;
  resloc::math::Rng shadow_base;
  resloc::math::Rng measurement_base;
  resloc::fault::FaultInjector injector;
};

/// Aggregates the staged turns in turn order -- the historical round ->
/// source -> ascending-receiver insertion order -- and applies the
/// statistical filter and the bidirectional check.
FieldExperimentData finish_campaign(const Campaign& campaign, std::size_t skipped_pairs,
                                    const std::vector<std::vector<TurnEstimate>>& turns);

/// Ranges every (round, source) turn on config.threads workers and
/// aggregates them. Each turn is one task on its own substream
/// measurement_base.fork(round * n + source), staging its estimates into its
/// own slot, so the output bytes are independent of the schedule.
///   - for_each_receiver(source, visit) calls visit(receiver, true_d) for
///     every in-range receiver of `source`, in ascending id;
///   - shadowing_db(source, receiver) is the link's shadowing draw;
///   - make_measure() builds one worker's measure callable,
///     measure(true_d, speaker, mic, stream) -> std::optional<double>, which
///     owns that worker's scratch buffers.
template <typename ForEachReceiver, typename Shadowing, typename MakeMeasure>
FieldExperimentData run_campaign(const Campaign& campaign, std::size_t skipped_pairs,
                                 ForEachReceiver&& for_each_receiver, Shadowing&& shadowing_db,
                                 MakeMeasure&& make_measure) {
  using resloc::core::NodeId;
  const std::size_t n = campaign.n;
  const resloc::fault::FaultInjector& injector = campaign.injector;
  std::vector<std::vector<TurnEstimate>> turns(campaign.turn_count());
  const int threads = campaign.config.threads;
  resloc::math::parallel_for(
      turns.size(), threads > 1 ? static_cast<std::size_t>(threads) : 1, make_measure,
      [&](auto& measure, std::size_t turn) {
        obs::add(obs::Counter::kCampaignTurns);
        const auto source = static_cast<NodeId>(turn % n);
        const int round = static_cast<int>(turn / n);
        // A crashed or sleeping source skips its whole turn (it cannot chirp).
        if (injector.active() && !injector.node_available(source, round)) return;
        resloc::math::Rng stream = campaign.measurement_base.fork(turn);
        std::vector<TurnEstimate>& out = turns[turn];
        for_each_receiver(source, [&](NodeId receiver, double true_d) {
          if (injector.active()) {
            // A down receiver hears nothing; a missed chirp is a per-attempt
            // detection dropout. Both consume only injector substream draws,
            // so the turn stream's draw sequence for surviving attempts is
            // the same at any thread count.
            if (!injector.node_available(receiver, round)) return;
            if (injector.chirp_missed(round, source, receiver)) return;
            if (injector.detector_stuck(receiver)) {
              // Stuck detector: latches the same bogus arrival every time,
              // so its reported distance is constant per node --
              // self-consistent across rounds (it sails through the
              // consistency vote) but wrong, which is exactly what the
              // bidirectional check is for.
              out.push_back({receiver, true_d, injector.stuck_distance_m(receiver)});
              return;
            }
          }
          // Shadowing is applied as a reduction of the effective source level.
          resloc::acoustics::SpeakerUnit speaker = campaign.speakers[source];
          speaker.output_db += shadowing_db(source, receiver);
          const std::optional<double> estimate =
              measure(true_d, speaker, campaign.mics[receiver], stream);
          if (estimate) {
            double measured = *estimate;
            if (injector.active()) {
              measured = injector.corrupt_distance(round, source, receiver, measured);
            }
            out.push_back({receiver, true_d, measured});
          }
        });
      });
  return finish_campaign(campaign, skipped_pairs, turns);
}

/// run_campaign over the production front end: the in-range pairs by
/// spatial-grid culling, O(n + in-range pairs), each link's shadowing
/// recomputed from its own substream.
template <typename MakeMeasure>
FieldExperimentData run_grid_campaign(const Campaign& campaign, MakeMeasure&& make_measure) {
  using resloc::core::NodeId;
  const std::size_t n = campaign.n;
  const std::size_t total_pairs = n < 2 ? 0 : n * (n - 1) / 2;
  resloc::math::GridPairEnumerator pairs;
  pairs.build(campaign.deployment.positions.data(), n, campaign.config.simulate_within_m,
              /*include_equal=*/true);
  return run_campaign(
      campaign, total_pairs - pairs.pair_count(),
      [&pairs](NodeId source, auto&& visit) {
        pairs.for_each_neighbor(source, [&visit](std::size_t receiver, double true_d) {
          visit(static_cast<NodeId>(receiver), true_d);
        });
      },
      [&campaign](NodeId source, NodeId receiver) {
        return campaign.shadowing_db(source, receiver);
      },
      make_measure);
}

/// The production per-worker measure: RangingService::measure over the
/// worker's own RangingScratch and channel-response cache. The scratch's
/// per-sequence buffers are sized by the service's window and reused across
/// the whole campaign; the cache dies with the trial (its invalidation point
/// -- trials may perturb the environment). Every round revisits the same
/// link distances, so the log10 spreading term is paid once per distinct
/// distance; the cache only ever returns bitwise-exact matches.
inline auto service_measure(const Campaign& campaign) {
  return [&campaign, scratch = resloc::ranging::RangingScratch{},
          cache = ChannelResponseCache(campaign.config.ranging.environment)](
             double true_d, const resloc::acoustics::SpeakerUnit& speaker,
             const resloc::acoustics::MicUnit& mic, resloc::math::Rng& stream) mutable {
    return campaign.service.measure(true_d, speaker, mic, stream, scratch, cache.lookup(true_d));
  };
}

}  // namespace resloc::sim::detail
