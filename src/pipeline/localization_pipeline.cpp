#include "pipeline/localization_pipeline.hpp"

#include <chrono>
#include <utility>

#include "obs/telemetry.hpp"

namespace resloc::pipeline {

namespace {

/// Seconds elapsed since `start`, for the always-on stage walls. Plain
/// std::chrono rather than the obs clock: the stage budget must work without
/// telemetry enabled, and it is diagnostic-only (never in golden output).
double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

LocalizationPipeline::LocalizationPipeline(PipelineConfig config) : config_(std::move(config)) {}

core::MeasurementSet LocalizationPipeline::measure(const core::Deployment& deployment,
                                                   resloc::math::Rng& rng,
                                                   std::size_t* augmented_edges,
                                                   std::size_t* skipped_pairs) const {
  RESLOC_SPAN("pipeline/measure");
  core::MeasurementSet measurements;
  std::size_t skipped = 0;
  switch (config_.source) {
    case MeasurementSource::kAcousticRanging: {
      const sim::FieldExperimentData data =
          sim::run_field_experiment(deployment, config_.campaign, rng);
      measurements = data.to_measurement_set(deployment.size());
      skipped = data.skipped_pairs;
      break;
    }
    case MeasurementSource::kSyntheticGaussian:
      measurements = sim::gaussian_measurements(deployment, config_.noise, rng);
      break;
  }
  measurements.set_node_count(deployment.size());
  if (skipped_pairs != nullptr) {
    *skipped_pairs = skipped;
  }

  std::size_t added = 0;
  if (config_.augment_missing) {
    added = sim::augment_with_gaussian(measurements, deployment, config_.noise, rng);
  }
  if (augmented_edges != nullptr) {
    *augmented_edges = added;
  }
  return measurements;
}

PipelineRun LocalizationPipeline::run(const core::Deployment& deployment,
                                      resloc::math::Rng& rng) const {
  std::size_t augmented = 0;
  std::size_t skipped = 0;
  const auto measure_start = std::chrono::steady_clock::now();
  core::MeasurementSet measurements = measure(deployment, rng, &augmented, &skipped);
  const double measure_wall_s = seconds_since(measure_start);
  PipelineRun out = run_on_measurements(deployment, std::move(measurements), rng);
  out.measure_wall_s = measure_wall_s;
  out.augmented_edges = augmented;
  out.skipped_pairs = skipped;
  return out;
}

PipelineRun LocalizationPipeline::run_on_measurements(const core::Deployment& deployment,
                                                      core::MeasurementSet measurements,
                                                      resloc::math::Rng& rng) const {
  PipelineRun out;
  out.measurements = std::move(measurements);
  out.measurements.set_node_count(deployment.size());

  bool align_for_eval = true;
  bool degrade_placed = false;
  std::vector<core::NodeId> exclude;

  const auto solve_start = std::chrono::steady_clock::now();
  {
    RESLOC_SPAN("pipeline/solve");
    switch (config_.solver) {
      case Solver::kMultilateration: {
        out.estimates = core::localize_by_multilateration(deployment, out.measurements,
                                                          config_.multilateration, rng);
        // Multilateration output is absolute; anchors know their position and
        // are not scored (the paper reports non-anchor error only).
        align_for_eval = false;
        exclude = deployment.anchors;
        break;
      }
      case Solver::kCentralizedLss: {
        core::LssResult lss;
        if (config_.lss_init == LssInit::kDvHopSeeded && !deployment.anchors.empty()) {
          // Coarse absolute positions by DV-hop, refined by one LSS descent.
          // Nodes DV-hop could not place (unreachable from every anchor) fall
          // back to a random draw in the init box.
          const core::DvHopResult dv =
              core::localize_dv_hop(deployment, out.measurements, config_.dv_hop, rng);
          std::vector<resloc::math::Vec2> initial(deployment.size());
          for (std::size_t id = 0; id < deployment.size(); ++id) {
            if (id < dv.result.positions.size() && dv.result.positions[id].has_value()) {
              initial[id] = *dv.result.positions[id];
            } else {
              initial[id] = resloc::math::Vec2{rng.uniform(0.0, config_.lss.init_box_m),
                                               rng.uniform(0.0, config_.lss.init_box_m)};
            }
          }
          lss = core::localize_lss_from(out.measurements, std::move(initial), config_.lss, rng);
        } else {
          lss = core::localize_lss(out.measurements, config_.lss, rng);
        }
        out.stress = lss.stress;
        // A solve that hit non-finite stress stopped at the last finite
        // configuration: positions exist but carry low confidence.
        degrade_placed = lss.non_finite;
        std::vector<bool> has_measurement(deployment.size(), false);
        for (const core::DistanceEdge& edge : out.measurements.edges()) {
          if (edge.i < has_measurement.size()) has_measurement[edge.i] = true;
          if (edge.j < has_measurement.size()) has_measurement[edge.j] = true;
        }
        out.estimates.positions.assign(deployment.size(), std::nullopt);
        for (std::size_t id = 0; id < deployment.size(); ++id) {
          // Nodes with no measurement are only touched by the soft constraint;
          // their coordinates are meaningless, so report them unlocalized.
          if (id < lss.positions.size() && has_measurement[id]) {
            out.estimates.positions[id] = lss.positions[id];
          }
        }
        break;
      }
      case Solver::kDistributedLss: {
        const core::DistributedLssResult dist = core::localize_distributed(
            out.measurements, /*root=*/0, config_.distributed, rng);
        out.estimates = dist.result;
        out.estimates.positions.resize(deployment.size());
        break;
      }
    }
  }
  out.solve_wall_s = seconds_since(solve_start);

  // Normalize per-node status to the positions. Multilateration fills its
  // own (including kDegraded under-constrained fixes); the LSS solvers
  // predate the status contract and leave it empty, so derive it here --
  // with every placed node demoted to kDegraded when the solve itself was
  // flagged (non-finite stress).
  if (out.estimates.status.size() != out.estimates.positions.size()) {
    out.estimates.status.assign(out.estimates.positions.size(),
                                core::LocalizationStatus::kUnlocalized);
    for (std::size_t id = 0; id < out.estimates.positions.size(); ++id) {
      if (out.estimates.positions[id].has_value()) {
        out.estimates.status[id] = degrade_placed ? core::LocalizationStatus::kDegraded
                                                  : core::LocalizationStatus::kOk;
      }
    }
  }

  const auto eval_start = std::chrono::steady_clock::now();
  {
    RESLOC_SPAN("pipeline/eval");
    out.report = eval::evaluate_localization(out.estimates.positions, deployment.positions,
                                             align_for_eval, exclude);
  }
  out.eval_wall_s = seconds_since(eval_start);
  return out;
}

}  // namespace resloc::pipeline
