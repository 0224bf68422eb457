#include "runner/campaign_runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "acoustics/environment.hpp"
#include "acoustics/units.hpp"
#include "fault/fault_plan.hpp"
#include "math/parallel_for.hpp"
#include "obs/telemetry.hpp"
#include "ranging/ranging_service.hpp"
#include "ranging/signal_detection.hpp"
#include "sim/deployments.hpp"
#include "sim/scenario_registry.hpp"

namespace resloc::runner {

using resloc::eval::CellResult;
using resloc::eval::FailureReason;
using resloc::eval::TrialOutcome;

namespace {

/// The obs counter tallying one failure classification.
obs::Counter failure_counter(FailureReason reason) {
  switch (reason) {
    case FailureReason::kScenarioBuild: return obs::Counter::kTrialFailScenario;
    case FailureReason::kConfig: return obs::Counter::kTrialFailConfig;
    case FailureReason::kMeasurement: return obs::Counter::kTrialFailMeasurement;
    case FailureReason::kSolver: return obs::Counter::kTrialFailSolver;
    case FailureReason::kNonStdException: return obs::Counter::kTrialFailNonStd;
    case FailureReason::kNone: break;
  }
  return obs::Counter::kRunnerTrialFailures;
}

}  // namespace

std::string CampaignResult::to_json() const {
  return resloc::eval::campaign_to_json(sweep_name, seed, cells);
}

std::string CampaignResult::to_csv() const { return resloc::eval::campaign_to_csv(cells); }

CampaignRunner::CampaignRunner(RunnerOptions options) : options_(options) {}

TrialOutcome CampaignRunner::run_trial(const SweepSpec& spec, const TrialSpec& trial) {
  RESLOC_SPAN("runner/trial");
  obs::add(obs::Counter::kRunnerTrials);
  TrialOutcome outcome;
  outcome.cell_index = trial.cell_index;
  outcome.trial_index = trial.trial_index;

  const auto start = std::chrono::steady_clock::now();
  // Substream derivation: the master Rng is never advanced, so this trial's
  // randomness depends only on (spec.seed, global_index).
  const resloc::math::Rng master(spec.seed);
  const resloc::math::Rng trial_rng = master.fork(trial.global_index);

  for (std::size_t attempt = 0; attempt <= spec.max_trial_retries; ++attempt) {
    if (attempt > 0) obs::add(obs::Counter::kRunnerTrialRetries);
    outcome.attempts = attempt + 1;
    // Stage marker for failure classification: advanced as the trial
    // progresses, so whichever stage throws is the one on record.
    FailureReason stage = FailureReason::kScenarioBuild;
    try {
      // Attempt 0 forks deployment / anchors / pipeline substreams 0 / 1 / 2
      // of the trial RNG, exactly as the single-attempt runner always did
      // (byte-identical when max_trial_retries = 0 or the first try
      // succeeds). Retry a >= 1 re-derives them from the disjoint substream
      // fork(8 + a): a genuinely fresh draw, still a pure function of
      // (seed, global_index, a).
      const resloc::math::Rng attempt_rng =
          attempt == 0 ? trial_rng : trial_rng.fork(8 + attempt);
      resloc::math::Rng deploy_rng = attempt_rng.fork(0);
      resloc::math::Rng anchor_rng = attempt_rng.fork(1);
      resloc::math::Rng pipeline_rng = attempt_rng.fork(2);

      sim::ScenarioParams params;
      params.node_count = trial.node_count;
      core::Deployment deployment = sim::build_scenario(trial.scenario, params, deploy_rng);
      if (trial.drop_rate > 0.0 && !deployment.positions.empty()) {
        const auto drops = static_cast<std::size_t>(
            std::floor(trial.drop_rate * static_cast<double>(deployment.size())));
        sim::drop_random_nodes(deployment, drops, deploy_rng);
      }
      if (trial.anchor_count > 0) {
        sim::choose_random_anchors(deployment, trial.anchor_count, anchor_rng);
      }

      stage = FailureReason::kConfig;
      pipeline::PipelineConfig config = spec.base;
      config.solver = trial.solver;
      config.noise.sigma_m = trial.noise_sigma;
      config.augment_missing = trial.augment;

      // Acoustic campaign axes. Sentinels ("" / 0 / 1.0) keep the base
      // config's values, so synthetic sweeps are untouched; unknown names
      // throw and fail the trial, not the campaign.
      if (!trial.environment.empty()) {
        std::string env_name = trial.environment;
        if (env_name == "scenario") {
          env_name = sim::scenario_environment(trial.scenario);
          if (env_name.empty()) {
            throw std::invalid_argument("scenario '" + trial.scenario +
                                        "' has no canonical environment to resolve the "
                                        "\"scenario\" axis value");
          }
        }
        config.campaign.ranging.environment = acoustics::environment_by_name(env_name);
      }
      if (trial.chirp_count > 0) {
        if (trial.chirp_count > ranging::SignalAccumulator::kMaxChirps) {
          throw std::invalid_argument(
              "chirp count " + std::to_string(trial.chirp_count) + " exceeds the 4-bit counter cap (" +
              std::to_string(ranging::SignalAccumulator::kMaxChirps) +
              "); chirps past the cap would be paid for but never recorded");
        }
        config.campaign.ranging.pattern.num_chirps = trial.chirp_count;
      }
      if (trial.detection_threshold > 0) {
        config.campaign.ranging.detection.threshold = trial.detection_threshold;
      }
      if (!trial.unit_model.empty()) {
        config.campaign.units = acoustics::unit_model_by_name(trial.unit_model);
      }
      if (trial.interference_scale != 1.0) {
        // One hostility dial: denser echoes and more frequent noise bursts.
        acoustics::EnvironmentProfile& env = config.campaign.ranging.environment;
        env.echo_rate *= trial.interference_scale;
        env.noise_burst_rate_hz *= trial.interference_scale;
      }
      if (!trial.detector.empty()) {
        config.campaign.ranging.detector_mode = ranging::detector_mode_by_name(trial.detector);
      }
      if (!trial.fault_kind.empty()) {
        // Fault axis: the named plan at the cell's intensity drives both the
        // acoustic campaign (availability, mics, detectors, corruption) and
        // -- where a net::Network is built from campaign radio params -- the
        // radio loss model. Unknown kinds throw here (a config failure).
        config.campaign.faults =
            fault::plan_from_kind(trial.fault_kind, trial.fault_intensity);
      }

      const pipeline::LocalizationPipeline pipe(config);

      // measure / solve split: pipe.run() is exactly these two calls on the
      // same rng, so splitting reproduces its byte-stream while letting the
      // failure taxonomy tell a measurement-stage throw from a solver one.
      stage = FailureReason::kMeasurement;
      const auto measure_start = std::chrono::steady_clock::now();
      std::size_t augmented = 0;
      std::size_t skipped = 0;
      core::MeasurementSet measurements =
          pipe.measure(deployment, pipeline_rng, &augmented, &skipped);
      const double measure_wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - measure_start)
              .count();

      stage = FailureReason::kSolver;
      const pipeline::PipelineRun run =
          pipe.run_on_measurements(deployment, std::move(measurements), pipeline_rng);

      outcome.ok = true;
      outcome.failure = FailureReason::kNone;
      outcome.error.clear();
      outcome.error_spans.clear();
      outcome.total_nodes = run.report.total_nodes;
      outcome.localized = run.report.localized;
      outcome.degraded = run.estimates.degraded_count();
      outcome.placement_rate = run.report.localized_fraction();
      outcome.average_error_m = run.report.average_error_m;
      outcome.median_error_m = run.report.median_error_m;
      outcome.max_error_m = run.report.max_error_m;
      outcome.stress = run.stress;
      outcome.augmented_edges = augmented;
      outcome.measured_edges = run.measurements.edge_count() - augmented;
      outcome.skipped_pairs = skipped;
      outcome.measure_wall_s = measure_wall_s;
      outcome.solve_wall_s = run.solve_wall_s;
      outcome.eval_wall_s = run.eval_wall_s;
      break;
    } catch (const std::exception& e) {
      outcome.ok = false;  // unknown scenario, fixed-size mismatch, ...
      outcome.failure = stage;
      outcome.error = e.what();
      obs::add(obs::Counter::kRunnerTrialFailures);
      obs::add(failure_counter(stage));
      // The failing thread's recent spans locate *where* in the pipeline the
      // trial died (e.g. deep in ranging vs. at solver setup) without a rerun.
      outcome.error_spans = obs::recent_spans_this_thread(32);
    } catch (...) {
      // Catch-all isolation tier: a throw of something not derived from
      // std::exception (plain int, custom struct) must not take down the
      // campaign -- it gets its own classification instead of a masquerade
      // as a std failure.
      outcome.ok = false;
      outcome.failure = FailureReason::kNonStdException;
      outcome.error = "non-std exception";
      obs::add(obs::Counter::kRunnerTrialFailures);
      obs::add(failure_counter(FailureReason::kNonStdException));
      outcome.error_spans = obs::recent_spans_this_thread(32);
    }
  }
  outcome.wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return outcome;
}

CampaignResult CampaignRunner::run(const SweepSpec& spec) const {
  const auto start = std::chrono::steady_clock::now();

  CampaignResult result;
  result.sweep_name = spec.name;
  result.seed = spec.seed;

  const std::vector<TrialSpec> trials = expand(spec);
  result.trials.resize(trials.size());

  unsigned threads = options_.threads != 0 ? options_.threads
                                           : std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, std::max<std::size_t>(1, trials.size())));
  result.threads_used = threads;

  // Each worker claims the next unclaimed trial and writes its outcome into
  // that trial's own slot.
  resloc::math::parallel_for(trials.size(), threads, [&](std::size_t i) {
    result.trials[i] = run_trial(spec, trials[i]);
  });

  // Sequential aggregation in cell order: reduction order (and therefore
  // floating-point rounding) is independent of the schedule above. expand()
  // is cell-major, so cell c's outcomes are the contiguous slice
  // [c * trials_per_cell, (c + 1) * trials_per_cell) -- no bucketing copy.
  const std::size_t cells = cell_count(spec);
  result.cells.resize(spec.trials_per_cell == 0 ? 0 : cells);
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    const TrialOutcome* begin = result.trials.data() + c * spec.trials_per_cell;
    result.cells[c].axes = cell_axes(trials[c * spec.trials_per_cell]);
    result.cells[c].aggregate =
        resloc::eval::aggregate_trials(begin, begin + spec.trials_per_cell);
  }

  result.wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

}  // namespace resloc::runner
