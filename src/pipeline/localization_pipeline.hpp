// One-stop facade over the full localization stack: measurement acquisition
// (acoustic ranging campaign or the paper's synthetic Gaussian model), an
// optional augmentation pass, one of the three localization solvers
// (multilateration, centralized LSS, distributed LSS), and evaluation.
//
// This is the surface the examples and future batching/sharding work build
// on: scenario in, per-node position estimates plus an eval report out. Each
// stage remains individually accessible (measure() / run_on_measurements())
// so callers can cache or replace any step.
#pragma once

#include <cstddef>
#include <limits>

#include "core/distributed_lss.hpp"
#include "core/dv_hop.hpp"
#include "core/lss.hpp"
#include "core/multilateration.hpp"
#include "core/types.hpp"
#include "eval/metrics.hpp"
#include "math/rng.hpp"
#include "sim/field_experiment.hpp"
#include "sim/measurement_gen.hpp"
#include "sim/scenarios.hpp"

namespace resloc::pipeline {

/// How the pipeline obtains its distance measurements.
enum class MeasurementSource {
  /// Full acoustic ranging campaign (Section 3): every node chirps in turn,
  /// estimates are filtered and symmetrized into the measurement set.
  kAcousticRanging,
  /// The paper's synthetic model (Sections 4.1.3/4.2.2): true distance plus
  /// N(0, sigma) noise for every pair within range.
  kSyntheticGaussian,
};

/// Which localization algorithm consumes the measurement set.
enum class Solver {
  kMultilateration,  ///< Section 4.1; needs anchors, output frame is absolute
  kCentralizedLss,   ///< Section 4.2; relative frame, aligned before scoring
  kDistributedLss,   ///< Section 4.3; root-relative frame, aligned before scoring
};

/// How the centralized LSS solver is initialized.
enum class LssInit {
  /// The paper's scheme: independent random configurations plus perturbation
  /// restarts. Works to ~100 nodes; beyond that, gradient descent cannot
  /// repair the global topology of a random start and the solve lands in a
  /// folded minimum regardless of budget.
  kRandom,
  /// Seed from the DV-hop baseline (Section 2's related work, already in
  /// core/): anchors flood hop counts, every node gets a coarse absolute
  /// estimate (~5 m at city_1000 scale), and a single LSS descent refines it
  /// (~0.3 m). The initializer that makes 500-1000-node fields solvable;
  /// falls back to kRandom when the deployment has no anchors.
  kDvHopSeeded,
};

/// Full pipeline configuration. The defaults reproduce the paper's grass-grid
/// campaign followed by centralized LSS.
struct PipelineConfig {
  MeasurementSource source = MeasurementSource::kAcousticRanging;
  Solver solver = Solver::kCentralizedLss;

  /// Ranging-campaign settings (kAcousticRanging only). Defaults to the
  /// grass-field campaign of Section 3.6 / Figure 5.
  sim::FieldExperimentConfig campaign = sim::grass_campaign_config();

  /// Synthetic noise model (kSyntheticGaussian, and the augmentation pass).
  sim::GaussianNoiseModel noise;

  /// Fill in synthetic measurements for every in-range pair the campaign
  /// missed (the Figure 15 / Figure 25 augmentation).
  bool augment_missing = false;

  /// Per-solver options; only the selected solver's block is read.
  core::MultilaterationOptions multilateration;
  core::LssOptions lss;
  /// Distributed LSS aligns every map into node 0's frame.
  core::DistributedLssOptions distributed;

  /// Centralized-LSS initialization strategy (see LssInit). kDvHopSeeded is
  /// what the large-scale sweeps use; the default reproduces the paper.
  LssInit lss_init = LssInit::kRandom;
  /// DV-hop settings for the kDvHopSeeded initializer.
  core::DvHopOptions dv_hop;
};

/// Everything one pipeline invocation produced.
struct PipelineRun {
  /// The measurement set the solver consumed (after filtering/augmentation).
  core::MeasurementSet measurements;
  /// Edges contributed by the augmentation pass (0 unless augment_missing).
  std::size_t augmented_edges = 0;
  /// Node pairs the acoustic campaign never simulated because they lie beyond
  /// its range cutoff (kAcousticRanging only; 0 for the synthetic source).
  /// Nonzero values explain sparse measurement sets on large fields.
  std::size_t skipped_pairs = 0;
  /// Per-node position estimates; nullopt = the solver could not place the
  /// node (no measurements, unreachable from the root, too few anchors, ...).
  core::LocalizationResult estimates;
  /// Final stress E of the centralized LSS solve. NaN for the other two
  /// solvers: multilateration minimizes per node, and distributed LSS has no
  /// single global stress (each local map minimizes its own).
  double stress = std::numeric_limits<double>::quiet_NaN();
  /// Error metrics against ground truth. Relative-frame solvers are best-fit
  /// aligned first (Section 4.2.2); multilateration is compared directly and
  /// anchors are excluded from its scoring.
  eval::LocalizationReport report;

  /// Wall-clock stage budget, seconds: measurement acquisition (campaign or
  /// synthetic + augmentation), solver, and evaluation/alignment. Always
  /// populated, telemetry enabled or not. NON-DETERMINISTIC -- wall time
  /// varies run to run, so these never enter golden aggregates; they feed the
  /// diagnostic stage-budget table and the failure reports only.
  double measure_wall_s = 0.0;
  double solve_wall_s = 0.0;
  double eval_wall_s = 0.0;
};

/// Facade wiring RangingService -> Multilateration / Lss / DistributedLss.
///
/// Thread safety: run(), measure(), and run_on_measurements() are const and
/// read only the immutable config; the solver stack below them keeps no
/// mutable global state (audited for the experiment runner: the only statics
/// in src/ are factory functions and the mutex-guarded scenario registry).
/// One pipeline instance may therefore be shared across threads, provided
/// each concurrent call uses its own Rng. Orthogonally,
/// `config.campaign.threads` parallelizes *inside* one acoustic measurement
/// campaign (the (round, source) turns, each on its own counter-indexed RNG
/// substream); both levels are byte-deterministic, so they compose freely
/// with the trial-level runner.
class LocalizationPipeline {
 public:
  LocalizationPipeline() : LocalizationPipeline(PipelineConfig{}) {}
  explicit LocalizationPipeline(PipelineConfig config);

  /// Runs the full pipeline on a deployment: measure, solve, evaluate.
  PipelineRun run(const core::Deployment& deployment, resloc::math::Rng& rng) const;

  /// Measurement acquisition only (campaign or synthetic, plus augmentation).
  /// `skipped_pairs`, when given, receives the campaign's out-of-range pair
  /// count (see PipelineRun::skipped_pairs).
  core::MeasurementSet measure(const core::Deployment& deployment, resloc::math::Rng& rng,
                               std::size_t* augmented_edges = nullptr,
                               std::size_t* skipped_pairs = nullptr) const;

  /// Solve + evaluate over a caller-provided measurement set (e.g. replayed
  /// field data). The deployment supplies ground truth and anchor positions.
  PipelineRun run_on_measurements(const core::Deployment& deployment,
                                  core::MeasurementSet measurements,
                                  resloc::math::Rng& rng) const;

  const PipelineConfig& config() const { return config_; }

 private:
  PipelineConfig config_;
};

}  // namespace resloc::pipeline
