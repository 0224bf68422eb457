// Declarative parameter sweeps.
//
// Every figure in Sections 4.1-4.3 of the paper is a sweep: localization
// error as a function of node count, noise sigma, anchor count, augmentation,
// or solver. A SweepSpec names the axes once; expand() cross-products them
// into a flat list of TrialSpecs (cells x trials_per_cell), each carrying its
// resolved parameters and a stable global index. The global index is the
// determinism anchor: trial i always derives its RNG substream as
// Rng(seed).fork(i), so results are independent of which thread runs which
// trial and in what order.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/localization_pipeline.hpp"

namespace resloc::runner {

/// The swept axes. Each vector is one axis of the cross product; a
/// single-element axis pins that parameter. Empty axes make the sweep empty.
struct SweepAxes {
  /// Scenario registry names (sim::scenario_names()).
  std::vector<std::string> scenarios = {"offset_grid"};
  std::vector<resloc::pipeline::Solver> solvers = {
      resloc::pipeline::Solver::kMultilateration};
  /// Target node counts; 0 keeps each scenario's native size.
  std::vector<std::size_t> node_counts = {0};
  /// Synthetic/augmentation noise sigma (m).
  std::vector<double> noise_sigmas = {0.33};
  /// Random anchors assigned per trial; 0 keeps the scenario's own anchors.
  std::vector<std::size_t> anchor_counts = {13};
  /// Fraction of nodes randomly dropped (mote failures), in [0, 1).
  std::vector<double> drop_rates = {0.0};
  /// Whether missing in-range pairs are augmented with synthetic distances.
  std::vector<bool> augment = {false};

  // --- Acoustic campaign axes (MeasurementSource::kAcousticRanging). Each
  // sentinel ("" / 0 / 1.0) keeps the base config's value, so synthetic
  // sweeps pay no extra cells. The axes map onto Section 3's knobs: the
  // terrain (3.3/3.6), the chirp count k of the accumulation pattern (3.5),
  // the counter threshold T of detect-signal (3.5), unit-to-unit hardware
  // variation (3.4 source 3), and ambient noise-burst/echo intensity
  // (3.4 sources 5/6). ---

  /// Acoustic environment profile names (acoustics::environment_names()).
  /// "" keeps the base campaign's terrain; the special value "scenario"
  /// resolves each scenario's canonical site (sim::scenario_environment).
  std::vector<std::string> environments = {""};
  /// Chirps per ranging sequence (the pattern's k); 0 keeps the base value.
  std::vector<int> chirp_counts = {0};
  /// Accumulated-counter threshold T of detect-signal; 0 keeps the base value.
  std::vector<int> detection_thresholds = {0};
  /// Unit-variation presets (acoustics::unit_model_names()); "" keeps base.
  std::vector<std::string> unit_models = {""};
  /// Multiplier on the environment's echo rate and noise-burst rate --
  /// one dial for "how hostile is the ambient acoustic scene". 1.0 = as-is.
  std::vector<double> interference_scales = {1.0};
  /// Detector-mode names (ranging::detector_mode_by_name: "hardware",
  /// "goertzel", "ncc"); "" keeps the base campaign's detector. An unknown
  /// name fails the trial loudly at config-application time.
  std::vector<std::string> detectors = {""};

  // --- Fault-injection axes (src/fault). The sentinels ("" / any intensity)
  // keep the base config's fault plan -- inert by default -- so fault-free
  // sweeps gain no cells and their cell axis labels (and goldens) are
  // unchanged: cell_axes() appends the fault columns only when fault_kind is
  // non-sentinel. An unknown kind fails the trial loudly at config time. ---

  /// Fault-plan kinds (fault::fault_kind_names(): "none", "packet_loss",
  /// "node_crash", ..., "all"); "" keeps the base plan. The campaign builds
  /// no net::Network, so "packet_loss" (and the radio part of "all") ranges
  /// a fault-free campaign.
  std::vector<std::string> fault_kinds = {""};
  /// Intensity multiplier handed to fault::plan_from_kind (1.0 = the kind's
  /// reference rates). Only read when fault_kind is non-sentinel.
  std::vector<double> fault_intensities = {1.0};
};

/// A full sweep: axes over a base pipeline configuration.
struct SweepSpec {
  std::string name = "sweep";
  /// Master seed; trial i runs on Rng(seed).fork(i).
  std::uint64_t seed = 1;
  /// Repetitions per cell (each with a distinct deployment / noise draw).
  std::size_t trials_per_cell = 1;
  /// Template configuration; each trial copies it and applies its axis
  /// values (solver, noise sigma, augmentation).
  resloc::pipeline::PipelineConfig base;
  SweepAxes axes;
  /// Bounded re-runs of a failed trial before it is recorded as failed:
  /// attempt a > 0 reruns the pipeline on a fresh substream of the same
  /// trial RNG (fork(8 + a), disjoint from the first attempt's fork(0..2)),
  /// so a retry is a genuinely different draw yet fully deterministic.
  /// 0 (default) preserves the historical single-attempt behavior exactly.
  std::size_t max_trial_retries = 0;
};

/// One concrete trial: a cell of the cross product plus a repetition index.
struct TrialSpec {
  std::size_t global_index = 0;  ///< position in expand()'s output
  std::size_t cell_index = 0;
  std::size_t trial_index = 0;   ///< repetition within the cell
  std::string scenario;
  resloc::pipeline::Solver solver = resloc::pipeline::Solver::kMultilateration;
  std::size_t node_count = 0;
  double noise_sigma = 0.33;
  std::size_t anchor_count = 0;
  double drop_rate = 0.0;
  bool augment = false;
  std::string environment;        ///< "" = base campaign terrain
  int chirp_count = 0;            ///< k; 0 = base
  int detection_threshold = 0;    ///< T; 0 = base
  std::string unit_model;         ///< "" = base unit-variation model
  double interference_scale = 1.0;
  std::string detector;           ///< "" = base detector mode
  std::string fault_kind;         ///< "" = base fault plan (inert by default)
  double fault_intensity = 1.0;   ///< read only when fault_kind != ""
};

/// Number of cells in the cross product (0 if any axis is empty).
std::size_t cell_count(const SweepSpec& spec);

/// Flattens the sweep into cell_count() * trials_per_cell trials, cell-major
/// (all repetitions of cell 0 first). Deterministic: axis order is fixed as
/// scenario > solver > node_count > noise_sigma > anchor_count > drop_rate >
/// augment > environment > chirp_count > detection_threshold > unit_model >
/// interference_scale > detector > fault_kind > fault_intensity, slowest
/// axis first.
std::vector<TrialSpec> expand(const SweepSpec& spec);

/// Human-readable solver name ("multilateration", "lss", "distributed_lss").
std::string solver_name(resloc::pipeline::Solver solver);

/// The axis coordinates of a trial's cell as (name, value) pairs, in axis
/// order -- the labels the aggregation layer attaches to each cell.
std::vector<std::pair<std::string, std::string>> cell_axes(const TrialSpec& trial);

}  // namespace resloc::runner
