// Field-experiment emulator: runs the full acoustic ranging stack over a
// deployment the way the paper's campaigns did -- every node takes a turn as
// the chirping source while all others listen, for several rounds -- and
// produces both the raw directional estimates and the filtered symmetric
// measurement set the localization algorithms consume.
//
// This is the substitute for the paper's physical experiments (60-node urban
// baseline, 46-node grass grid): per-node speaker/microphone units are drawn
// once, so hardware faults correlate across a node's measurements, exactly
// the structure the consistency checks exploit.
//
// Scaling (the measurement-acquisition front end): in-range pairs are found
// by spatial-grid culling (math::GridPairEnumerator) in O(n + in-range
// pairs) instead of the seed's rounds x n x n scan, and every random draw
// comes from a counter-based substream -- per-link shadowing from
// fork(i * n + j) of a shadowing base, each (round, source) turn's
// measurement noise from fork(round * n + source) of a measurement base --
// so no draw depends on enumeration order or on any other turn's draw
// count. That makes the campaign embarrassingly parallel: `threads` shards
// the (round, source) turns across workers with byte-identical output at
// any thread count. The seed's O(n^2) structure (full shadowing matrix +
// all-pairs receiver scan) survives as the bit-equal test-only reference in
// tests/reference.
#pragma once

#include <vector>

#include "acoustics/units.hpp"
#include "core/types.hpp"
#include "fault/fault_plan.hpp"
#include "math/rng.hpp"
#include "ranging/measurement_table.hpp"
#include "ranging/ranging_service.hpp"

namespace resloc::sim {

/// Campaign configuration.
struct FieldExperimentConfig {
  resloc::ranging::RangingConfig ranging;
  resloc::acoustics::UnitVariationModel units;
  /// Measurement rounds; each round, every node emits one chirp sequence.
  int rounds = 3;
  /// Statistical filter applied per directed pair before symmetrization.
  resloc::ranging::FilterPolicy filter;
  /// Pairs farther apart than this are not simulated at all (outside any
  /// plausible acoustic or radio range; keeps the campaign tractable).
  double simulate_within_m = 45.0;

  /// Worker threads for the measurement loop; <= 1 runs sequentially. Each
  /// (round, source) turn is an independent task on its own RNG substream
  /// with its own RangingScratch, and results are aggregated in turn order,
  /// so the campaign output is byte-identical at any thread count.
  int threads = 1;

  /// Fault-injection plan for the campaign (acoustic-layer faults: node
  /// availability, forced-faulty mics, stuck detectors, missed chirps,
  /// corrupted distances). The campaign builds no net::Network, so the
  /// plan's radio-layer fields are not read here. The default plan is inert:
  /// the injector base is forked without advancing `rng` and no fault
  /// substream is ever drawn, so a fault-free campaign is byte-identical to
  /// one built before this field existed.
  resloc::fault::FaultPlan faults;
};

/// Campaign output.
struct FieldExperimentData {
  /// Every successful raw estimate, in turn order (round -> source ->
  /// ascending receiver): the one store of raw data, which the filtered set
  /// and any re-filtering under another policy are derived from.
  std::vector<resloc::ranging::RangingSample> samples;
  std::vector<resloc::ranging::PairEstimate> filtered;  ///< after filter + bidirectional check

  /// Unordered pairs that were never simulated because their true distance
  /// exceeds `simulate_within_m` (outside any plausible acoustic or radio
  /// range). Surfaced -- rather than silently dropped -- so a sparse campaign
  /// on a large field is diagnosable: a low edge count with a high skip count
  /// is geometry, not detector failure.
  std::size_t skipped_pairs = 0;

  /// Converts the filtered estimates into the localization input format.
  resloc::core::MeasurementSet to_measurement_set(std::size_t node_count) const;

  /// Raw estimate errors (measured - true) for histogram benches.
  std::vector<double> raw_errors() const;
};

/// Runs the campaign. Units are sampled per node from `config.units` using
/// `rng`; the same units serve every pair involving that node. The unit
/// draws are the only randomness consumed from `rng` itself -- all campaign
/// randomness (shadowing, timing jitter, detector noise) comes from
/// counter-based substreams forked off `rng`'s post-unit state, so the
/// byte-stream is independent of pair enumeration order and thread count.
FieldExperimentData run_field_experiment(const resloc::core::Deployment& deployment,
                                         const FieldExperimentConfig& config,
                                         resloc::math::Rng& rng);

}  // namespace resloc::sim
