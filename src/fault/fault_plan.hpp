// Declarative fault configuration for the deterministic fault-injection
// layer.
//
// The paper's title claim is *resilient* localization, but until this layer
// existed the repo could only express one failure mode (mote removal at
// deploy time). A FaultPlan names every injectable fault as a rate in [0, 1]
// (or a physical rate for radio loss bursts); the FaultInjector turns the
// plan into concrete per-(node, round, pair) fault schedules drawn from
// tagged counter-based RNG substreams, so the schedule is byte-identical at
// any thread count and independent of query order.
//
// Fault taxonomy (one knob per failure mode):
//   network   -- packet_loss_probability, loss bursts (radio jamming windows);
//                read only where a net::Network is built (apply_to_radio),
//                which no campaign does, so they are inert in every sweep
//   node      -- node_crash_rate (down for the rest of the campaign),
//                node_sleep_rate (down for a contiguous round window)
//   sensor    -- faulty_mic_rate (persistent wide-band noise; drives the
//                acoustics::MicUnit fault model), stuck_detector_rate
//                (detector latches a constant near-zero arrival)
//   measurement -- missed_chirp_rate (a directed attempt vanishes),
//                corrupt_distance_rate (an estimate is replaced by NaN or a
//                multiplicative outlier -- the inputs the Section 3.5
//                filters exist for)
//
// The all-zeros default plan is inert: enabled() is false, the injector
// draws nothing, and every existing golden byte-stream is unchanged.
#pragma once

#include <string>
#include <vector>

#include "net/radio.hpp"

namespace resloc::fault {

/// Per-campaign fault configuration. All rates default to 0 (no faults).
struct FaultPlan {
  // --- Network faults (consumed via apply_to_radio / net::Network; no
  // campaign builds a Network, so a sweep never reads these). ---
  /// Probability an in-range radio delivery is dropped.
  double packet_loss_probability = 0.0;
  /// Poisson arrival rate of channel-wide loss bursts (jamming windows).
  double loss_burst_rate_hz = 0.0;
  /// Duration of each loss burst, seconds.
  double loss_burst_duration_s = 0.0;

  // --- Node availability faults (round-granular campaign schedules). ---
  /// Fraction of nodes that crash mid-campaign: a crashed node neither
  /// chirps nor listens from its crash round (always >= 1) onward.
  double node_crash_rate = 0.0;
  /// Fraction of nodes that sleep through a contiguous window of rounds
  /// (duty cycling / brown-out) and come back afterwards.
  double node_sleep_rate = 0.0;

  // --- Sensor faults (persistent per-unit hardware failures). ---
  /// Fraction of microphones forced faulty (persistent wide-band noise,
  /// the acoustics::MicUnit fault model).
  double faulty_mic_rate = 0.0;
  /// Fraction of receivers whose detector latches a constant near-zero
  /// arrival regardless of the true distance. Self-consistent across
  /// rounds -- exactly the failure the bidirectional consistency check
  /// (Section 3.5) exists to catch.
  double stuck_detector_rate = 0.0;

  // --- Measurement faults (per directed (round, source, receiver) draw). ---
  /// Probability a directed ranging attempt produces nothing at all.
  double missed_chirp_rate = 0.0;
  /// Probability a successful estimate is corrupted before it reaches the
  /// filters.
  double corrupt_distance_rate = 0.0;
  /// Of the corruptions, the fraction replaced by NaN; the rest become
  /// multiplicative outliers.
  double corrupt_nan_fraction = 0.5;
  /// Outlier corruption multiplies the estimate by uniform(2, 1 + this).
  double outlier_scale = 4.0;

  /// True when any fault can fire. The inert default plan keeps every
  /// existing byte-stream untouched (the injector draws nothing).
  bool enabled() const;
};

/// The sweep-axis vocabulary, sorted: "all", "corrupt_distance",
/// "faulty_mic", "missed_chirp", "node_crash", "node_sleep", "none",
/// "packet_loss", "stuck_detector".
std::vector<std::string> fault_kind_names();

/// Builds the plan for one named fault kind at the given intensity (1.0 =
/// the kind's calibrated base rate; rates scale linearly and clamp at their
/// physical caps). "none" returns the inert plan; "all" enables every kind
/// at half its single-kind rate. Throws std::invalid_argument for an unknown
/// kind or a negative intensity.
FaultPlan plan_from_kind(const std::string& kind, double intensity);

/// Projects the plan's network faults onto radio parameters (loss
/// probability is the max of the existing value and the plan's).
void apply_to_radio(const FaultPlan& plan, net::RadioParams& radio);

}  // namespace resloc::fault
