// The acoustic channel: turns an emission schedule into the time intervals
// during which a tone is audible at a receiver, including multipath echoes
// and transient wide-band noise bursts.
//
// Error sources modeled here (Section 3.4 of the paper):
//   2. non-deterministic delays in acoustic devices (speaker power-up jitter),
//   4. signal attenuation (via propagation.hpp),
//   5. noise (burst windows with elevated false-positive probability),
//   6. echoes (delayed, attenuated copies; echoes of *earlier* chirps can
//      arrive before the direct signal of the current chirp and cause the
//      underestimates seen in Figure 2).
//
// Each chirp's power-up jitter and echoes are one event in the air that
// every chirp window of a ranging exchange hears, so realize_exchange()
// draws every chirp's intervals once per exchange and each window takes the
// slice it overlaps with clip_window() (no draws). Windows never overlap at
// the default range, so each draws its own noise bursts.
//
// Channel v2, the declared draw order of one exchange:
//   1. the chirp schedule (chirp_start_times_into);
//   2. realize_exchange, per chirp in schedule order: a
//      gaussian(0, actuation_jitter_s) onset jitter, then, with r =
//      echo_rate, while r > 0 and bernoulli(min(r, 1)): r -= 1, an
//      exponential(1 / echo_delay_mean_s) echo delay and a gaussian(0, 2)
//      echo SNR offset (the fixed echo draws nothing);
//   3. per chirp window in schedule order: a gaussian(0, sync_jitter_s) sync
//      error, draw_noise_bursts' exponential(noise_burst_rate_hz) gaps until
//      one passes the window end, then the detector's draws.
#pragma once

#include <vector>

#include "acoustics/environment.hpp"
#include "acoustics/units.hpp"
#include "math/rng.hpp"

namespace resloc::acoustics {

/// A time interval during which a tone (direct or echo) is audible, with its
/// SNR at the receiver.
struct SignalInterval {
  double start_s = 0.0;
  double end_s = 0.0;
  double snr_db = 0.0;
};

/// A time interval during which a wide-band noise burst elevates the tone
/// detector's false-positive probability.
struct NoiseBurst {
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Everything audible at one receiver during one sampling window.
struct ReceivedWindow {
  double start_s = 0.0;     ///< window start, same clock as emissions
  double duration_s = 0.0;
  std::vector<SignalInterval> signals;
  std::vector<NoiseBurst> bursts;
};

/// Tuning of the receiver-side timing jitter and speaker power-up behaviour.
struct ChannelJitter {
  /// Standard deviation of the speaker power-up / detector pick-up delay (s),
  /// per chirp. The *mean* of this delay is part of delta_const and is
  /// calibrated away, so the residual is modeled as symmetric around zero;
  /// 0.5 ms of timing jitter is ~17 cm of distance, giving the paper's
  /// zero-mean +/-30 cm error core.
  double actuation_jitter_s = 0.0005;

  /// Speaker power ramp-up: the first `rampup_s` of each chirp is emitted
  /// `rampup_penalty_db` below full level ("it may take some time before an
  /// analog sounder reaches its maximum output power level", Section 3.4).
  /// At marginal SNR the ramp is missed and detection slides into the chirp
  /// body -- the paper's over-estimation mechanism, which grows with chirp
  /// length (Section 3.6) and caps at the chirp's own acoustic length.
  double rampup_s = 0.003;
  double rampup_penalty_db = 5.0;
};

/// The distance-dependent pieces of the channel response, computed once per
/// (distance, environment) and reusable across every chirp window, round,
/// and direction of a link: the spreading loss (environment-independent),
/// the excess attenuation (linear in distance), and the acoustic travel
/// time. Everything else in the received SNR -- speaker level, shadowing,
/// mic sensitivity, noise floor -- varies per unit or per attempt and is
/// composed on top in exactly the association order propagation.hpp uses,
/// so cached and uncached realizations are bit-identical.
struct LinkResponse {
  double distance_m = 0.0;
  double spreading_db = 0.0;  ///< 20 * log10(max(d, 10 cm) / 10 cm)
  double excess_db = 0.0;     ///< env.excess_attenuation_db_per_m * d
  double travel_s = 0.0;      ///< d / env.speed_of_sound_mps
};

/// Computes the reusable channel response for one link distance.
LinkResponse link_response(double distance_m, const EnvironmentProfile& env);

/// The audible intervals of one ranging exchange at one receiver: every
/// chirp's direct signal (a ramp-up and a full-level segment), its fixed echo
/// and its random echoes, drawn once and shared by all chirp windows.
struct ExchangeChannel {
  std::vector<SignalInterval> signals;  ///< ascending start_s
  std::vector<double> reach_s;          ///< largest end_s of signals[0..i]
};

/// Realizes one exchange's channel (step 2 of channel v2) into `exchange`,
/// reusing its vectors: chirps of `chirp_duration_s` emitted at `starts`
/// (source-local time) over `link` = link_response(distance, env).
void realize_exchange(ExchangeChannel& exchange, const std::vector<double>& starts,
                      double chirp_duration_s, const LinkResponse& link, const SpeakerUnit& speaker,
                      const MicUnit& mic, const EnvironmentProfile& env,
                      const ChannelJitter& jitter, resloc::math::Rng& rng);

/// Sets `window` to [window_start_s, window_start_s + window_duration_s)
/// holding exactly the exchange intervals that overlap it (end_s > start and
/// start_s < end), in ascending start order, and no bursts. Draws nothing.
void clip_window(ReceivedWindow& window, const ExchangeChannel& exchange, double window_start_s,
                 double window_duration_s);

/// Appends the window's transient noise bursts: a Poisson process at
/// env.noise_burst_rate_hz over the window (nothing when the rate is 0).
void draw_noise_bursts(ReceivedWindow& window, const EnvironmentProfile& env,
                       resloc::math::Rng& rng);

}  // namespace resloc::acoustics
