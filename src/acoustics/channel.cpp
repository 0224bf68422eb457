#include "acoustics/channel.hpp"

#include <algorithm>
#include <cmath>

#include "acoustics/propagation.hpp"

namespace resloc::acoustics {

LinkResponse link_response(double distance_m, const EnvironmentProfile& env) {
  // The same constants and association order as propagation.hpp's
  // received_level_db, split at the distance-dependent seam.
  constexpr double kReferenceDistanceM = 0.1;
  const double d = std::max(distance_m, kReferenceDistanceM);
  LinkResponse link;
  link.distance_m = distance_m;
  link.spreading_db = 20.0 * std::log10(d / kReferenceDistanceM);
  link.excess_db = env.excess_attenuation_db_per_m * d;  // d, not distance_m:
  // received_level_db applies the excess term to the clamped distance too.
  link.travel_s = distance_m / env.speed_of_sound_mps;
  return link;
}

void realize_exchange(ExchangeChannel& exchange, const std::vector<double>& starts,
                      double chirp_duration_s, const LinkResponse& link, const SpeakerUnit& speaker,
                      const MicUnit& mic, const EnvironmentProfile& env,
                      const ChannelJitter& jitter, resloc::math::Rng& rng) {
  std::vector<SignalInterval>& signals = exchange.signals;
  signals.clear();

  // Bit-identical recomposition of propagation.hpp's snr_db:
  //   received = (source - spreading) - excess; snr = (received + sens) - floor
  // with the cached spreading/excess terms standing in for the per-call
  // log10 and multiply.
  const double direct_snr =
      (((speaker.effective_db() - link.spreading_db) - link.excess_db) +
       mic.sensitivity_db) -
      env.noise_floor_db;
  const double travel_s = link.travel_s;

  for (const double start_s : starts) {
    // Direct path. The audible start carries the speaker's unit-specific
    // onset offset plus per-chirp power-up jitter (both relative to the
    // calibrated mean, hence possibly negative). The first `rampup_s` of the
    // chirp plays below full level while the speaker powers up.
    const double audible_start = start_s + travel_s + speaker.onset_delay_s +
                                 rng.gaussian(0.0, jitter.actuation_jitter_s);
    const double audible_end = start_s + travel_s + chirp_duration_s;
    const double ramp_end = std::min(audible_start + jitter.rampup_s, audible_end);
    if (ramp_end > audible_start) {
      signals.push_back({audible_start, ramp_end, direct_snr - jitter.rampup_penalty_db});
    }
    if (audible_end > ramp_end) signals.push_back({ramp_end, audible_end, direct_snr});

    // Fixed reflector (deterministic, consumes no RNG): one echo per chirp at
    // a constant extra lag. Because the lag never varies, these echoes stay
    // aligned across accumulation windows -- unlike the random echoes below,
    // which the pattern's random inter-chirp delays decorrelate.
    if (env.fixed_echo_lag_s > 0.0) {
      const double echo_start = start_s + travel_s + env.fixed_echo_lag_s;
      signals.push_back({echo_start, echo_start + chirp_duration_s,
                         direct_snr - env.fixed_echo_attenuation_db});
    }

    // Echoes: a Poisson-ish number of delayed, attenuated copies. The delay
    // is drawn per chirp, which is exactly why the paper's random inter-
    // chirp delays decorrelate echo positions across accumulation rounds.
    double remaining = env.echo_rate;
    while (remaining > 0.0 && rng.bernoulli(std::min(remaining, 1.0))) {
      remaining -= 1.0;
      const double delay = rng.exponential(1.0 / env.echo_delay_mean_s);
      const double echo_snr = direct_snr - env.echo_attenuation_db + rng.gaussian(0.0, 2.0);
      const double echo_start = start_s + travel_s + delay;
      signals.push_back({echo_start, echo_start + chirp_duration_s, echo_snr});
    }
  }

  std::sort(signals.begin(), signals.end(),
            [](const SignalInterval& a, const SignalInterval& b) { return a.start_s < b.start_s; });
  exchange.reach_s.clear();
  for (const SignalInterval& s : signals) {
    exchange.reach_s.push_back(
        exchange.reach_s.empty() ? s.end_s : std::max(exchange.reach_s.back(), s.end_s));
  }
}

void clip_window(ReceivedWindow& window, const ExchangeChannel& exchange, double window_start_s,
                 double window_duration_s) {
  window.signals.clear();
  window.bursts.clear();
  window.start_s = window_start_s;
  window.duration_s = window_duration_s;
  const double window_end = window_start_s + window_duration_s;

  // Every interval before the first whose reach passes the window start
  // ends at or before it; from there, scan until the starts pass the end.
  const auto first = std::upper_bound(exchange.reach_s.begin(), exchange.reach_s.end(),
                                      window_start_s) -
                     exchange.reach_s.begin();
  for (auto i = static_cast<std::size_t>(first); i < exchange.signals.size(); ++i) {
    const SignalInterval& s = exchange.signals[i];
    if (s.start_s >= window_end) break;
    if (s.end_s > window_start_s) window.signals.push_back(s);
  }
}

void draw_noise_bursts(ReceivedWindow& window, const EnvironmentProfile& env,
                       resloc::math::Rng& rng) {
  if (env.noise_burst_rate_hz <= 0.0) return;
  const double window_end = window.start_s + window.duration_s;
  double t = window.start_s + rng.exponential(env.noise_burst_rate_hz);
  while (t < window_end) {
    window.bursts.push_back({t, t + env.noise_burst_duration_s});
    t += rng.exponential(env.noise_burst_rate_hz);
  }
}

}  // namespace resloc::acoustics
