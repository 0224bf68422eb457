#include "acoustics/tone_detector.hpp"

#include <algorithm>
#include <cmath>

#include "acoustics/propagation.hpp"

namespace resloc::acoustics {

ToneDetectorModel::ToneDetectorModel(EnvironmentProfile env, double sample_rate_hz)
    : env_(std::move(env)), sample_rate_hz_(sample_rate_hz) {}

void sample_bracket(double window_start_s, double dt, std::size_t num_samples, double start_s,
                    double end_s, std::size_t& lo, std::size_t& hi) {
  const double n = static_cast<double>(num_samples);
  const double lo_d = std::min(n, std::max(0.0, std::floor((start_s - window_start_s) / dt) - 1.0));
  const double hi_d = std::min(n, std::max(0.0, std::ceil((end_s - window_start_s) / dt) + 1.0));
  lo = static_cast<std::size_t>(lo_d);
  hi = static_cast<std::size_t>(hi_d);
}

SampleSpan interval_sample_span(double window_start_s, double dt, std::size_t num_samples,
                                double start_s, double end_s) {
  std::size_t lo = 0, hi = 0;
  sample_bracket(window_start_s, dt, num_samples, start_s, end_s, lo, hi);
  // Refine the conservative bracket to the exact predicate range. t(i) is
  // strictly increasing, so {i : t >= start && t < end} is contiguous; the
  // bracket has ~one sample of slack per side, so each loop runs a couple of
  // iterations at most. The comparisons are the exact ones the per-sample
  // predicate applied, evaluated on the identical t(i) expression.
  const auto t = [&](std::size_t i) {
    return window_start_s + static_cast<double>(i) * dt;
  };
  while (lo < hi && t(lo) < start_s) ++lo;
  while (hi > lo && t(hi - 1) >= end_s) --hi;
  return {lo, hi};
}

void ToneDetectorModel::fire_runs(const ReceivedWindow& window, std::size_t num_samples,
                                  const MicUnit& mic, DetectorScratch& scratch,
                                  std::vector<resloc::math::BernoulliRun>& runs) const {
  const double dt = sample_period_s();

  // Off-tone probabilities are per-window constants; a faulty mic's floor is
  // folded in before thresholding (threshold-of-max == max-of-thresholds,
  // the conversion is monotone).
  double base_rate = env_.false_positive_rate;
  double burst_rate = env_.noise_burst_false_positive_rate;
  if (mic.faulty) {
    base_rate = std::max(base_rate, kFaultyMicFalsePositiveRate);
    burst_rate = std::max(burst_rate, kFaultyMicFalsePositiveRate);
  }
  const std::uint64_t base_threshold = resloc::math::Rng::bernoulli_threshold(base_rate);
  const std::uint64_t burst_threshold = resloc::math::Rng::bernoulli_threshold(burst_rate);

  // Every non-empty interval span with its threshold; one
  // detection_probability call per tone interval instead of per sample.
  std::vector<FireSpan>& spans = scratch.fire_spans;
  std::vector<std::size_t>& edges = scratch.fire_edges;
  spans.clear();
  edges.assign({0, num_samples});
  const auto add_span = [&](double start_s, double end_s, std::uint64_t threshold, bool tone) {
    const SampleSpan span =
        interval_sample_span(window.start_s, dt, num_samples, start_s, end_s);
    if (span.lo >= span.hi) return;
    spans.push_back({span.lo, span.hi, threshold, tone});
    edges.push_back(span.lo);
    edges.push_back(span.hi);
  };
  for (const NoiseBurst& b : window.bursts) add_span(b.start_s, b.end_s, burst_threshold, false);
  for (const SignalInterval& s : window.signals) {
    add_span(s.start_s, s.end_s,
             resloc::math::Rng::bernoulli_threshold(detection_probability(s.snr_db)), true);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  // The edges include every span's, so a span covers each stretch between
  // consecutive edges wholly or not at all. Tones override the noise floors
  // entirely and combine by max; bursts override the base rate.
  runs.clear();
  for (std::size_t k = 0; k + 1 < edges.size(); ++k) {
    const std::size_t lo = edges[k];
    const std::size_t hi = edges[k + 1];
    bool tone = false;
    bool burst = false;
    std::uint64_t tone_threshold = 0;
    for (const FireSpan& span : spans) {
      if (span.lo > lo || span.hi < hi) continue;
      if (span.tone) {
        tone = true;
        tone_threshold = std::max(tone_threshold, span.threshold);
      } else {
        burst = true;
      }
    }
    const std::uint64_t threshold =
        tone ? tone_threshold : burst ? burst_threshold : base_threshold;
    if (!runs.empty() && runs.back().threshold == threshold) {
      runs.back().end = hi;
    } else {
      runs.push_back({hi, threshold});
    }
  }
}

}  // namespace resloc::acoustics
