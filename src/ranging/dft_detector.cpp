#include "ranging/dft_detector.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "math/constants.hpp"

namespace resloc::ranging {

int nearest_bin(double tone_frequency_hz, double sample_rate_hz, std::size_t window) {
  return static_cast<int>(
      std::lround(tone_frequency_hz / sample_rate_hz * static_cast<double>(window)));
}

GoertzelSlidingFilter::GoertzelSlidingFilter(std::size_t window, int bin)
    : samples_(window, 0.0), cos_(window), sin_(window), bin_(bin) {
  assert(window > 0);
  for (std::size_t i = 0; i < window; ++i) {
    const double angle = 2.0 * resloc::math::kPi * static_cast<double>(bin) *
                         static_cast<double>(i) / static_cast<double>(window);
    cos_[i] = std::cos(angle);
    sin_[i] = std::sin(angle);
  }
}

template <typename Emit>
void GoertzelSlidingFilter::run(const double* x, std::size_t n, Emit&& emit) {
  double* const ring = samples_.data();
  const double* const cos_t = cos_.data();
  const double* const sin_t = sin_.data();
  const std::size_t window = samples_.size();
  std::size_t at = n_;
  std::size_t since_resync = steps_since_resync_;
  double re = re_;
  double im = im_;
  double energy = energy_;
  const auto slide = [&](double sample) {
    const double old = ring[at];
    const double delta = sample - old;
    ring[at] = sample;
    // One complex multiply-accumulate: the new sample and the one it evicts
    // sit a whole window apart, so they share the twiddle factor at `at`.
    re += delta * cos_t[at];
    im -= delta * sin_t[at];
    energy += sample * sample - old * old;
  };
  for (std::size_t i = 0; i < n;) {
    // Samples that neither wrap the ring nor complete a resync period run
    // without either check; the one that does takes both.
    const std::size_t plain =
        std::min({window - 1 - at, kResyncPeriod - 1 - since_resync, n - i});
    for (const std::size_t end = i + plain; i < end; ++i) {
      slide(x[i]);
      ++at;
      emit(i, re * re + im * im, energy);
    }
    since_resync += plain;
    if (i == n) break;
    slide(x[i]);
    if (++at == window) at = 0;
    if (++since_resync == kResyncPeriod) {
      resync();
      re = re_;
      im = im_;
      energy = energy_;
      since_resync = 0;
    }
    emit(i++, re * re + im * im, energy);
  }
  n_ = at;
  steps_since_resync_ = since_resync;
  re_ = re;
  im_ = im;
  energy_ = energy;
}

double GoertzelSlidingFilter::step(double sample) {
  double power = 0.0;
  run(&sample, 1, [&power](std::size_t, double band_power, double) { power = band_power; });
  return power;
}

void GoertzelSlidingFilter::resync() {
  // Exact recomputation of the incremental sums; kills accumulated rounding
  // (and the energy sum's catastrophic-cancellation residue) so the filter
  // tracks the direct sum to ~1e-12 indefinitely. Summed in locals: the
  // ring's stores could otherwise alias the members on every step.
  double re = 0.0;
  double im = 0.0;
  double energy = 0.0;
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    re += samples_[i] * cos_[i];
    im -= samples_[i] * sin_[i];
    energy += samples_[i] * samples_[i];
  }
  re_ = re;
  im_ = im;
  energy_ = energy;
  steps_since_resync_ = 0;
}

void GoertzelSlidingFilter::reset() {
  samples_.assign(samples_.size(), 0.0);
  n_ = 0;
  steps_since_resync_ = 0;
  re_ = im_ = energy_ = 0.0;
}

GoertzelToneDetector::GoertzelToneDetector(double tone_frequency_hz, double sample_rate_hz)
    : filter_(SlidingDftFilter::kWindow,
              nearest_bin(tone_frequency_hz, sample_rate_hz, SlidingDftFilter::kWindow)) {}

namespace {

/// Same automatic noise estimate as DftToneDetector: Parseval window energy
/// scaled by the correlation margin, plus the tiny absolute floor against
/// cancellation residue on an all-zero window.
inline double goertzel_metric(double band_power, double window_energy) {
  constexpr double kNumericFloor = 1e-6;
  return band_power - kToneNoiseScale * window_energy - kNumericFloor;
}

}  // namespace

double GoertzelToneDetector::step(double sample) {
  double metric = 0.0;
  run_block(&sample, 1, &metric);
  return metric;
}

void GoertzelToneDetector::run_block(const double* x, std::size_t n, double* metric) {
  filter_.run(x, n, [metric](std::size_t i, double band_power, double window_energy) {
    metric[i] = goertzel_metric(band_power, window_energy);
  });
}

void GoertzelToneDetector::reset() { filter_.reset(); }

void SlidingDftFilter::reset() {
  samples_.fill(0.0);
  n_ = 0;
  k_ = 0;
  re4_ = im4_ = re6_ = im6_ = 0.0;
  energy_ = 0.0;
}

BandPowers SlidingDftFilter::filter(double sample) {
  // Figure 9: "sample -= samples[n], samples[n] += sample" -- i.e. compute
  // the delta against the value leaving the window and store the new value.
  const double old = samples_[n_];
  const double delta = sample - old;
  samples_[n_] = sample;
  energy_ += sample * sample - old * old;

  switch (n_ % 4) {
    case 0: re4_ += delta; break;
    case 1: im4_ += delta; break;
    case 2: re4_ -= delta; break;
    default: im4_ -= delta; break;
  }
  switch (k_) {
    case 0: re6_ += 2.0 * delta; break;
    case 1: re6_ += delta; im6_ += delta; break;
    case 2: re6_ -= delta; im6_ += delta; break;
    case 3: re6_ -= 2.0 * delta; break;
    case 4: re6_ -= delta; im6_ -= delta; break;
    default: re6_ += delta; im6_ -= delta; break;
  }

  n_ = (n_ + 1) % kWindow;
  k_ = (k_ + 1) % 6;

  return {re4_ * re4_ + im4_ * im4_, (re6_ * re6_ + 3.0 * im6_ * im6_) / 2.0};
}

DftToneDetector::DftToneDetector(int band) : band_(band) {
  assert(band == 4 || band == 6);
}

double DftToneDetector::step(double sample) {
  const BandPowers powers = filter_.filter(sample);
  // The Figure 9 scaling makes band_fs6 carry twice the power of band_fs4
  // for equivalent tones; normalize so one noise estimate fits both.
  const double band_power = band_ == 4 ? powers.band_fs4 : powers.band_fs6 / 2.0;
  // Parseval: the window's total energy equals the mean DFT bin power, which
  // is the automatic noise estimate the paper describes. The tiny absolute
  // floor keeps sliding-update cancellation residue from reading as a
  // positive detection on an all-zero window.
  constexpr double kNumericFloor = 1e-6;
  return band_power - kToneNoiseScale * filter_.window_energy() - kNumericFloor;
}

std::vector<double> DftToneDetector::run(const std::vector<double>& waveform) {
  std::vector<double> metric;
  metric.reserve(waveform.size());
  for (double s : waveform) metric.push_back(step(s));
  return metric;
}

int DftToneDetector::count_detections(const std::vector<double>& metric, int min_run,
                                      int merge_gap) {
  // A detection region opens when a run of `min_run` positive samples occurs
  // outside any region, and closes after more than `merge_gap` consecutive
  // non-positive samples; shorter gaps merge runs into one detection.
  int detections = 0;
  int run = 0;
  int silence = 0;
  bool in_region = false;
  for (double m : metric) {
    if (m > 0.0) {
      ++run;
      silence = 0;
      if (!in_region && run >= min_run) {
        in_region = true;
        ++detections;
      }
    } else {
      run = 0;
      ++silence;
      if (in_region && silence > merge_gap) in_region = false;
    }
  }
  return detections;
}

void DftToneDetector::reset() { filter_.reset(); }

}  // namespace resloc::ranging
