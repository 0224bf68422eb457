// Matched-filter chirp detection by normalized cross-correlation (NCC).
//
// The Section 3.7 software path runs a 36-sample single-bin DFT and thresholds
// against a Parseval noise estimate -- cheap, but its short window integrates
// only ~28% of an 8 ms chirp and its detection statistic says nothing about
// *where* within a firing run the chirp actually started. This detector
// correlates the raw sampled window against the full-length chirp template --
// the RangingService's sin/cos tone tables, the same ones synthesis mixes --
// and normalizes by the local signal energy, giving:
//   - ~10*log10(128/36) = 5.5 dB more processing gain than the Goertzel
//     window, so weak direct arrivals are still seen when only their echo
//     clears the tone detector's threshold;
//   - an amplitude-invariant statistic in [0, 1] (1 = pure in-band tone,
//     noise floor ~ sqrt(2/L)), so one threshold serves every SNR;
//   - a peak whose *position* is the chirp onset: NCC rises as
//     sqrt(overlap fraction) while the template slides into the chirp and
//     falls once it slides past, so the leftmost local maximum above the
//     threshold is the group-delay-compensated first arrival. Thresholding
//     the rising edge instead would fire up to L*(1 - threshold^2) samples
//     early -- the reason this detector marks picked peaks, not crossings.
//
// Because the chirp is a constant-frequency tone, the correlation against the
// quadrature pair (sin, cos) collapses to prefix sums of x[k]*sin(w*k),
// x[k]*cos(w*k) and x[k]^2: O(n) for the whole window regardless of template
// length, against O(n*L) for a naive matched filter.
//
// Output protocol: detected onsets are marked as short plateaus in the same
// fired bitmask the hardware and Goertzel detectors emit, so the 4-bit
// accumulation + (T, k, m) detect-signal machinery downstream is shared by
// all three modes unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "acoustics/signal_synth.hpp"

namespace resloc::ranging {

/// Batch NCC chirp detector over one sampled window. Holds only reusable
/// prefix-sum buffers; all tone knowledge comes from the template view passed
/// per call, so one instance serves any (frequency, rate) and a campaign
/// scratch keeps exactly one.
class MatchedFilterNcc {
 public:
  /// Detection threshold on the NCC statistic. Unit noise alone sits near
  /// sqrt(2/L) ~ 0.125 for L = 128; a clean tone reaches ~1. 0.45 means
  /// "~20% of the window energy is coherent with the template", which an
  /// SNR of about -6 dB already provides -- comfortably below the software
  /// tone detector's operating point, which is the margin that lets NCC
  /// recover direct arrivals whose echoes alone trip the Goertzel path.
  static constexpr double kDefaultThreshold = 0.45;

  /// Samples marked per picked peak. Must be >= the detect-signal
  /// min_detections in use (the campaign default k = 6) so a plateau alone
  /// satisfies the window-density test after accumulation.
  static constexpr int kDefaultPeakPlateau = 8;

  explicit MatchedFilterNcc(double threshold = kDefaultThreshold,
                            int peak_plateau = kDefaultPeakPlateau);

  /// Scans `x[0, n)` for chirp onsets by NCC against `tpl` (template length
  /// `chirp_samples`; `tpl` must cover at least n samples) and writes the
  /// mark bitmask `marks` ((n + 63) / 64 caller-allocated words, bit i of
  /// marks[i / 64] for sample i): a `peak_plateau`-bit run of 1s, clipped
  /// at n, at every picked onset and 0 everywhere else.
  void detect_into(const double* x, std::size_t n, std::size_t chirp_samples,
                   const acoustics::ToneTemplateView& tpl, std::uint64_t* marks);

  /// Picked onset offsets of the last detect_into call (before plateau
  /// rasterization), in ascending order.
  const std::vector<std::size_t>& peaks() const { return peaks_; }

  /// NCC series of the last detect_into call: ncc()[i] is the statistic for
  /// the window [i, i + L); empty when that window was shorter than the
  /// template. Read by the service equivalence test, which compares it with
  /// the scalar reference's series, so a kernel change that moves no pick
  /// still shows.
  const std::vector<double>& ncc() const { return ncc_; }

 private:
  /// Fills ncc_ and peaks_ for one window; returns false when the window is
  /// shorter than the template (no scan possible).
  bool scan(const double* x, std::size_t n, std::size_t chirp_samples,
            const acoustics::ToneTemplateView& tpl);

  double threshold_;
  int peak_plateau_;
  std::vector<std::size_t> peaks_;
  // Prefix sums over the window: sum x*sin, sum x*cos, sum x^2 (size n + 1).
  std::vector<double> prefix_sin_;
  std::vector<double> prefix_cos_;
  std::vector<double> prefix_energy_;
  // NCC statistic per lag (size n - L + 1), read by the peak pick's
  // neighbourhood test.
  std::vector<double> ncc_;
};

}  // namespace resloc::ranging
