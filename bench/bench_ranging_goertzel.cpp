// Goertzel fast path vs the naive direct DFT: the hot-path numbers behind the
// acoustic sweep axis.
//
// Five stages of the per-pair ranging cost are timed:
//   1. single-bin tone filtering: the test-only reference::DirectDftFilter
//      (O(window) per sample, the cost a naive per-chirp-per-pair DFT pays)
//      against the Goertzel sliding recurrence (O(1) per sample) as the
//      software-detector path runs it, GoertzelToneDetector::run_block over
//      2,000-sample windows, plus a max |delta magnitude| equivalence check
//      of GoertzelSlidingFilter, the same recurrence one sample at a time;
//   2. the full RangingService::measure() pair loop: fresh buffers per pair
//      against one reused RangingScratch. On the hardware-detector path the
//      interval model dominates and reuse is roughly cost-neutral (the JSON
//      records the honest number);
//   3. the same pair loop in software-detector mode (Section 3.7), where a
//      fresh scratch per pair also reallocates every per-window DSP buffer
//      and the Goertzel detector copy (the tone tables live in the service);
//   4. the sampled-audio noise fill: ns per standard normal from
//      Rng::fill_gaussian_block (ziggurat over the lane-split uniform block)
//      against scalar Rng::gaussian() (Box-Muller);
//   5. the hardware detector's Bernoulli mask: ns per sample from the
//      dispatched Rng::fill_bernoulli_mask_block against the portable
//      variant, on acoustic_scale-shaped windows (1,164 samples, 3 runs).
//
// Every speedup is the median per-rep ratio of interleaved reps
// (bench::paired). Results are printed and written as JSON (default
// BENCH_ranging.json, or argv[1]). The exit code gates the machine-independent
// ratios: Goertzel >= 5x the direct DFT within 1e-9, and the block noise fill
// >= 3x scalar gaussian().
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "acoustics/signal_synth.hpp"
#include "bench_util.hpp"
#include "ranging/dft_detector.hpp"
#include "math/bernoulli_mask_kernels.hpp"
#include "math/rng.hpp"
#include "ranging/ranging_service.hpp"
#include "reference/dft.hpp"
#include "sim/scenarios.hpp"

using namespace resloc;

namespace {

volatile double g_sink = 0.0;  // keeps the timed loops from being optimized away

/// Fresh buffers per pair against one reused scratch over `pairs` measures,
/// 9 interleaved reps; prints us/pair and the per-rep speedup under `title`.
bench::Paired time_buffer_reuse(const char* title, const ranging::RangingService& service,
                                int pairs) {
  const auto loop = [&](bool reuse) {
    return [&, reuse] {
      math::Rng r(7);
      ranging::RangingScratch scratch;
      double sum = 0.0;
      for (int i = 0; i < pairs; ++i) {
        if (!reuse) scratch = ranging::RangingScratch{};  // frees last pair's buffers
        sum += service.measure(5.0 + (i % 12), {}, {}, r, scratch).distance_m.value_or(0.0);
      }
      g_sink = sum;
    };
  };
  const bench::Paired t = bench::paired(9, loop(false), loop(true));
  const bench::Quartiles fresh = t.a_s.scaled(1e6 / pairs);
  const bench::Quartiles reused = t.b_s.scaled(1e6 / pairs);
  std::printf("\n%s, %d pairs\n"
              "  fresh buffers       %8.2f us/pair  (q1-q3 %.2f-%.2f)\n"
              "  reused scratch      %8.2f us/pair  (q1-q3 %.2f-%.2f)\n"
              "  speedup             %8.2fx  (median per-rep ratio of 9, q1-q3 %.2f-%.2fx)\n",
              title, pairs, fresh.median, fresh.q1, fresh.q3, reused.median, reused.q1,
              reused.q3, t.ratio.median, t.ratio.q1, t.ratio.q3);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_ranging.json";
  bench::print_banner("Goertzel fast path vs direct DFT (acoustic sweep hot path)");

  // --- Stage 1: single-bin filtering over a long noisy capture ---
  constexpr std::size_t kSamples = 1 << 18;  // ~16 s of 16 kHz audio
  acoustics::WaveformSpec spec;
  spec.tone_frequency_hz = 4300.0;
  spec.tone_amplitude = 1.0;  // unit amplitude keeps the equivalence check tight
  spec.noise_stddev = 0.45;
  math::Rng rng(0xBE2C);
  const std::vector<double> wave = acoustics::synthesize_waveform(
      spec, acoustics::periodic_chirps(kSamples / 420, 100, 420, 128), kSamples, rng);

  const int bin = ranging::nearest_bin(spec.tone_frequency_hz, spec.sample_rate_hz,
                                       ranging::SlidingDftFilter::kWindow);
  constexpr std::size_t kGoertzelWindow = 2000;
  std::vector<double> metric(kGoertzelWindow);
  const bench::Paired filter = bench::paired(
      5,
      [&] {
        reference::DirectDftFilter f(ranging::SlidingDftFilter::kWindow, bin);
        double sum = 0.0;
        for (double s : wave) sum += f.step(s);
        g_sink = sum;
      },
      [&] {
        // Each window starts from a reset detector, as each chirp window of
        // the service starts from a fresh copy of its detector.
        ranging::GoertzelToneDetector detector(spec.tone_frequency_hz, spec.sample_rate_hz);
        double sum = 0.0;
        for (std::size_t first = 0; first < kSamples; first += kGoertzelWindow) {
          const std::size_t n = std::min(kGoertzelWindow, kSamples - first);
          detector.reset();
          detector.run_block(wave.data() + first, n, metric.data());
          sum += metric[n - 1];
        }
        g_sink = sum;
      });

  // Equivalence: the fast path must not drift from the direct sum.
  double max_delta = 0.0;
  {
    reference::DirectDftFilter direct(ranging::SlidingDftFilter::kWindow, bin);
    ranging::GoertzelSlidingFilter fast(ranging::SlidingDftFilter::kWindow, bin);
    for (double s : wave) {
      const double d = std::abs(std::sqrt(direct.step(s)) - std::sqrt(fast.step(s)));
      if (d > max_delta) max_delta = d;
    }
  }

  const double per_sample_ns = 1e9 / static_cast<double>(kSamples);
  std::printf("single-bin filter, %zu samples, window %zu, bin %d\n", kSamples,
              ranging::SlidingDftFilter::kWindow, bin);
  std::printf("  direct DFT          %8.2f ns/sample\n", filter.a_s.median * per_sample_ns);
  std::printf("  Goertzel run_block  %8.2f ns/sample  (%zu-sample windows)\n",
              filter.b_s.median * per_sample_ns, kGoertzelWindow);
  std::printf("  speedup             %8.2fx   (median per-rep ratio of 5; target >= 5x)\n",
              filter.ratio.median);
  std::printf("  max |delta magnitude|  %.3e  (bound 1e-9)\n", max_delta);

  // --- Stage 2: full ranging sequences with and without buffer reuse ---
  const ranging::RangingService service(sim::grass_refined_ranging());
  constexpr int kPairs = 150;
  const bench::Paired measure =
      time_buffer_reuse("full ranging sequence (grass refined service)", service, kPairs);

  // --- Stage 3: software-detector (Section 3.7) pair loop ---
  ranging::RangingConfig sw_config = sim::grass_refined_ranging();
  sw_config.detector_mode = ranging::DetectorMode::kGoertzel;
  const ranging::RangingService sw_service(sw_config);
  constexpr int kSwPairs = 40;
  const bench::Paired software =
      time_buffer_reuse("software-detector sequence (Goertzel)", sw_service, kSwPairs);

  // --- Stage 4: sampled-audio noise fill (block ziggurat vs scalar) ---
  constexpr std::size_t kNoiseBlock = 1163;  // one sampled-audio chirp window
  constexpr int kNoiseBlocks = 512;
  constexpr double kNormals = static_cast<double>(kNoiseBlock) * kNoiseBlocks;
  std::vector<double> noise(kNoiseBlock);
  const auto noise_loop = [&](bool block) {
    return [&, block] {
      math::Rng r(11);
      double sum = 0.0;
      for (int b = 0; b < kNoiseBlocks; ++b) {
        if (block) {
          r.fill_gaussian_block(noise.data(), kNoiseBlock);
        } else {
          for (std::size_t i = 0; i < kNoiseBlock; ++i) noise[i] = r.gaussian();
        }
        sum += noise[b % kNoiseBlock];
      }
      g_sink = sum;
    };
  };
  const bench::Paired noise_fill = bench::paired(5, noise_loop(false), noise_loop(true));
  const double ns_per_normal = 1e9 / kNormals;
  std::printf("\nnoise fill, %d blocks of %zu standard normals\n", kNoiseBlocks, kNoiseBlock);
  std::printf("  scalar gaussian()   %8.2f ns/normal\n", noise_fill.a_s.median * ns_per_normal);
  std::printf("  fill_gaussian_block %8.2f ns/normal\n", noise_fill.b_s.median * ns_per_normal);
  std::printf("  speedup             %8.2fx   (median per-rep ratio of 5; target >= 3x)\n",
              noise_fill.ratio.median);

  // --- Stage 5: hardware-detector Bernoulli mask (dispatched vs portable) ---
  // An acoustic_scale chirp window: base false-positive rate around one
  // tone interval.
  constexpr std::size_t kMaskWindow = 1164;
  constexpr int kMaskWindows = 2048;
  const std::vector<math::BernoulliRun> runs = {
      {410, math::Rng::bernoulli_threshold(0.012)},
      {790, math::Rng::bernoulli_threshold(0.93)},
      {kMaskWindow, math::Rng::bernoulli_threshold(0.012)}};
  std::vector<std::uint64_t> mask((kMaskWindow + 63) / 64);
  const auto mask_loop = [&](bool dispatched) {
    return [&, dispatched] {
      math::Rng r(13);
      std::uint64_t& state = math::RngState::state(r);
      const std::uint64_t inc = math::RngState::inc(r);
      std::uint64_t fired = 0;
      for (int w = 0; w < kMaskWindows; ++w) {
        if (dispatched) {
          r.fill_bernoulli_mask_block(runs, kMaskWindow, mask.data());
        } else {
          state = math::bernoulli_mask::portable(state, inc, runs.data(), kMaskWindow,
                                                 mask.data());
        }
        fired += mask[static_cast<std::size_t>(w) % mask.size()];
      }
      g_sink = static_cast<double>(fired);
    };
  };
  const bench::Paired bernoulli = bench::paired(9, mask_loop(false), mask_loop(true));
  const double ns_per_mask_sample = 1e9 / (static_cast<double>(kMaskWindow) * kMaskWindows);
  std::printf("\nBernoulli mask, %d windows of %zu samples in %zu runs\n", kMaskWindows,
              kMaskWindow, runs.size());
  std::printf("  portable            %8.3f ns/sample\n", bernoulli.a_s.median * ns_per_mask_sample);
  std::printf("  dispatched          %8.3f ns/sample\n", bernoulli.b_s.median * ns_per_mask_sample);
  std::printf("  speedup             %8.2fx   (median per-rep ratio of 9)\n",
              bernoulli.ratio.median);

  const double measure_us = 1e6 / kPairs;
  const double software_us = 1e6 / kSwPairs;
  const bool written =
      bench::record("bench_ranging_goertzel")
          .set("filter_samples", kSamples)
          .set("filter_window", ranging::SlidingDftFilter::kWindow)
          .set("filter_bin", bin)
          .set("goertzel_window_samples", kGoertzelWindow)
          .set("direct_dft_ns_per_sample", filter.a_s.scaled(per_sample_ns))
          .set("goertzel_ns_per_sample", filter.b_s.scaled(per_sample_ns))
          .set("filter_speedup", filter.ratio)
          .set("max_abs_magnitude_delta", max_delta)
          .set("measure_pairs", kPairs)
          .set("measure_alloc_us_per_pair", measure.a_s.scaled(measure_us))
          .set("measure_scratch_us_per_pair", measure.b_s.scaled(measure_us))
          .set("measure_speedup", measure.ratio)
          .set("software_pairs", kSwPairs)
          .set("software_alloc_us_per_pair", software.a_s.scaled(software_us))
          .set("software_scratch_us_per_pair", software.b_s.scaled(software_us))
          .set("software_speedup", software.ratio)
          .set("noise_scalar_ns_per_normal", noise_fill.a_s.scaled(ns_per_normal))
          .set("noise_block_ns_per_normal", noise_fill.b_s.scaled(ns_per_normal))
          .set("noise_speedup", noise_fill.ratio)
          .set("bernoulli_mask_window_samples", kMaskWindow)
          .set("bernoulli_mask_runs", runs.size())
          .set("bernoulli_mask_portable_ns_per_sample", bernoulli.a_s.scaled(ns_per_mask_sample))
          .set("bernoulli_mask_ns_per_sample", bernoulli.b_s.scaled(ns_per_mask_sample))
          .set("bernoulli_mask_speedup", bernoulli.ratio)
          .write(json_path);
  return bench::exit_code(
      written, {{"Goertzel speedup >= 5x", filter.ratio.median >= 5.0},
                {"Goertzel drift < 1e-9", max_delta < 1e-9},
                {"block noise fill speedup >= 3x", noise_fill.ratio.median >= 3.0}});
}
