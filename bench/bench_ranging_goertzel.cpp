// Goertzel fast path vs the naive direct DFT: the hot-path numbers behind the
// acoustic sweep axis.
//
// Four stages of the per-pair ranging cost are timed:
//   1. single-bin tone filtering: the test-only reference::DirectDftFilter
//      (O(window) per sample, the cost a naive per-chirp-per-pair DFT pays)
//      against GoertzelSlidingFilter (O(1) per sample), including a max
//      |delta magnitude| equivalence check;
//   2. the full RangingService::measure() pair loop: fresh buffers per pair
//      against one reused RangingScratch. On the hardware-detector path the
//      interval model dominates and reuse is roughly cost-neutral (the JSON
//      records the honest number);
//   3. the same pair loop in software-detector mode (Section 3.7), where a
//      fresh scratch per pair also reallocates every per-window DSP buffer
//      and the Goertzel detector copy (the tone tables live in the service);
//   4. the sampled-audio noise fill: ns per standard normal from
//      Rng::fill_gaussian_block (ziggurat over the lane-split uniform block)
//      against scalar Rng::gaussian() (Box-Muller).
//
// Results are printed and written as JSON (default BENCH_ranging.json, or
// argv[1]) so CI can archive the perf trajectory. The exit code gates the
// machine-independent ratios: Goertzel >= 5x the direct DFT within 1e-9, and
// the block noise fill >= 3x scalar gaussian().
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "acoustics/signal_synth.hpp"
#include "bench_util.hpp"
#include "eval/aggregate.hpp"
#include "ranging/dft_detector.hpp"
#include "math/rng.hpp"
#include "ranging/ranging_service.hpp"
#include "reference/dft.hpp"
#include "sim/scenarios.hpp"

using namespace resloc;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` wall time of `fn` (seconds). Best-of suppresses scheduler
/// noise without needing long runs.
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    fn();
    const double dt = now_s() - t0;
    if (dt < best) best = dt;
  }
  return best;
}

volatile double g_sink = 0.0;  // keeps the timed loops from being optimized away

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
  const double direct_s = best_of(5, [&] {
    reference::DirectDftFilter filter(ranging::SlidingDftFilter::kWindow, bin);
    double sum = 0.0;
    for (double s : wave) sum += filter.step(s);
    g_sink = sum;
  });
  const double goertzel_s = best_of(5, [&] {
    ranging::GoertzelSlidingFilter filter(ranging::SlidingDftFilter::kWindow, bin);
    double sum = 0.0;
    for (double s : wave) sum += filter.step(s);
    g_sink = sum;
  });
  const double filter_speedup = direct_s / goertzel_s;

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
  std::printf("  direct DFT          %8.2f ns/sample\n", direct_s * per_sample_ns);
  std::printf("  Goertzel sliding    %8.2f ns/sample\n", goertzel_s * per_sample_ns);
  std::printf("  speedup             %8.2fx   (target >= 5x)\n", filter_speedup);
  std::printf("  max |delta magnitude|  %.3e  (bound 1e-9)\n", max_delta);

  // --- Stage 2: full ranging sequences with and without buffer reuse ---
  const ranging::RangingService service(sim::grass_refined_ranging());
  constexpr int kPairs = 150;
  const double measure_alloc_s = best_of(3, [&] {
    math::Rng r(7);
    double sum = 0.0;
    for (int i = 0; i < kPairs; ++i) {
      ranging::RangingScratch fresh;
      const auto d = service.measure(5.0 + (i % 12), {}, {}, r, fresh).distance_m;
      sum += d.value_or(0.0);
    }
    g_sink = sum;
  });
  const double measure_scratch_s = best_of(3, [&] {
    math::Rng r(7);
    ranging::RangingScratch scratch;
    double sum = 0.0;
    for (int i = 0; i < kPairs; ++i) {
      const auto d = service.measure(5.0 + (i % 12), {}, {}, r, scratch).distance_m;
      sum += d.value_or(0.0);
    }
    g_sink = sum;
  });
  const double measure_speedup = measure_alloc_s / measure_scratch_s;
  std::printf("\nfull ranging sequence, %d pairs (grass refined service)\n", kPairs);
  std::printf("  fresh buffers       %8.2f us/pair\n", measure_alloc_s / kPairs * 1e6);
  std::printf("  reused scratch      %8.2f us/pair\n", measure_scratch_s / kPairs * 1e6);
  std::printf("  speedup             %8.2fx\n", measure_speedup);

  // --- Stage 3: software-detector (Section 3.7) pair loop ---
  ranging::RangingConfig sw_config = sim::grass_refined_ranging();
  sw_config.detector_mode = ranging::DetectorMode::kGoertzel;
  const ranging::RangingService sw_service(sw_config);
  constexpr int kSwPairs = 40;
  const double sw_alloc_s = best_of(3, [&] {
    math::Rng r(7);
    double sum = 0.0;
    for (int i = 0; i < kSwPairs; ++i) {
      ranging::RangingScratch fresh;
      const auto d = sw_service.measure(5.0 + (i % 12), {}, {}, r, fresh).distance_m;
      sum += d.value_or(0.0);
    }
    g_sink = sum;
  });
  const double sw_scratch_s = best_of(3, [&] {
    math::Rng r(7);
    ranging::RangingScratch scratch;
    double sum = 0.0;
    for (int i = 0; i < kSwPairs; ++i) {
      const auto d = sw_service.measure(5.0 + (i % 12), {}, {}, r, scratch).distance_m;
      sum += d.value_or(0.0);
    }
    g_sink = sum;
  });
  const double sw_speedup = sw_alloc_s / sw_scratch_s;
  std::printf("\nsoftware-detector sequence, %d pairs (Goertzel)\n", kSwPairs);
  std::printf("  fresh buffers       %8.2f us/pair\n", sw_alloc_s / kSwPairs * 1e6);
  std::printf("  reused scratch      %8.2f us/pair\n", sw_scratch_s / kSwPairs * 1e6);
  std::printf("  speedup             %8.2fx\n", sw_speedup);

  // --- Stage 4: sampled-audio noise fill (block ziggurat vs scalar) ---
  constexpr std::size_t kNoiseBlock = 1163;  // one sampled-audio chirp window
  constexpr int kNoiseBlocks = 512;
  constexpr double kNormals = static_cast<double>(kNoiseBlock) * kNoiseBlocks;
  std::vector<double> noise(kNoiseBlock);
  const double noise_block_s = best_of(5, [&] {
    math::Rng r(11);
    double sum = 0.0;
    for (int b = 0; b < kNoiseBlocks; ++b) {
      r.fill_gaussian_block(noise.data(), kNoiseBlock);
      sum += noise[b % kNoiseBlock];
    }
    g_sink = sum;
  });
  const double noise_scalar_s = best_of(5, [&] {
    math::Rng r(11);
    double sum = 0.0;
    for (int b = 0; b < kNoiseBlocks; ++b) {
      for (std::size_t i = 0; i < kNoiseBlock; ++i) noise[i] = r.gaussian();
      sum += noise[b % kNoiseBlock];
    }
    g_sink = sum;
  });
  const double noise_speedup = noise_scalar_s / noise_block_s;
  std::printf("\nnoise fill, %d blocks of %zu standard normals\n", kNoiseBlocks, kNoiseBlock);
  std::printf("  scalar gaussian()   %8.2f ns/normal\n", noise_scalar_s / kNormals * 1e9);
  std::printf("  fill_gaussian_block %8.2f ns/normal\n", noise_block_s / kNormals * 1e9);
  std::printf("  speedup             %8.2fx   (target >= 3x)\n", noise_speedup);

  // --- JSON record ---
  const auto v = [](double x) { return resloc::eval::format_value(x); };
  std::string json = "{\n";
  json += "  \"bench\": \"bench_ranging_goertzel\",\n";
  json += "  \"filter_samples\": " + std::to_string(kSamples) + ",\n";
  json += "  \"filter_window\": " + std::to_string(ranging::SlidingDftFilter::kWindow) + ",\n";
  json += "  \"filter_bin\": " + std::to_string(bin) + ",\n";
  json += "  \"direct_dft_ns_per_sample\": " + v(direct_s * per_sample_ns) + ",\n";
  json += "  \"goertzel_ns_per_sample\": " + v(goertzel_s * per_sample_ns) + ",\n";
  json += "  \"filter_speedup\": " + v(filter_speedup) + ",\n";
  json += "  \"max_abs_magnitude_delta\": " + v(max_delta) + ",\n";
  json += "  \"measure_alloc_us_per_pair\": " + v(measure_alloc_s / kPairs * 1e6) + ",\n";
  json += "  \"measure_scratch_us_per_pair\": " + v(measure_scratch_s / kPairs * 1e6) + ",\n";
  json += "  \"measure_speedup\": " + v(measure_speedup) + ",\n";
  json += "  \"software_alloc_us_per_pair\": " + v(sw_alloc_s / kSwPairs * 1e6) + ",\n";
  json += "  \"software_scratch_us_per_pair\": " + v(sw_scratch_s / kSwPairs * 1e6) + ",\n";
  json += "  \"software_speedup\": " + v(sw_speedup) + ",\n";
  json += "  \"noise_scalar_ns_per_normal\": " + v(noise_scalar_s / kNormals * 1e9) + ",\n";
  json += "  \"noise_block_ns_per_normal\": " + v(noise_block_s / kNormals * 1e9) + ",\n";
  json += "  \"noise_speedup\": " + v(noise_speedup) + "\n";
  json += "}\n";
  if (!resloc::eval::write_text_file(json_path, json)) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nbench record: %s\n", json_path.c_str());
  return filter_speedup >= 5.0 && max_delta < 1e-9 && noise_speedup >= 3.0 ? 0 : 1;
}
