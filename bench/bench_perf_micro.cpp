// P1: google-benchmark microbenchmarks for the computational kernels --
// the LSS stress/gradient evaluation, the Figure 3 accumulation detector,
// the Figure 9 sliding DFT, transform estimation, and circle intersection.
#include <benchmark/benchmark.h>

#include "core/lss.hpp"
#include "math/geometry.hpp"
#include "math/procrustes.hpp"
#include "ranging/dft_detector.hpp"
#include "ranging/signal_detection.hpp"
#include "sim/deployments.hpp"
#include "sim/measurement_gen.hpp"

using namespace resloc;

namespace {

void BM_LssStressEvaluation(benchmark::State& state) {
  const auto town = sim::town_blocks_59();
  math::Rng rng(1);
  const auto measurements = sim::gaussian_measurements(town, {}, rng);
  core::LssOptions options;
  options.min_spacing_m = 9.0;
  std::vector<math::Vec2> positions = town.positions;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::lss_stress(measurements, positions, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(measurements.edge_count()));
}
BENCHMARK(BM_LssStressEvaluation);

void BM_LssFullSolve(benchmark::State& state) {
  const auto grid = sim::offset_grid(4, 4);
  math::Rng noise(2);
  const auto measurements = sim::gaussian_measurements(grid, {}, noise);
  core::LssOptions options;
  options.min_spacing_m = 9.0;
  options.independent_inits = 1;
  options.restarts.rounds = 2;
  options.gd.max_iterations = 1500;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    math::Rng rng(++seed);
    benchmark::DoNotOptimize(core::localize_lss(measurements, options, rng));
  }
}
BENCHMARK(BM_LssFullSolve)->Unit(benchmark::kMillisecond);

void BM_DetectSignal(benchmark::State& state) {
  std::vector<std::uint8_t> samples(1100, 0);
  for (std::size_t i = 700; i < 900; ++i) samples[i] = 5;
  const ranging::DetectionParams params{2, 32, 6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ranging::SignalScanner(samples, params).next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1100);
}
BENCHMARK(BM_DetectSignal);

void BM_SlidingDftFilter(benchmark::State& state) {
  ranging::SlidingDftFilter filter;
  double x = 0.0;
  for (auto _ : state) {
    x += 1.0;
    benchmark::DoNotOptimize(filter.filter(x > 1000.0 ? (x = 0.0) : x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SlidingDftFilter);

void BM_TransformClosedForm(benchmark::State& state) {
  math::Rng rng(3);
  std::vector<math::Vec2> src;
  std::vector<math::Vec2> dst;
  const math::Transform2D motion(1.0, false, {5.0, 5.0});
  for (int i = 0; i < 8; ++i) {
    src.push_back({rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)});
    dst.push_back(motion.apply(src.back()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::fit_rigid(src, dst));
  }
}
BENCHMARK(BM_TransformClosedForm);

void BM_CircleIntersection(benchmark::State& state) {
  const math::Circle a{{0.0, 0.0}, 10.0};
  const math::Circle b{{12.0, 5.0}, 8.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::intersect(a, b));
  }
}
BENCHMARK(BM_CircleIntersection);

}  // namespace

BENCHMARK_MAIN();
