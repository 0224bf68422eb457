// Ablation A4: the two transform-estimation methods of Section 4.3.1 --
// exact minimization over (theta, tx, ty, f) versus the closed-form
// centroid/covariance method the paper recommends for motes.
//
// Paper's claim: the closed form is "slightly less accurate, but
// computationally tractable". We measure both accuracy (residual vs noise)
// and wall time.
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "core/transform_estimation.hpp"
#include "eval/report.hpp"
#include "math/procrustes.hpp"
#include "math/rng.hpp"

using namespace resloc;
using resloc::math::Vec2;

int main() {
  bench::print_banner("Ablation A4 -- exact vs closed-form transform estimation");
  math::Rng rng(0xAB'41);

  eval::Table table({"shared pts", "noise (m)", "exact RMSE", "closed RMSE", "exact us/call",
                     "closed us/call"});
  for (const std::size_t count : {3u, 5u, 10u}) {
    for (const double noise : {0.0, 0.1, 0.5}) {
      double exact_rmse = 0.0;
      double closed_rmse = 0.0;
      double exact_us = 0.0;
      double closed_us = 0.0;
      const int trials = 20;
      for (int trial = 0; trial < trials; ++trial) {
        std::vector<Vec2> src;
        for (std::size_t i = 0; i < count; ++i) {
          src.push_back({rng.uniform(-15.0, 15.0), rng.uniform(-15.0, 15.0)});
        }
        const math::Transform2D motion(rng.uniform(-3.1, 3.1), rng.bernoulli(0.5),
                                       {rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0)});
        std::vector<Vec2> dst;
        for (const Vec2& p : src) {
          dst.push_back(motion.apply(p) +
                        Vec2{rng.gaussian(0.0, noise), rng.gaussian(0.0, noise)});
        }

        const auto t0 = std::chrono::steady_clock::now();
        const auto exact = core::estimate_transform_exact(src, dst, rng);
        const auto t1 = std::chrono::steady_clock::now();
        const auto closed = math::fit_rigid(src, dst);
        const auto t2 = std::chrono::steady_clock::now();

        exact_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
        closed_us += std::chrono::duration<double, std::micro>(t2 - t1).count();
        exact_rmse += math::fit_rmse(exact, count);
        closed_rmse += math::fit_rmse(closed, count);
      }
      table.add_row({std::to_string(count), eval::fmt(noise, 1),
                     eval::fmt(exact_rmse / trials, 4), eval::fmt(closed_rmse / trials, 4),
                     eval::fmt(exact_us / trials, 1), eval::fmt(closed_us / trials, 1)});
    }
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::puts(
      "\npaper shape: both methods fit equally well (the closed form solves the\n"
      "same least-squares problem optimally); the closed form is orders of\n"
      "magnitude cheaper -- the right choice for resource-constrained motes.");
  return 0;
}
