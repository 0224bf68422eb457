// The LSS stress objective as a long-lived callable (internal).
//
// localize_lss* construct one StressObjective per descent and hand it to
// math::minimize_with_restarts, which evaluates it ~10^5 times per solve. It
// lives in this header rather than inside lss.cpp so tests can drive one
// instance through a sequence of configurations and compare every
// evaluation against a fresh one-shot evaluation and the dense oracle, and
// so the test-only dense reference (tests/reference) solves through the same
// descent and init loop -- nothing outside core and its tests should
// include it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/lss.hpp"
#include "core/types.hpp"
#include "math/gradient_descent.hpp"
#include "math/rng.hpp"
#include "math/spatial_hash_grid.hpp"
#include "obs/telemetry.hpp"

namespace resloc::core::detail {

/// The stress objective over parameters [x_0..x_{n-1}, y_0..y_{n-1}]: the
/// measured-edge term plus the minimum-spacing soft constraint over
/// unmeasured pairs (Section 4.2.1). `fixed` lists nodes whose gradient
/// entries are zeroed (anchored mode).
///
/// The soft constraint's active set -- unmeasured pairs currently closer than
/// d_min -- is walked from a skin (Verlet) candidate list: every unmeasured
/// pair within d_min + skin at the configuration the list was built at
/// (`ref_`), in the dense scan's (i asc, j asc) order. While no node has
/// moved skin/2 from `ref_`, no pair outside the list can have come within
/// d_min, so the list is a superset of the active set and the walk -- the
/// dense all-pairs scan's per-pair arithmetic, in the dense scan's order --
/// produces the dense scan's error, gradient and active-pair count bit for
/// bit (the dense scan lives on as the test-only reference in
/// tests/reference). An O(n) displacement check per evaluation decides when
/// to rebuild.
class StressObjective {
 public:
  /// Skin width as a fraction of d_min. A wider skin rebuilds less often but
  /// makes every build -- and so every one-shot evaluation -- dearer. 0.1
  /// and 0.25 solve the `scale` sweep equally fast (the list is rebuilt on
  /// ~2% of evaluations at 0.1, ~1% at 0.25); 0.1 keeps a one-shot
  /// evaluation close to the cost of the former per-evaluation grid query.
  static constexpr double kSkinFraction = 0.1;

  /// Relative slack on the list radius (widened) and the rebuild threshold
  /// (narrowed). Floating-point rounding of d^2 and of the displacement is a
  /// few ulps (~1e-15 relative); 1e-6 keeps the list a strict superset of
  /// the active set with room to spare and also covers the grid's
  /// floor(x / cell) rounding at the cell boundary.
  static constexpr double kSlack = 1e-6;

  StressObjective(const MeasurementSet& measurements, const LssOptions& options,
                  std::vector<NodeId> fixed);

  /// Error at `p`; fills `grad` (sized 2n by the caller).
  double operator()(const std::vector<double>& p, std::vector<double>& grad);

  /// Skin width in metres (0 when the soft constraint is off).
  double skin_m() const { return skin_; }

  /// Candidate-list builds so far (also tallied as obs
  /// `lss_neighbor_rebuilds`).
  std::uint64_t rebuilds() const { return rebuilds_; }

  /// Pair distance tests the soft-constraint stage has made so far: every
  /// candidate pair of every list build plus every list entry walked. The
  /// dense scan makes n(n-1)/2 per evaluation; bench_lss_scale gates the
  /// ratio, a count no machine state moves.
  std::uint64_t pair_tests() const { return pair_tests_; }

 private:
  double accumulate_constraint_list(const std::vector<double>& p, std::vector<double>& grad,
                                    double error);
  bool list_is_stale(const std::vector<double>& p) const;
  void build_list(const std::vector<double>& p);

  const MeasurementSet& measurements_;
  const LssOptions options_;
  const std::vector<NodeId> fixed_;
  const std::size_t n_;
  double dmin_ = 0.0;
  double dmin_sq_ = 0.0;
  double skin_ = 0.0;
  std::uint64_t active_pairs_ = 0;  ///< active constraint pairs this evaluation
  std::uint64_t rebuilds_ = 0;
  std::uint64_t pair_tests_ = 0;

  std::vector<double> ref_;               ///< configuration the list was built at
  resloc::math::SpatialHashGrid grid_;    ///< list-build scratch
  std::vector<std::uint64_t> pairs_;      ///< list-build scratch, spatial order
  std::vector<std::uint32_t> counts_;     ///< list-build scratch, counting sort by i
  std::vector<std::uint64_t> list_;       ///< candidates, packed (i << 32) | j, ascending
};

/// One descent of `objective` from the flattened configuration `initial`
/// (math::minimize_with_restarts under options.gd / options.restarts),
/// packed as an LssResult: the solve step of localize_lss_from and
/// localize_lss_anchored.
template <typename Objective>
LssResult solve(Objective& objective, std::vector<double> initial, const LssOptions& options,
                resloc::math::Rng& rng) {
  RESLOC_SPAN("solver/lss_solve");
  const std::size_t n = initial.size() / 2;
  const auto gd_result = resloc::math::minimize_with_restarts(objective, std::move(initial),
                                                              options.gd, options.restarts, rng);
  LssResult result;
  result.positions.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.positions[i] = resloc::math::Vec2{gd_result.x[i], gd_result.x[n + i]};
  }
  result.stress = gd_result.error;
  result.iterations = gd_result.iterations;
  result.converged = gd_result.converged;
  result.non_finite = gd_result.non_finite || !std::isfinite(gd_result.error);
  result.error_trace = gd_result.error_trace;
  return result;
}

/// localize_lss's outer loop: options.independent_inits random initial
/// configurations in the init box, each handed to `solve_from(initial)` (a
/// full perturbation-restart descent), keeping the best by stress and
/// stopping early once options.target_stress_per_edge is met.
template <typename SolveFrom>
LssResult best_of_random_inits(const MeasurementSet& measurements, const LssOptions& options,
                               resloc::math::Rng& rng, SolveFrom&& solve_from) {
  const std::size_t n = measurements.node_count();
  const double stress_target =
      options.target_stress_per_edge > 0.0
          ? options.target_stress_per_edge * static_cast<double>(std::max<std::size_t>(
                                                 measurements.edge_count(), 1))
          : -1.0;

  LssResult best;
  bool have_best = false;
  const int attempts = std::max(options.independent_inits, 1);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    std::vector<resloc::math::Vec2> initial(n);
    for (auto& v : initial) {
      v = resloc::math::Vec2{rng.uniform(0.0, options.init_box_m),
                             rng.uniform(0.0, options.init_box_m)};
    }
    LssResult candidate = solve_from(std::move(initial));
    // NaN-aware best-selection: a finite-stress attempt always beats a
    // non-finite best (plain `<` never replaces a NaN best), and a
    // non-finite attempt never displaces a finite best.
    const bool better =
        !have_best || (std::isfinite(candidate.stress) && !std::isfinite(best.stress)) ||
        (!(std::isfinite(best.stress) && !std::isfinite(candidate.stress)) &&
         candidate.stress < best.stress);
    if (better) {
      best = std::move(candidate);
      have_best = true;
    }
    if (stress_target >= 0.0 && best.stress <= stress_target) break;
  }
  return best;
}

}  // namespace resloc::core::detail
