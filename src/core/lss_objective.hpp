// The LSS stress objective as a long-lived callable (internal).
//
// localize_lss* construct one StressObjective per descent and hand it to
// math::minimize_with_restarts, which evaluates it ~10^5 times per solve. It
// lives in this header rather than inside lss.cpp so tests can drive one
// instance through a sequence of configurations and compare every
// evaluation against a fresh one-shot evaluation and the dense oracle --
// nothing outside core and its tests should include it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/lss.hpp"
#include "core/types.hpp"
#include "math/spatial_hash_grid.hpp"

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
/// dense scan's per-pair arithmetic, in the dense scan's order -- produces
/// the dense scan's error, gradient and active-pair count bit for bit. An
/// O(n) displacement check per evaluation decides when to rebuild.
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

 private:
  double accumulate_constraint_dense(const std::vector<double>& p, std::vector<double>& grad,
                                     double error);
  double accumulate_constraint_list(const std::vector<double>& p, std::vector<double>& grad,
                                    double error);
  bool list_is_stale(const std::vector<double>& p) const;
  void build_list(const std::vector<double>& p);
  double add_violation(std::vector<double>& grad, double error, std::size_t i, std::size_t j,
                       double dx, double dy, double d_sq);

  const MeasurementSet& measurements_;
  const LssOptions options_;
  const std::vector<NodeId> fixed_;
  const std::size_t n_;
  const bool use_list_;  ///< soft constraint on and not the dense reference scan
  double dmin_ = 0.0;
  double dmin_sq_ = 0.0;
  double skin_ = 0.0;
  std::uint64_t active_pairs_ = 0;  ///< active constraint pairs this evaluation
  std::uint64_t rebuilds_ = 0;

  std::vector<double> ref_;               ///< configuration the list was built at
  resloc::math::SpatialHashGrid grid_;    ///< list-build scratch
  std::vector<std::uint64_t> pairs_;      ///< list-build scratch, spatial order
  std::vector<std::uint32_t> counts_;     ///< list-build scratch, counting sort by i
  std::vector<std::uint64_t> list_;       ///< candidates, packed (i << 32) | j, ascending
};

}  // namespace resloc::core::detail
