#include "math/spatial_hash_grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace resloc::math {

namespace {

/// floor(v / cell) as a biased 21-bit cell coordinate. The clamp keeps
/// out-of-range and non-finite values (NaN fails both comparisons and lands
/// at 0) inside the packing instead of invoking UB; clamped points merge into
/// the boundary cells, which only ever adds candidates.
std::uint64_t biased_coord(double v, double inv_cell) {
  constexpr double kBias = 1048576.0;  // 2^20
  const double c = std::floor(v * inv_cell) + kBias;
  // Negated comparison so NaN takes the clamp branch: a plain `c <= 0.0` is
  // false for NaN and would fall through into an undefined float->int cast.
  if (!(c > 0.0)) return 0;
  if (c >= 2097151.0) return 2097151;  // 2^21 - 1
  return static_cast<std::uint64_t>(c);
}

}  // namespace

void SpatialHashGrid::rebuild(const double* xs, const double* ys, std::size_t n,
                              double cell_size) {
  if (n > kMaxPoints) {
    throw std::length_error("SpatialHashGrid: point count exceeds 2^21");
  }
  count_ = n;
  entries_.resize(n);
  const double inv_cell = 1.0 / cell_size;
  std::uint64_t min_row = ~std::uint64_t{0};
  std::uint64_t max_row = 0;
  std::uint64_t min_col = ~std::uint64_t{0};
  std::uint64_t max_col = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t row = biased_coord(ys[i], inv_cell);
    const std::uint64_t col = biased_coord(xs[i], inv_cell);
    entries_[i] = (row << (2 * kCoordBits)) | (col << kCoordBits) | i;
    min_row = std::min(min_row, row);
    max_row = std::max(max_row, row);
    min_col = std::min(min_col, col);
    max_col = std::max(max_col, col);
  }
  if (n == 0) return;

  // Sorting the packed words is the rebuild's dominant cost, and a
  // comparison sort pays ~n log n branchy compares per rebuild. Real
  // configurations occupy a block of cells proportional to the field area,
  // so a counting sort over that block -- scattering points in id order,
  // which leaves each cell's ids ascending -- produces the (row, col, id)
  // order with no comparisons at all. Up to 16 cells per point -- enough
  // for bench_campaign_scale's sparse 8.5 km wide-area field -- the block's
  // prefix pass stays cheaper than a comparison sort; points scattered wider
  // still (a diverged descent) fall back to one. rows * cols <= 2^42.
  const std::uint64_t rows = max_row - min_row + 1;
  const std::uint64_t cols = max_col - min_col + 1;
  if (rows * cols > 16 * static_cast<std::uint64_t>(n) + 64) {
    std::sort(entries_.begin(), entries_.end());
    return;
  }
  // Before the sort, entries_[i] is point i's word.
  const auto block_index = [&](std::size_t i) {
    return static_cast<std::size_t>(((entries_[i] >> (2 * kCoordBits)) - min_row) * cols +
                                    (((entries_[i] >> kCoordBits) & kCoordMask) - min_col));
  };
  cell_offsets_.assign(static_cast<std::size_t>(rows * cols) + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++cell_offsets_[block_index(i) + 1];
  for (std::size_t c = 1; c < cell_offsets_.size(); ++c) cell_offsets_[c] += cell_offsets_[c - 1];
  scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) scratch_[cell_offsets_[block_index(i)]++] = entries_[i];
  entries_.swap(scratch_);
}

}  // namespace resloc::math
