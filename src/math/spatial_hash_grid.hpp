// Uniform spatial grid over 2-D points.
//
// Built for the LSS solvers' minimum-spacing soft constraint (Section 4.2.1)
// and reused by the measurement front end's in-range pair enumeration
// (math::GridPairEnumerator). Both need every point pair within some radius
// r. A dense scan is O(n^2); bucketing points into square cells of side r
// reduces it to O(n + candidate pairs), because any pair within r of each
// other is guaranteed to land in the same or an adjacent cell (|dx| < cell
// implies cell indices differ by at most 1).
//
// The LSS objective rebuilds the grid only when its skin candidate list goes
// stale (some node has moved half a skin since the last build), and the
// front end once per campaign, so the implementation is tuned for rebuild +
// one enumeration pass, not for incremental updates: each point's
// (row, col, id) is packed into one 64-bit word and the words are
// counting-sorted by cell. Candidate pairs then fall out of a single
// merge-sweep over adjacent rows with no hashing and no per-point queries;
// all storage is reused across rebuilds, so steady-state rebuilds are
// allocation-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace resloc::math {

class SpatialHashGrid {
 public:
  /// Cell coordinates occupy 21 bits per axis and the point id the remaining
  /// 21, so one sortable word holds all three. 2^21 points is far beyond any
  /// deployment this repo simulates; rebuild() throws std::length_error past
  /// it rather than corrupting the packing.
  static constexpr std::size_t kMaxPoints = std::size_t{1} << 21;

  /// Rebuilds the grid over the n points (xs[i], ys[i]) with square cells of
  /// side `cell_size` (must be > 0). Previous contents are discarded; internal
  /// buffers are reused. Cell coordinates are clamped to +/-2^20 cells from
  /// the origin (~10^7 m at LSS cell sizes); beyond that -- including
  /// non-finite coordinates from a diverged descent step -- points collapse
  /// into the boundary cells, which can only add candidate pairs, never lose
  /// a genuine neighbor.
  void rebuild(const double* xs, const double* ys, std::size_t n, double cell_size);

  std::size_t point_count() const { return count_; }

  /// Invokes fn(i, j) with i < j for every unordered pair of points sharing a
  /// 3x3 cell neighborhood -- a superset of all pairs closer than cell_size.
  /// Each pair is emitted exactly once, in spatial (not id) order; callers
  /// needing the dense scan's (i, j)-lexicographic order must sort. One
  /// merge-sweep over the sorted entries: O(n + emitted pairs).
  template <typename Fn>
  void for_each_candidate_pair(Fn&& fn) const {
    const std::size_t n = entries_.size();
    std::size_t row_begin = 0;
    while (row_begin < n) {
      const std::uint64_t row = entries_[row_begin] >> (2 * kCoordBits);
      std::size_t row_end = row_begin;
      while (row_end < n && (entries_[row_end] >> (2 * kCoordBits)) == row) ++row_end;

      // Pairs within the row: same cell and the (+1, 0) neighbor. The scan
      // from t+1 stops at the first entry more than one cell to the right.
      for (std::size_t t = row_begin; t < row_end; ++t) {
        const std::int64_t col =
            static_cast<std::int64_t>((entries_[t] >> kCoordBits) & kCoordMask);
        for (std::size_t u = t + 1; u < row_end; ++u) {
          if (static_cast<std::int64_t>((entries_[u] >> kCoordBits) & kCoordMask) > col + 1) break;
          emit(entries_[t], entries_[u], fn);
        }
      }

      // Pairs against the next row, if it is row + 1: a monotone window of
      // columns [col - 1, col + 1] per entry ((-1,+1), (0,+1), (+1,+1)).
      if (row_end < n && (entries_[row_end] >> (2 * kCoordBits)) == row + 1) {
        std::size_t next_end = row_end;
        while (next_end < n && (entries_[next_end] >> (2 * kCoordBits)) == row + 1) ++next_end;
        std::size_t window = row_end;
        for (std::size_t t = row_begin; t < row_end; ++t) {
          const std::int64_t col =
              static_cast<std::int64_t>((entries_[t] >> kCoordBits) & kCoordMask);
          while (window < next_end &&
                 static_cast<std::int64_t>((entries_[window] >> kCoordBits) & kCoordMask) <
                     col - 1) {
            ++window;
          }
          for (std::size_t u = window; u < next_end; ++u) {
            if (static_cast<std::int64_t>((entries_[u] >> kCoordBits) & kCoordMask) > col + 1) {
              break;
            }
            emit(entries_[t], entries_[u], fn);
          }
        }
      }
      row_begin = row_end;
    }
  }

 private:
  static constexpr int kCoordBits = 21;
  static constexpr std::int64_t kCoordMask = (std::int64_t{1} << kCoordBits) - 1;

  template <typename Fn>
  static void emit(std::uint64_t a, std::uint64_t b, Fn&& fn) {
    const auto ia = static_cast<std::size_t>(a & kCoordMask);
    const auto ib = static_cast<std::size_t>(b & kCoordMask);
    if (ia < ib) {
      fn(ia, ib);
    } else {
      fn(ib, ia);
    }
  }

  std::size_t count_ = 0;
  std::vector<std::uint64_t> entries_;  ///< (row << 42) | (col << 21) | id, sorted
  std::vector<std::uint32_t> cell_offsets_;  ///< counting-sort scratch
  std::vector<std::uint64_t> scratch_;      ///< counting-sort scratch
};

}  // namespace resloc::math
