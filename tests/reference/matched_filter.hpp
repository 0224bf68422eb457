// Scalar reference of the NCC matched-filter scan.
//
// ranging::MatchedFilterNcc computes its prefix sums with the running sums
// held in registers and its per-lag statistic two lanes at a time. This is
// the plain loop it replaced, kept verbatim as the bit-equality oracle:
// three prefix arrays re-read from memory on every step, then one scalar
// sqrt per lag, then the same non-maximum-suppression peak pick. Test code
// only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "acoustics/signal_synth.hpp"
#include "ranging/matched_filter.hpp"

namespace resloc::reference {

/// The scalar NCC detector: same threshold, plateau and output protocol as
/// ranging::MatchedFilterNcc.
class ScalarNcc {
 public:
  ScalarNcc() = default;
  explicit ScalarNcc(double threshold,
                     int peak_plateau = ranging::MatchedFilterNcc::kDefaultPeakPlateau);

  /// MatchedFilterNcc::detect_into, computed by the scalar scan.
  void detect_into(const double* x, std::size_t n, std::size_t chirp_samples,
                   const acoustics::ToneTemplateView& tpl, std::uint64_t* marks);

  /// Picked onset offsets of the last detect_into call, ascending.
  const std::vector<std::size_t>& peaks() const { return peaks_; }

  /// NCC series of the last detect_into call: ncc()[i] is the statistic for
  /// the window [i, i + chirp_samples).
  const std::vector<double>& ncc() const { return ncc_; }

 private:
  bool scan(const double* x, std::size_t n, std::size_t chirp_samples,
            const acoustics::ToneTemplateView& tpl);

  double threshold_ = ranging::MatchedFilterNcc::kDefaultThreshold;
  int peak_plateau_ = ranging::MatchedFilterNcc::kDefaultPeakPlateau;
  std::vector<std::size_t> peaks_;
  std::vector<double> prefix_sin_;
  std::vector<double> prefix_cos_;
  std::vector<double> prefix_energy_;
  std::vector<double> ncc_;
};

}  // namespace resloc::reference
