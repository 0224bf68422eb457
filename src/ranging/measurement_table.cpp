#include "ranging/measurement_table.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "math/geometry.hpp"

namespace resloc::ranging {

namespace {

std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

/// A raw estimate keyed by its unordered pair and direction.
struct DirectedSample {
  NodeId lo = 0;
  NodeId hi = 0;
  bool backward = false;  ///< measured hi -> lo
  std::size_t turn = 0;   ///< position in the sample list
  double measured_m = 0.0;
};
using DirectedIt = std::vector<DirectedSample>::const_iterator;

/// The samples ordered by (lo, hi, forward-then-backward), each direction
/// keeping list order.
std::vector<DirectedSample> sort_by_direction(const std::vector<RangingSample>& samples) {
  std::vector<DirectedSample> sorted;
  sorted.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const RangingSample& s = samples[i];
    const auto [lo, hi] = ordered(s.source, s.receiver);
    sorted.push_back({lo, hi, s.source > s.receiver, i, s.measured_m});
  }
  // The turn tie-break makes the sort stable.
  std::sort(sorted.begin(), sorted.end(), [](const DirectedSample& x, const DirectedSample& y) {
    return std::tie(x.lo, x.hi, x.backward, x.turn) < std::tie(y.lo, y.hi, y.backward, y.turn);
  });
  return sorted;
}

/// Consumes the run of samples sharing `it`'s directed pair and returns
/// their raw estimates.
std::vector<double> take_direction(DirectedIt& it, DirectedIt end) {
  const DirectedIt first = it;
  while (it != end && it->lo == first->lo && it->hi == first->hi &&
         it->backward == first->backward) {
    ++it;
  }
  std::vector<double> raw;
  raw.reserve(static_cast<std::size_t>(it - first));
  for (DirectedIt s = first; s != it; ++s) raw.push_back(s->measured_m);
  return raw;
}

}  // namespace

std::vector<PairEstimate> symmetric_estimates(const std::vector<RangingSample>& samples,
                                              const FilterPolicy& policy,
                                              double bidirectional_tolerance_m) {
  const std::vector<DirectedSample> sorted = sort_by_direction(samples);
  std::vector<PairEstimate> out;
  for (DirectedIt it = sorted.begin(); it != sorted.end();) {
    PairEstimate estimate;
    estimate.a = it->lo;
    estimate.b = it->hi;
    std::optional<double> forward;
    std::optional<double> backward;
    while (it != sorted.end() && it->lo == estimate.a && it->hi == estimate.b) {
      std::optional<double>& direction = it->backward ? backward : forward;
      direction = filter_measurements(take_direction(it, sorted.end()), policy);
    }
    if (forward && backward) {
      if (std::abs(*forward - *backward) > bidirectional_tolerance_m) continue;  // discard
      estimate.distance_m = 0.5 * (*forward + *backward);
      estimate.bidirectional = true;
    } else if (forward) {
      estimate.distance_m = *forward;
    } else if (backward) {
      estimate.distance_m = *backward;
    } else {
      continue;
    }
    out.push_back(estimate);
  }
  return out;
}

RobustReport robust_report(const std::vector<RangingSample>& samples,
                           const FilterPolicy& policy) {
  const std::vector<DirectedSample> sorted = sort_by_direction(samples);
  RobustReport report;
  for (DirectedIt it = sorted.begin(); it != sorted.end();) {
    FilterStats stats;
    filter_measurements(take_direction(it, sorted.end()), policy, &stats);
    report.measurements += stats.input;
    report.vote_rejected += stats.input - stats.after_vote;
    report.mad_rejected += stats.after_vote - stats.after_mad;
    ++report.directed_pairs;
    if (stats.vote_failed) ++report.pairs_without_consensus;
  }
  return report;
}

std::vector<TriangleViolation> find_triangle_violations(const std::vector<PairEstimate>& pairs,
                                                        double tolerance) {
  std::map<std::pair<NodeId, NodeId>, double> dist;
  std::set<NodeId> node_set;
  for (const auto& p : pairs) {
    dist[{p.a, p.b}] = p.distance_m;
    node_set.insert(p.a);
    node_set.insert(p.b);
  }
  const std::vector<NodeId> nodes(node_set.begin(), node_set.end());

  std::vector<TriangleViolation> violations;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const auto ij = dist.find(ordered(nodes[i], nodes[j]));
      if (ij == dist.end()) continue;
      for (std::size_t k = j + 1; k < nodes.size(); ++k) {
        const auto jk = dist.find(ordered(nodes[j], nodes[k]));
        if (jk == dist.end()) continue;
        const auto ki = dist.find(ordered(nodes[k], nodes[i]));
        if (ki == dist.end()) continue;
        if (!resloc::math::satisfies_triangle_inequality(ij->second, jk->second, ki->second,
                                                         tolerance)) {
          violations.push_back(
              {nodes[i], nodes[j], nodes[k], ij->second, jk->second, ki->second});
        }
      }
    }
  }
  return violations;
}

std::vector<PairEstimate> drop_triangle_offenders(std::vector<PairEstimate> pairs,
                                                  double tolerance, int min_violations) {
  const auto violations = find_triangle_violations(pairs, tolerance);
  std::map<std::pair<NodeId, NodeId>, int> offence_count;
  for (const auto& v : violations) {
    // The longest side is the offender candidate in each violating triple:
    // an overestimate breaks the inequality as the long side, while an
    // underestimate makes one of the *other* sides look too long.
    const double longest = std::max({v.ab, v.bc, v.ca});
    if (longest == v.ab) ++offence_count[{std::min(v.a, v.b), std::max(v.a, v.b)}];
    if (longest == v.bc) ++offence_count[{std::min(v.b, v.c), std::max(v.b, v.c)}];
    if (longest == v.ca) ++offence_count[{std::min(v.c, v.a), std::max(v.c, v.a)}];
  }
  pairs.erase(std::remove_if(pairs.begin(), pairs.end(),
                             [&](const PairEstimate& p) {
                               const auto it = offence_count.find({p.a, p.b});
                               return it != offence_count.end() && it->second >= min_violations;
                             }),
              pairs.end());
  return pairs;
}

}  // namespace resloc::ranging
