#include <gtest/gtest.h>

#include "ranging/measurement_table.hpp"

namespace {

using namespace resloc::ranging;

FilterPolicy median_policy() {
  FilterPolicy policy;
  policy.kind = FilterKind::kMedian;
  return policy;
}

/// Appends one raw estimate from -> to (ground truth unused here).
void add(std::vector<RangingSample>& samples, NodeId from, NodeId to, double measured_m) {
  samples.push_back({from, to, 0.0, measured_m});
}

TEST(RangingSamples, RobustReportCountsDirectedPairs) {
  std::vector<RangingSample> samples;
  add(samples, 1, 2, 10.0);
  add(samples, 1, 2, 10.2);
  add(samples, 2, 1, 9.9);
  const RobustReport report = robust_report(samples, median_policy());
  EXPECT_EQ(report.measurements, 3u);
  EXPECT_EQ(report.directed_pairs, 2u);
}

TEST(RangingSamples, FilteredAppliesPolicy) {
  std::vector<RangingSample> samples;
  add(samples, 0, 1, 5.0);
  add(samples, 0, 1, 5.1);
  add(samples, 0, 1, 50.0);  // outlier
  const auto pairs = symmetric_estimates(samples, median_policy(), 1.0);
  ASSERT_EQ(pairs.size(), 1u);  // no estimate for the unmeasured (1, 2)
  EXPECT_EQ(pairs[0].a, 0u);
  EXPECT_EQ(pairs[0].b, 1u);
  EXPECT_DOUBLE_EQ(pairs[0].distance_m, 5.1);
}

TEST(RangingSamples, MaxSamplesKeepsEarliestPerDirection) {
  // Interleaved directions, as a campaign's turn order produces them. The
  // cut keeps each direction's two earliest readings: the late 1.0 and 2.0
  // would pull a value-sorted or latest-first cut off 10.0 / 10.4.
  std::vector<RangingSample> samples;
  add(samples, 0, 1, 10.0);
  add(samples, 1, 0, 10.4);
  add(samples, 0, 1, 10.0);
  add(samples, 1, 0, 10.4);
  add(samples, 0, 1, 1.0);
  add(samples, 1, 0, 2.0);
  FilterPolicy policy = median_policy();
  policy.max_samples = 2;
  const auto pairs = symmetric_estimates(samples, policy, 1.0);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_TRUE(pairs[0].bidirectional);
  EXPECT_DOUBLE_EQ(pairs[0].distance_m, 0.5 * (10.0 + 10.4));
  EXPECT_EQ(robust_report(samples, policy).measurements, 4u);
}

TEST(SymmetricEstimates, ConsistentBidirectionalAveraged) {
  std::vector<RangingSample> samples;
  add(samples, 0, 1, 10.0);
  add(samples, 1, 0, 10.4);
  const auto pairs = symmetric_estimates(samples, median_policy(), 1.0);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_TRUE(pairs[0].bidirectional);
  EXPECT_DOUBLE_EQ(pairs[0].distance_m, 10.2);
  EXPECT_EQ(pairs[0].a, 0u);
  EXPECT_EQ(pairs[0].b, 1u);
}

TEST(SymmetricEstimates, InconsistentBidirectionalDiscarded) {
  // Section 3.5: "bidirectional range estimates between a pair of nodes are
  // discarded if they are inconsistent."
  std::vector<RangingSample> samples;
  add(samples, 0, 1, 10.0);
  add(samples, 1, 0, 14.0);
  EXPECT_TRUE(symmetric_estimates(samples, median_policy(), 1.0).empty());
}

TEST(SymmetricEstimates, UnidirectionalRetained) {
  // "Sometimes it may be beneficial to retain suspicious measurements due to
  // the scarcity of available data."
  std::vector<RangingSample> samples;
  add(samples, 3, 7, 12.0);
  const auto pairs = symmetric_estimates(samples, median_policy(), 1.0);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_FALSE(pairs[0].bidirectional);
  EXPECT_DOUBLE_EQ(pairs[0].distance_m, 12.0);
}

TEST(SymmetricEstimates, BidirectionalOnlyFilters) {
  std::vector<RangingSample> samples;
  add(samples, 0, 1, 10.0);
  add(samples, 1, 0, 10.1);
  add(samples, 0, 2, 8.0);  // unidirectional
  const auto pairs = symmetric_estimates(samples, median_policy(), 1.0);
  EXPECT_EQ(pairs.size(), 2u);
  std::vector<PairEstimate> bidir;
  for (const PairEstimate& p : pairs) {
    if (p.bidirectional) bidir.push_back(p);
  }
  ASSERT_EQ(bidir.size(), 1u);
  EXPECT_EQ(bidir[0].b, 1u);
}

std::vector<PairEstimate> triangle(double ab, double bc, double ca) {
  return {{0, 1, ab, false}, {1, 2, bc, false}, {0, 2, ca, false}};
}

TEST(TriangleViolations, DetectsViolation) {
  const auto violations = find_triangle_violations(triangle(10.0, 2.0, 2.0), 0.05);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].a, 0u);
  EXPECT_EQ(violations[0].c, 2u);
}

TEST(TriangleViolations, ConsistentTriplesPass) {
  EXPECT_TRUE(find_triangle_violations(triangle(3.0, 4.0, 5.0), 0.05).empty());
  // Slightly over but within tolerance.
  EXPECT_TRUE(find_triangle_violations(triangle(7.2, 3.0, 4.0), 0.05).empty());
}

TEST(TriangleViolations, IncompleteTriplesIgnored) {
  const std::vector<PairEstimate> pairs{{0, 1, 10.0, false}, {1, 2, 2.0, false}};
  EXPECT_TRUE(find_triangle_violations(pairs, 0.05).empty());
}

TEST(DropTriangleOffenders, RemovesRepeatOffender) {
  // Node layout: a clique of 4 where the (0,1) edge is wildly overestimated;
  // it violates triangles (0,1,2) and (0,1,3) as the longest side.
  std::vector<PairEstimate> pairs{
      {0, 1, 30.0, false},  // corrupted: true distance ~5
      {0, 2, 5.0, false},  {1, 2, 5.0, false},
      {0, 3, 5.0, false},  {1, 3, 5.0, false},
      {2, 3, 5.0, false},
  };
  const auto cleaned = drop_triangle_offenders(pairs, 0.05, 2);
  EXPECT_EQ(cleaned.size(), 5u);
  for (const auto& p : cleaned) {
    EXPECT_FALSE(p.a == 0 && p.b == 1);
  }
}

TEST(DropTriangleOffenders, KeepsAllWhenConsistent) {
  std::vector<PairEstimate> pairs{
      {0, 1, 5.0, false}, {0, 2, 5.0, false}, {1, 2, 5.0, false}};
  EXPECT_EQ(drop_triangle_offenders(pairs, 0.05, 1).size(), 3u);
}

TEST(DropTriangleOffenders, MinViolationsThresholdRespected) {
  // Single violating triangle: offender participates in exactly 1 violation.
  auto pairs = triangle(10.0, 2.0, 2.0);
  EXPECT_EQ(drop_triangle_offenders(pairs, 0.05, 2).size(), 3u);  // kept
  EXPECT_EQ(drop_triangle_offenders(pairs, 0.05, 1).size(), 2u);  // dropped
}

}  // namespace
