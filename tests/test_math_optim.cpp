#include <gtest/gtest.h>

#include <cmath>

#include "math/gradient_descent.hpp"
#include "math/jacobi_eigen.hpp"
#include "math/matrix.hpp"

namespace {

using namespace resloc::math;

TEST(GradientDescent, QuadraticBowl) {
  // E = (x-3)^2 + (y+1)^2.
  const Objective objective = [](const std::vector<double>& x, std::vector<double>& g) {
    g[0] = 2.0 * (x[0] - 3.0);
    g[1] = 2.0 * (x[1] + 1.0);
    return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] + 1.0) * (x[1] + 1.0);
  };
  GradientDescentOptions options;
  options.step_size = 0.1;
  options.max_iterations = 1000;
  const auto result = minimize(objective, {0.0, 0.0}, options);
  EXPECT_NEAR(result.x[0], 3.0, 1e-4);
  EXPECT_NEAR(result.x[1], -1.0, 1e-4);
  EXPECT_LT(result.error, 1e-8);
}

TEST(GradientDescent, AdaptiveStepSurvivesHugeInitialStep) {
  const Objective objective = [](const std::vector<double>& x, std::vector<double>& g) {
    g[0] = 2.0 * x[0];
    return x[0] * x[0];
  };
  GradientDescentOptions options;
  options.step_size = 1000.0;  // would diverge without backtracking
  options.max_iterations = 500;
  const auto result = minimize(objective, {5.0}, options);
  EXPECT_NEAR(result.x[0], 0.0, 1e-3);
}

TEST(GradientDescent, FixedStepMatchesEquationOne) {
  // One iteration of the paper's update rule: x1 = x0 - alpha * grad. The
  // first step lowers the error, so the backtracking line search accepts it
  // unchanged.
  const Objective objective = [](const std::vector<double>& x, std::vector<double>& g) {
    g[0] = 2.0 * x[0];
    return x[0] * x[0];
  };
  GradientDescentOptions options;
  options.step_size = 0.25;
  options.max_iterations = 1;
  const auto result = minimize(objective, {4.0}, options);
  EXPECT_DOUBLE_EQ(result.x[0], 4.0 - 0.25 * 8.0);
}

TEST(GradientDescent, StopsAtGradientTolerance) {
  const Objective objective = [](const std::vector<double>& x, std::vector<double>& g) {
    g[0] = 0.0;
    return 7.0 + 0.0 * x[0];
  };
  GradientDescentOptions options;
  const auto result = minimize(objective, {1.0}, options);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_DOUBLE_EQ(result.error, 7.0);
}

TEST(GradientDescent, TraceIsMonotoneWithAdaptiveStep) {
  const Objective objective = [](const std::vector<double>& x, std::vector<double>& g) {
    g[0] = 2.0 * (x[0] - 1.0);
    g[1] = 4.0 * x[1];
    return (x[0] - 1.0) * (x[0] - 1.0) + 2.0 * x[1] * x[1];
  };
  GradientDescentOptions options;
  options.record_trace = true;
  options.step_size = 0.05;
  const auto result = minimize(objective, {5.0, -3.0}, options);
  ASSERT_GE(result.error_trace.size(), 2u);
  for (std::size_t i = 1; i < result.error_trace.size(); ++i) {
    EXPECT_LE(result.error_trace[i], result.error_trace[i - 1] + 1e-12);
  }
}

TEST(GradientDescent, RestartsEscapeLocalMinimum) {
  // Double well: E = (x^2 - 1)^2 + 0.3 x, local minimum near x=+1 (E~0.3),
  // global near x=-1 (E~-0.3). Start in the bad basin.
  const Objective objective = [](const std::vector<double>& x, std::vector<double>& g) {
    g[0] = 4.0 * x[0] * (x[0] * x[0] - 1.0) + 0.3;
    const double q = x[0] * x[0] - 1.0;
    return q * q + 0.3 * x[0];
  };
  GradientDescentOptions options;
  options.step_size = 0.02;
  options.max_iterations = 400;
  RestartOptions restarts{.rounds = 25, .perturbation_stddev = 1.5};
  Rng rng(99);
  const auto result = minimize_with_restarts(objective, {1.0}, options, restarts, rng);
  EXPECT_NEAR(result.x[0], -1.0, 0.15);
}

TEST(GradientDescent, RestartsNeverWorseThanSingleRun) {
  const Objective objective = [](const std::vector<double>& x, std::vector<double>& g) {
    g[0] = 2.0 * x[0];
    return x[0] * x[0];
  };
  GradientDescentOptions options;
  options.max_iterations = 50;
  options.step_size = 0.01;
  Rng rng(1);
  const auto single = minimize(objective, {10.0}, options);
  Rng rng2(1);
  RestartOptions restarts{.rounds = 5, .perturbation_stddev = 2.0};
  const auto multi = minimize_with_restarts(objective, {10.0}, options, restarts, rng2);
  EXPECT_LE(multi.error, single.error + 1e-15);
}

TEST(JacobiEigen, DiagonalMatrix) {
  const Matrix m{{3.0, 0.0}, {0.0, 7.0}};
  const auto d = jacobi_eigen_decomposition(m);
  EXPECT_NEAR(d.eigenvalues[0], 7.0, 1e-12);
  EXPECT_NEAR(d.eigenvalues[1], 3.0, 1e-12);
}

TEST(JacobiEigen, KnownSymmetricMatrix) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1 with vectors (1,1) and (1,-1).
  const Matrix m{{2.0, 1.0}, {1.0, 2.0}};
  const auto d = jacobi_eigen_decomposition(m);
  EXPECT_NEAR(d.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(d.eigenvalues[1], 1.0, 1e-12);
  // First eigenvector proportional to (1,1).
  EXPECT_NEAR(std::abs(d.eigenvectors(0, 0)), std::abs(d.eigenvectors(1, 0)), 1e-10);
}

TEST(JacobiEigen, ReconstructsMatrix) {
  const Matrix m{{4.0, 1.0, -2.0}, {1.0, 2.0, 0.0}, {-2.0, 0.0, 3.0}};
  const auto d = jacobi_eigen_decomposition(m);
  // A = V diag(lambda) V^T.
  Matrix lambda(3, 3);
  for (int i = 0; i < 3; ++i) lambda(i, i) = d.eigenvalues[i];
  const Matrix reconstructed = d.eigenvectors * lambda * d.eigenvectors.transposed();
  EXPECT_LT((reconstructed - m).frobenius_norm(), 1e-9);
}

TEST(JacobiEigen, EigenvectorsOrthonormal) {
  const Matrix m{{5.0, 2.0, 1.0}, {2.0, 6.0, 3.0}, {1.0, 3.0, 7.0}};
  const auto d = jacobi_eigen_decomposition(m);
  const Matrix vtv = d.eigenvectors.transposed() * d.eigenvectors;
  EXPECT_LT((vtv - Matrix::identity(3)).frobenius_norm(), 1e-9);
}

TEST(JacobiEigen, EigenvaluesSortedDescending) {
  const Matrix m{{1.0, 0.5, 0.0, 0.2},
                 {0.5, 2.0, 0.3, 0.0},
                 {0.0, 0.3, 3.0, 0.1},
                 {0.2, 0.0, 0.1, 4.0}};
  const auto d = jacobi_eigen_decomposition(m);
  for (std::size_t i = 1; i < d.eigenvalues.size(); ++i) {
    EXPECT_GE(d.eigenvalues[i - 1], d.eigenvalues[i]);
  }
}

}  // namespace
