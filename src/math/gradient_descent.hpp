// Gradient-descent minimizer, the numerical engine of both localization
// schemes in the paper:
//   - multilateration minimizes the weighted range residual (Section 4.1.1),
//   - LSS minimizes the (soft-constrained) stress function (Section 4.2.1),
//     using "[x_{t+1}, y_{t+1}] = [x_t, y_t] - alpha * grad E" (Equation 1)
//     and restarting "each round of minimization with seed positions obtained
//     by perturbing the best results so far" to escape local minima.
//
// The objective is a callable that fills the gradient and returns the error.
// minimize() and minimize_with_restarts() are templates over the callable's
// concrete type: the LSS stress objective is evaluated ~10^5 times per solve
// and carries state across evaluations (its skin candidate list), so the
// call must inline rather than go through std::function dispatch. The
// `Objective` alias remains for callers that want type erasure (tests, stored
// callbacks); passing one simply instantiates the template with it.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "math/rng.hpp"
#include "obs/telemetry.hpp"

namespace resloc::math {

/// Objective callback: given parameters x, fill `grad` (already sized like x)
/// and return the scalar error E(x).
using Objective = std::function<double(const std::vector<double>& x, std::vector<double>& grad)>;

/// Tuning knobs for a single gradient-descent run.
struct GradientDescentOptions {
  /// Initial step size alpha in Equation 1. The step adapts: a step that
  /// would increase the error is halved and retried (backtracking), and an
  /// accepted first try grows it by 10%. Plain fixed-step descent diverges
  /// easily on the LSS stress surface.
  double step_size = 1e-3;
  /// Upper bound on iterations for one descent run.
  int max_iterations = 5000;
  /// Stop when the error improves by less than this fraction over a window.
  double relative_tolerance = 1e-9;
  /// Stop when the gradient inf-norm falls below this.
  double gradient_tolerance = 1e-9;
  /// Record E after every accepted iteration (for Figure 23 style traces).
  bool record_trace = false;
};

/// Outcome of a descent run.
struct GradientDescentResult {
  std::vector<double> x;           ///< best parameters found
  double error = 0.0;              ///< E at x
  int iterations = 0;              ///< accepted iterations performed
  bool converged = false;          ///< true if a tolerance triggered the stop
  /// The objective produced a non-finite value (NaN/inf inputs, e.g. from
  /// injected measurement corruption): the run stopped at the last finite
  /// parameter vector instead of accepting a poisoned state. NaN compares
  /// false to everything, so without this guard the backtracking loop would
  /// silently *accept* a NaN step and return garbage coordinates.
  bool non_finite = false;
  std::vector<double> error_trace; ///< per-iteration errors when recorded
};

namespace detail {

inline double inf_norm(const std::vector<double>& v) {
  double best = 0.0;
  for (double x : v) best = std::max(best, std::abs(x));
  return best;
}

}  // namespace detail

/// Runs gradient descent from `x0`. The objective may be stateful (scratch
/// buffers); it is taken by reference and never copied.
template <typename ObjectiveFn>
GradientDescentResult minimize(ObjectiveFn&& objective, std::vector<double> x0,
                               const GradientDescentOptions& options) {
  RESLOC_SPAN("solver/minimize");
  GradientDescentResult result;
  const std::size_t n = x0.size();
  std::vector<double> grad(n, 0.0);
  std::vector<double> candidate(n, 0.0);
  std::vector<double> candidate_grad(n, 0.0);

  double error = objective(x0, grad);
  obs::add(obs::Counter::kGdEvaluations);
  double step = options.step_size;

  result.x = x0;
  result.error = error;
  if (options.record_trace) result.error_trace.push_back(error);
  if (!std::isfinite(error)) {
    // The surface is poisoned at the seed itself (non-finite measurements):
    // there is no descent direction to trust. Return the seed, flagged.
    result.non_finite = true;
    return result;
  }

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    const double grad_norm = detail::inf_norm(grad);
    if (grad_norm <= options.gradient_tolerance) {
      result.converged = true;
      break;
    }

    for (std::size_t i = 0; i < n; ++i) candidate[i] = result.x[i] - step * grad[i];
    double candidate_error = objective(candidate, candidate_grad);
    obs::add(obs::Counter::kGdEvaluations);

    // Backtrack: shrink the step until the error stops increasing (or the
    // step collapses, which we treat as convergence). The predicate is
    // written !(candidate <= error) rather than (candidate > error) so a
    // non-finite candidate also backtracks: NaN compares false to
    // everything, and the > form would silently *accept* a NaN step. For
    // finite values the two forms are identical.
    int backtracks = 0;
    while (!(candidate_error <= error) && backtracks < 40) {
      step *= 0.5;
      for (std::size_t i = 0; i < n; ++i) candidate[i] = result.x[i] - step * grad[i];
      candidate_error = objective(candidate, candidate_grad);
      obs::add(obs::Counter::kGdEvaluations);
      ++backtracks;
    }
    obs::add(obs::Counter::kGdBacktracks, static_cast<std::uint64_t>(backtracks));
    if (!(candidate_error <= error)) {
      if (!std::isfinite(candidate_error)) result.non_finite = true;
      result.converged = true;  // no descent direction progress possible
      break;
    }
    if (backtracks == 0) step *= 1.1;  // reward: cautiously grow the step

    const double improvement = error - candidate_error;
    result.x.swap(candidate);
    grad.swap(candidate_grad);
    error = candidate_error;
    result.error = error;
    ++result.iterations;
    if (options.record_trace) result.error_trace.push_back(error);

    if (improvement >= 0.0 && improvement <= options.relative_tolerance * std::abs(error)) {
      result.converged = true;
      break;
    }
  }
  obs::add(obs::Counter::kGdIterations, static_cast<std::uint64_t>(result.iterations));
  return result;
}

/// Options for the restart wrapper.
struct RestartOptions {
  /// Number of descent rounds. Round 0 starts from the caller's seed; each
  /// later round starts from the best-so-far parameters perturbed by
  /// Gaussian noise of the given standard deviation.
  int rounds = 5;
  /// Standard deviation of the perturbation applied between rounds.
  double perturbation_stddev = 1.0;
};

/// Repeated descent with perturbation restarts (Section 4.2.1): keeps the
/// best configuration across rounds and reseeds each round by perturbing it.
template <typename ObjectiveFn>
GradientDescentResult minimize_with_restarts(ObjectiveFn&& objective, std::vector<double> x0,
                                             const GradientDescentOptions& options,
                                             const RestartOptions& restart, Rng& rng) {
  GradientDescentResult best;
  bool have_best = false;
  std::vector<double> seed = std::move(x0);

  for (int round = 0; round < restart.rounds; ++round) {
    obs::add(obs::Counter::kGdRestartRounds);
    GradientDescentResult r = minimize(objective, seed, options);
    // NaN-aware best-selection: a finite round always beats a non-finite
    // best (plain `<` would never replace a NaN best, since NaN comparisons
    // are all false), and a non-finite round never displaces a finite best.
    const bool better =
        !have_best || (std::isfinite(r.error) && !std::isfinite(best.error)) ||
        (!(std::isfinite(best.error) && !std::isfinite(r.error)) && r.error < best.error);
    if (better) {
      // Keep the longest trace view: append this round's trace to the tail.
      if (have_best && options.record_trace) {
        r.error_trace.insert(r.error_trace.begin(), best.error_trace.begin(),
                             best.error_trace.end());
      }
      best = std::move(r);
      have_best = true;
    } else if (options.record_trace) {
      // Record that a round happened without improvement, keeping the best E.
      best.error_trace.push_back(best.error);
    }
    // Perturb the best-so-far configuration as the next seed (Section 4.2.1).
    seed = best.x;
    for (double& v : seed) v += rng.gaussian(0.0, restart.perturbation_stddev);
  }
  return best;
}

}  // namespace resloc::math
