#ifndef HTDP_API_SOLVER_H_
#define HTDP_API_SOLVER_H_

#include <string>
#include <utility>

#include "api/fit_result.h"
#include "api/problem.h"
#include "api/solver_spec.h"
#include "rng/rng.h"
#include "util/check.h"
#include "util/status.h"

namespace htdp {

/// A differentially private estimator under the shared heavy-tailed moment /
/// privacy contract: given a Problem, a SolverSpec (budget + knobs) and an
/// explicit Rng, produce a FitResult whose PrivacyLedger accounts for every
/// mechanism invocation. All five algorithms of the paper -- plus the
/// low-dimensional Gaussian baseline -- implement this interface and are
/// constructible by name through SolverRegistry, so harnesses, benches and
/// examples can enumerate scenarios generically.
///
/// ## The TryFit vs. Fit contract
///
/// TryFit() is the service-grade entry point: no user-supplied
/// configuration can abort the process through it. Every user-reachable
/// precondition -- missing loss/constraint/sparsity target, a dataset whose
/// shapes disagree, an unfundable privacy budget, degenerate schedule knobs
/// -- comes back as a typed Status (see util/status.h for the taxonomy):
///
///   kInvalidProblem   -- the Problem/SolverSpec is malformed for this solver
///   kBudgetExhausted  -- epsilon/delta cannot fund the request
///   kShapeMismatch    -- tensor geometry disagrees (x/y, w0, constraint)
///   kCancelled        -- SolverSpec::should_stop requested a stop mid-fit
///
/// Fit() is a thin wrapper that calls TryFit() and HTDP_CHECK-aborts with
/// the carried diagnostic on error, preserving the legacy research-tool
/// contract (and its call sites) verbatim. On success both paths return the
/// same bits: TryFit never draws from the Rng before its validation phase
/// completes, so a configuration that passes produces a FitResult identical
/// to what the pre-Status implementation computed.
///
/// Implementations are stateless and const; one Solver instance may be
/// reused across TryFit() calls and threads (each call takes its own Rng).
class Solver {
 public:
  virtual ~Solver() = default;

  /// The registry key, e.g. "alg1_dp_fw".
  virtual std::string name() const = 0;

  /// One-line human description (used by the registry tour example).
  virtual std::string description() const = 0;

  virtual AlgorithmId algorithm() const = 0;

  /// True when the problem must carry a Polytope constraint.
  virtual bool requires_constraint() const { return false; }

  /// True when the problem must carry a sparsity target (or the spec an
  /// explicit Peeling sparsity).
  virtual bool requires_sparsity() const { return false; }

  /// True when the problem must carry a Loss.
  virtual bool requires_loss() const { return true; }

  /// True when the solver satisfies pure epsilon-DP (budget.delta ignored);
  /// false when it needs delta > 0.
  virtual bool supports_pure_dp() const { return false; }

  /// Runs the algorithm without ever aborting on user-supplied
  /// configuration: violated preconditions return a typed error Status
  /// instead (see the class comment for the taxonomy). The dataset is never
  /// modified and must outlive the call.
  virtual StatusOr<FitResult> TryFit(const Problem& problem,
                                     const SolverSpec& spec,
                                     Rng& rng) const = 0;

  /// Aborting wrapper: TryFit() with HTDP_CHECK on error, the
  /// research-tool crash-on-misuse contract. Successful
  /// fits are bit-identical to TryFit() with the same Rng state.
  FitResult Fit(const Problem& problem, const SolverSpec& spec,
                Rng& rng) const {
    StatusOr<FitResult> result = TryFit(problem, spec, rng);
    HTDP_CHECK(result.ok()) << " " << name() << ": "
                            << result.status().ToString();
    return std::move(result).value();
  }
};

}  // namespace htdp

#endif  // HTDP_API_SOLVER_H_
