#ifndef HTDP_API_SOLVER_COMMON_H_
#define HTDP_API_SOLVER_COMMON_H_

#include <cstddef>
#include <vector>

#include "api/problem.h"
#include "api/solver.h"
#include "api/solver_spec.h"
#include "core/robust_gradient.h"
#include "data/dataset.h"
#include "util/status.h"

namespace htdp {

/// Shared plumbing hoisted out of the per-algorithm implementations: spec
/// resolution against a problem, the disjoint-fold / robust-gradient setup
/// of Algorithms 1, 5 and the baseline, and the entrywise data shrinkage of
/// Algorithms 2-4. Everything here is non-aborting on user-supplied
/// configuration -- the TryFit contract -- and returns typed Statuses.

/// Reusable per-fit scratch shared by the solver implementations: the
/// iteration buffers live here, sized on first use and retained across
/// iterations. Each Fit call owns one instance for its whole loop. For the
/// alg1 hot loop this makes warm iterations completely allocation-free
/// (pinned by tests/alloc_test.cc); the Peeling-based and LASSO solvers
/// still allocate inside Peel() / EmpiricalGradient() each iteration --
/// routing those through the workspace is the natural next step.
struct SolverWorkspace {
  RobustGradientWorkspace gradient;  // robust-gradient reduction scratch
  Vector robust_grad;                // g~(w, fold)
  Vector scores;                     // exponential-mechanism vertex scores
  Vector w_half;                     // pre-Peeling half step (IHT solvers)
  Vector noise;                      // vector noise fills (FillNormal path)
};

/// Non-aborting precondition sweep every TryFit runs before touching the
/// problem's pointers: data present and well-shaped (kShapeMismatch), the
/// solver's declared requirements satisfied -- loss, constraint, sparsity
/// target (kInvalidProblem) -- w0/constraint dimensions consistent
/// (kShapeMismatch), every x and y entry of the rows the fit reads and every
/// w0 entry finite (kInvalidProblem, naming the row and column), and a
/// fundable budget incl. the delta > 0 requirement of the approximate-DP
/// solvers (kBudgetExhausted).
Status ValidateProblem(const Solver& solver, const Problem& problem,
                       const SolverSpec& spec);

/// Fills the spec's resolution inputs (algorithm id, target sparsity,
/// vertex count) from the problem and runs SolverSpec::Resolve against the
/// problem's effective sample range. Returns the resolved spec, or the
/// resolve error (typed: budget vs. configuration). Assumes ValidateProblem
/// already passed.
StatusOr<SolverSpec> TryResolveSpec(const Solver& solver,
                                    const Problem& problem,
                                    const SolverSpec& spec);

/// kInvalidProblem unless `loss` has the scaled-feature gradient form
/// (Loss::GradientAsScaledFeature) that RobustGradientEstimator::Estimate
/// requires; probed at the first sample of `data` and `w0`. Run by every
/// solver that builds a FoldedRobustPlan, before it builds one.
Status CheckRobustGradientLoss(const Solver& solver, const Loss& loss,
                               const DatasetView& data, const Vector& w0);

/// The fold-split robust-gradient plan shared by the splitting-based
/// algorithms: one disjoint contiguous fold per iteration, one deterministic
/// Catoni estimator at the resolved truncation scale. Errors with
/// kInvalidProblem when the (possibly pinned) iteration count exceeds the
/// sample count.
struct FoldedRobustPlan {
  RobustGradientEstimator estimator;
  std::vector<DatasetView> folds;
};
StatusOr<FoldedRobustPlan> TryMakeFoldedRobustPlan(const DatasetView& data,
                                                   const SolverSpec& resolved);

/// Entrywise shrinkage x~ = sign(x) min(|x|, K) of features and labels
/// (step 2 of Algorithms 2 and 3). The view overload copies only the
/// view's rows, so prefix fits shrink exactly the samples they train on.
Dataset ShrinkDataset(const Dataset& data, double threshold);
Dataset ShrinkDataset(const DatasetView& view, double threshold);

/// True when the spec's cooperative-stop hook requests termination; the
/// solvers poll this at the top of every iteration and return kCancelled.
inline bool StopRequested(const SolverSpec& spec) {
  return spec.should_stop && spec.should_stop();
}

/// The kCancelled status a solver returns when StopRequested fires.
Status CancelledStatus(const Solver& solver);

/// Invokes the spec's observer, if any, with a post-iteration snapshot.
void NotifyObserver(const SolverSpec& spec, int iteration, int total,
                    const Vector& w, const PrivacyLedger& ledger);

}  // namespace htdp

#endif  // HTDP_API_SOLVER_COMMON_H_
