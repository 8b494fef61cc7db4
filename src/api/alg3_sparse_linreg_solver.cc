// Algorithm 3 (truncated DP-IHT for sparse linear regression) behind the
// Solver facade; squared loss by construction. The precondition checks live
// in the non-aborting TryFit contract.

#include <cmath>
#include <cstddef>

#include "api/solver_common.h"
#include "obs/trace.h"
#include "api/solvers.h"
#include "core/peeling.h"
#include "dp/accountant.h"
#include "linalg/projections.h"
#include "losses/squared_loss.h"
#include "util/check.h"
#include "util/timer.h"

namespace htdp {
namespace {

class Alg3SparseLinRegSolver final : public Solver {
 public:
  std::string name() const override { return "alg3_sparse_linreg"; }
  std::string description() const override {
    return "Alg.3 heavy-tailed private sparse linear regression "
           "((eps,delta)-DP truncated DP-IHT: shrinkage + gradient step + "
           "Peeling on disjoint folds)";
  }
  AlgorithmId algorithm() const override {
    return AlgorithmId::kSparseLinReg;
  }
  bool requires_sparsity() const override { return true; }
  bool requires_loss() const override { return false; }

  StatusOr<FitResult> TryFit(const Problem& problem, const SolverSpec& spec,
                             Rng& rng) const override {
    const WallTimer timer;
    HTDP_RETURN_IF_ERROR(ValidateProblem(*this, problem, spec));
    const DatasetView data = problem.View();
    const Vector w0 = problem.InitialIterate();
    const double step = spec.StepOr(0.5);
    HTDP_RETURN_IF_ERROR(CheckStepPositive(step));

    HTDP_ASSIGN_OR_RETURN(const SolverSpec resolved,
                          TryResolveSpec(*this, problem, spec));
    const int iterations = resolved.iterations;
    const std::size_t sparsity = resolved.sparsity;
    const double shrinkage = resolved.shrinkage;
    HTDP_RETURN_IF_ERROR(CheckSparsityWithinDim(sparsity, data.dim()));
    HTDP_RETURN_IF_ERROR(CheckFoldsFitSamples(iterations, data.size()));

    // Step 2: entrywise shrinkage.
    const Dataset shrunken = ShrinkDataset(data, shrinkage);

    const std::vector<DatasetView> folds =
        SplitIntoFolds(shrunken, static_cast<std::size_t>(iterations));

    // Each Peeling call touches its own disjoint fold, so every iteration
    // spends the full budget (parallel composition): a single release is
    // backend-independent by the accountant's steps == 1 contract.
    const StepBudget release = GetAccountant(resolved.accounting)
                                   .StepBudgetFor(resolved.budget, /*steps=*/1);

    FitResult result;
    result.w = w0;
    result.iterations = iterations;
    result.sparsity_used = sparsity;
    result.shrinkage_used = shrinkage;
    result.ledger.SetAccounting(resolved.accounting, resolved.budget.delta);

    const SquaredLoss loss;
    const std::size_t d = data.dim();
    const double k2 = shrinkage * shrinkage;
    result.ledger.Reserve(static_cast<std::size_t>(iterations));
    SolverWorkspace ws;
    Vector& grad = ws.robust_grad;
    grad.assign(d, 0.0);
    for (int t = 0; t < iterations; ++t) {
      if (StopRequested(resolved)) return CancelledStatus(*this);
      HTDP_TRACE_SPAN("alg3.iteration");
      const DatasetView& fold = folds[static_cast<std::size_t>(t)];
      const std::size_t m = fold.size();

      // w_{t+0.5} = w_t - (eta0/m) sum_i x~_i (<x~_i, w_t> - y~_i).
      SetZero(grad);
      for (std::size_t i = 0; i < m; ++i) {
        const double* row = fold.Row(i);
        const double residual =
            Dot(row, result.w.data(), d) - fold.Label(i);
        AxpyKernel(residual, row, grad.data(), d);
      }
      ws.w_half = result.w;
      Vector& w_half = ws.w_half;
      Axpy(-step / static_cast<double>(m), grad, w_half);

      // Step 6: Peeling with lambda = 2 K^2 eta0 (sqrt(s) + 1) / m.
      PeelingOptions peeling;
      peeling.sparsity = sparsity;
      peeling.epsilon = release.epsilon;
      peeling.delta = release.delta;
      peeling.linf_sensitivity =
          2.0 * k2 * step *
          (std::sqrt(static_cast<double>(sparsity)) + 1.0) /
          static_cast<double>(m);
      const PeelingResult peeled =
          Peel(w_half, peeling, rng, &result.ledger, /*fold=*/t);

      // Step 7: project onto the unit l2 ball.
      result.w = peeled.value;
      if (t + 1 == iterations) {
        result.selected = peeled.selected;  // final iteration's support
      }
      ProjectOntoL2Ball(1.0, result.w);

      if (resolved.record_risk_trace) {
        result.risk_trace.push_back(EmpiricalRisk(loss, data, result.w));
      }
      NotifyObserver(resolved, t + 1, iterations, result.w, result.ledger);
    }
    result.seconds = timer.ElapsedSeconds();
    return result;
  }
};

}  // namespace

std::unique_ptr<Solver> CreateAlg3SparseLinRegSolver() {
  return std::make_unique<Alg3SparseLinRegSolver>();
}

}  // namespace htdp
