// Algorithm 5 (robust-gradient DP-IHT for general smooth losses) behind the
// Solver facade. The precondition checks live in the non-aborting TryFit
// contract.

#include <cmath>
#include <cstddef>

#include "api/solver_common.h"
#include "obs/trace.h"
#include "api/solvers.h"
#include "core/peeling.h"
#include "dp/accountant.h"
#include "util/check.h"
#include "util/timer.h"

namespace htdp {
namespace {

class Alg5SparseOptSolver final : public Solver {
 public:
  std::string name() const override { return "alg5_sparse_opt"; }
  std::string description() const override {
    return "Alg.5 heavy-tailed private sparse optimization ((eps,delta)-DP "
           "robust-gradient DP-IHT with Peeling on disjoint folds; any "
           "smooth loss)";
  }
  AlgorithmId algorithm() const override { return AlgorithmId::kSparseOpt; }
  bool requires_sparsity() const override { return true; }

  StatusOr<FitResult> TryFit(const Problem& problem, const SolverSpec& spec,
                             Rng& rng) const override {
    const WallTimer timer;
    HTDP_RETURN_IF_ERROR(ValidateProblem(*this, problem, spec));
    const DatasetView data = problem.View();
    const Loss& loss = *problem.loss;
    const Vector w0 = problem.InitialIterate();
    const double step = spec.StepOr(0.5);
    HTDP_RETURN_IF_ERROR(CheckStepPositive(step));
    HTDP_RETURN_IF_ERROR(CheckBetaPositive(spec.beta));
    HTDP_RETURN_IF_ERROR(CheckRobustGradientLoss(*this, loss, data, w0));

    HTDP_ASSIGN_OR_RETURN(const SolverSpec resolved,
                          TryResolveSpec(*this, problem, spec));
    const int iterations = resolved.iterations;
    const std::size_t sparsity = resolved.sparsity;
    const double scale = resolved.scale;
    HTDP_RETURN_IF_ERROR(CheckSparsityWithinDim(sparsity, data.dim()));
    HTDP_ASSIGN_OR_RETURN(const FoldedRobustPlan plan,
                          TryMakeFoldedRobustPlan(data, resolved));

    // One full-budget Peeling release per disjoint fold (parallel
    // composition); backend-independent by the steps == 1 contract.
    const StepBudget release = GetAccountant(resolved.accounting)
                                   .StepBudgetFor(resolved.budget, /*steps=*/1);

    FitResult result;
    result.w = w0;
    result.iterations = iterations;
    result.sparsity_used = sparsity;
    result.scale_used = scale;
    result.ledger.SetAccounting(resolved.accounting, resolved.budget.delta);

    result.ledger.Reserve(static_cast<std::size_t>(iterations));
    SolverWorkspace ws;
    for (int t = 0; t < iterations; ++t) {
      if (StopRequested(resolved)) return CancelledStatus(*this);
      HTDP_TRACE_SPAN("alg5.iteration");
      const DatasetView& fold = plan.folds[static_cast<std::size_t>(t)];
      const std::size_t m = fold.size();

      plan.estimator.Estimate(loss, fold, result.w, ws.robust_grad,
                              &ws.gradient);
      ws.w_half = result.w;
      Axpy(-step, ws.robust_grad, ws.w_half);

      // Peeling with the paper's lambda = 4 sqrt(2) k eta / m, which
      // dominates the true step sensitivity eta * 4 sqrt(2) k / (3 m).
      PeelingOptions peeling;
      peeling.sparsity = sparsity;
      peeling.epsilon = release.epsilon;
      peeling.delta = release.delta;
      peeling.linf_sensitivity = 4.0 * std::sqrt(2.0) * scale * step /
                                 static_cast<double>(m);
      const PeelingResult peeled =
          Peel(ws.w_half, peeling, rng, &result.ledger, /*fold=*/t);
      result.w = peeled.value;
      if (t + 1 == iterations) {
        result.selected = peeled.selected;  // final iteration's support
      }

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

std::unique_ptr<Solver> CreateAlg5SparseOptSolver() {
  return std::make_unique<Alg5SparseOptSolver>();
}

}  // namespace htdp
