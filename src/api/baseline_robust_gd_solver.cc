// The [WXDX20]-style low-dimensional baseline (full-vector Gaussian noise on
// the robust gradient) behind the Solver facade. The precondition checks
// live in the non-aborting TryFit contract.
// Registered so dimension ablations can enumerate it next to the paper's
// algorithms.

#include <cmath>
#include <cstddef>

#include "api/solver_common.h"
#include "obs/trace.h"
#include "api/solvers.h"
#include "dp/accountant.h"
#include "dp/gaussian_mechanism.h"
#include "optim/pgd.h"
#include "util/check.h"
#include "util/timer.h"

namespace htdp {
namespace {

class BaselineRobustGdSolver final : public Solver {
 public:
  std::string name() const override { return "baseline_robust_gd"; }
  std::string description() const override {
    return "[WXDX20]-style baseline ((eps,delta)-DP projected GD with "
           "full-vector Gaussian noise on the Catoni robust gradient; "
           "poly(d) error)";
  }
  AlgorithmId algorithm() const override { return AlgorithmId::kRobustGd; }

  StatusOr<FitResult> TryFit(const Problem& problem, const SolverSpec& spec,
                             Rng& rng) const override {
    const WallTimer timer;
    HTDP_RETURN_IF_ERROR(ValidateProblem(*this, problem, spec));
    const DatasetView data = problem.View();
    const Loss& loss = *problem.loss;
    const Vector w0 = problem.InitialIterate();
    HTDP_RETURN_IF_ERROR(CheckBetaPositive(spec.beta));
    HTDP_RETURN_IF_ERROR(CheckRobustGradientLoss(*this, loss, data, w0));

    HTDP_ASSIGN_OR_RETURN(const SolverSpec resolved,
                          TryResolveSpec(*this, problem, spec));
    const int iterations = resolved.iterations;
    const std::size_t d = data.dim();
    HTDP_ASSIGN_OR_RETURN(const FoldedRobustPlan plan,
                          TryMakeFoldedRobustPlan(data, resolved));

    PgdOptions projection;
    projection.projection = resolved.projection;
    projection.radius = resolved.radius;

    // One full-budget Gaussian release per disjoint fold (parallel
    // composition). GaussianFor at steps == 1 keeps the classic
    // sqrt(2 ln(1.25/delta))/epsilon calibration for the advanced/basic
    // backends (bit-identical to the historical construction); the zcdp
    // backend may substitute its rho-derived sigma when that is tighter.
    const GaussianCalibration calibration =
        GetAccountant(resolved.accounting)
            .GaussianFor(resolved.budget, /*steps=*/1);

    FitResult result;
    result.w = w0;
    result.iterations = iterations;
    result.scale_used = resolved.scale;
    result.ledger.SetAccounting(resolved.accounting, resolved.budget.delta);

    result.ledger.Reserve(static_cast<std::size_t>(iterations));
    SolverWorkspace ws;
    Vector& grad = ws.robust_grad;
    for (int t = 1; t <= iterations; ++t) {
      if (StopRequested(resolved)) return CancelledStatus(*this);
      HTDP_TRACE_SPAN("baseline.iteration");
      const DatasetView& fold = plan.folds[static_cast<std::size_t>(t - 1)];
      plan.estimator.Estimate(loss, fold, result.w, grad, &ws.gradient);

      // Coordinate-wise sensitivity 4 sqrt(2) s/(3m) becomes sqrt(d) times
      // that in l2 -- the full-vector release is where poly(d) enters.
      const double l2_sensitivity = std::sqrt(static_cast<double>(d)) *
                                    plan.estimator.Sensitivity(fold.size());
      const GaussianMechanism mechanism =
          calibration.sigma_multiplier > 0.0
              ? GaussianMechanism::WithSigma(l2_sensitivity *
                                             calibration.sigma_multiplier)
              : GaussianMechanism(l2_sensitivity, calibration.step_epsilon,
                                  calibration.step_delta);
      if (resolved.vector_noise_fill) {
        mechanism.PrivatizeInPlaceFilled(grad, ws.noise, rng);
      } else {
        mechanism.PrivatizeInPlace(grad, rng);
      }
      result.ledger.Record({"gaussian", calibration.step_epsilon,
                            calibration.step_delta, l2_sensitivity,
                            /*fold=*/t - 1, /*rho=*/calibration.rho});

      const double eta = resolved.step > 0.0
                             ? resolved.step
                             : 2.0 / (static_cast<double>(t) + 2.0);
      Axpy(-eta, grad, result.w);
      ApplyProjection(projection, result.w);

      if (resolved.record_risk_trace) {
        result.risk_trace.push_back(EmpiricalRisk(loss, data, result.w));
      }
      NotifyObserver(resolved, t, iterations, result.w, result.ledger);
    }
    result.seconds = timer.ElapsedSeconds();
    return result;
  }
};

}  // namespace

std::unique_ptr<Solver> CreateBaselineRobustGdSolver() {
  return std::make_unique<BaselineRobustGdSolver>();
}

}  // namespace htdp
