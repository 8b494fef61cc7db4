#ifndef HTDP_API_SOLVER_SPEC_H_
#define HTDP_API_SOLVER_SPEC_H_

#include <cstddef>
#include <functional>
#include <string>

#include "api/fit_result.h"
#include "api/privacy_budget.h"
#include "optim/pgd.h"
#include "util/status.h"

namespace htdp {

/// Which of the paper's algorithms a SolverSpec is being resolved for. Set
/// by the Solver implementation, not by callers.
enum class AlgorithmId {
  kDpFw,          // Algorithm 1, heavy-tailed DP Frank-Wolfe
  kPrivateLasso,  // Algorithm 2, shrunken-data private LASSO
  kSparseLinReg,  // Algorithm 3, truncated DP-IHT for sparse linreg
  kPeeling,       // Algorithm 4, private top-s selection
  kSparseOpt,     // Algorithm 5, robust-gradient DP-IHT
  kRobustGd,      // [WXDX20]-style full-vector Gaussian baseline
};

/// The single options type shared by every Solver: each solver reads the
/// fields that apply to it and ignores the rest (documented per field).
/// Every schedule field left at its zero value is auto-solved from the
/// paper's theorem schedules by Resolve(); explicit values are taken
/// verbatim.
struct SolverSpec {
  /// The end-to-end privacy contract. Pure-DP solvers (alg1_dp_fw) ignore
  /// delta; every other solver requires delta > 0.
  PrivacyBudget budget;

  /// The PrivacyAccountant backend (dp/accountant.h) that splits `budget`
  /// across the solver's mechanism invocations and composes the FitResult's
  /// ledger totals. The default, kAdvanced, reproduces the historical
  /// Lemma-2 arithmetic bit for bit; kZcdp buys a strictly larger per-step
  /// budget (less noise) at the same end-to-end (epsilon, delta) for every
  /// solver that composes sequentially (alg2_private_lasso); kBasic is the
  /// loose sum-split. The disjoint-fold solvers spend the full budget per
  /// fold (parallel composition), so their noise is backend-independent.
  Accounting accounting = Accounting::kAdvanced;

  // --- Schedule (0 = auto-solve from hyperparams.h). ---------------------
  int iterations = 0;        // T
  double scale = 0.0;        // Catoni truncation scale s/k (alg1/alg5/
                             // baseline); ignored by alg2-alg4
  double shrinkage = 0.0;    // entrywise shrinkage threshold K (alg2-alg4)
  std::size_t sparsity = 0;  // Peeling sparsity s (alg3-alg5)

  // --- Assumptions & knobs. ----------------------------------------------
  int sparsity_multiplier = 2;  // the c of Section 6.2's s = c s* (alg3)
  double beta = 1.0;            // Catoni smoothing precision
  double tau = 1.0;             // coordinate-wise gradient 2nd-moment bound
  double zeta = 0.1;            // failure probability in the log terms
  double step = 0.0;            // 0 = per-algorithm default (0.5 for the
                                // IHT solvers, diminishing for the baseline)
  bool diminishing_step = true;   // alg1: eta_t = 2/(t+2) vs fixed step
  double fixed_step = 0.0;        // alg1 fixed step; 0 = 1/sqrt(T)
  PgdOptions::Projection projection =
      PgdOptions::Projection::kL1Ball;  // baseline_robust_gd only
  double radius = 1.0;                  // baseline_robust_gd only
  bool vector_noise_fill = false;  // draw noise vectors via FillNormal (both
                                   // Box-Muller outputs per uniform pair);
                                   // changes the RNG stream, so pinned seeds
                                   // only stay bit-identical while this is
                                   // off. baseline_robust_gd only.

  /// Route exponential-mechanism selections through the SIMD Gumbel-max
  /// kernel (ExponentialMechanism::SelectGumbelSimd): the per-candidate
  /// Gumbel draws are computed with the vectorized log, so the draw stream
  /// consumes exactly the same uniforms but the realized noise can differ
  /// from the scalar sampler by a few ULP -- enough to flip an argmax on
  /// rare near-ties. Off by default so pinned seeds keep reproducing the
  /// historical selections bit for bit; the samplers are distributionally
  /// identical (pinned by tests/dp_test.cc). Read by the selection solvers
  /// (alg1_dp_fw, alg2_private_lasso).
  bool simd_select = false;

  // --- Instrumentation (never affects the optimization path). ------------
  bool record_risk_trace = false;
  IterationObserver observer;  // invoked after every iteration

  // --- Cooperative cancellation. -----------------------------------------
  /// Polled once at the start of every iteration; when it returns true the
  /// solver stops immediately and TryFit returns a kCancelled Status (no
  /// partial FitResult). Never sampled from the RNG, so a fit that is not
  /// stopped stays bit-identical with or without the hook installed. The
  /// Engine wires job cancellation and wall-clock deadlines through this.
  ///
  /// Privacy accounting under cancellation: iterations that ran before the
  /// stop HAVE released their mechanism outputs, but the discarded
  /// FitResult's ledger is not returned. Callers that cancel fits and need
  /// an exact spend audit should install `observer` as well -- every
  /// IterationEvent carries the running PrivacyLedger, so the last event
  /// seen is the authoritative record of what was actually released.
  std::function<bool()> should_stop;

  // --- Resolution inputs, filled from the Problem by Solver::Fit. --------
  AlgorithmId algorithm = AlgorithmId::kDpFw;
  std::size_t target_sparsity = 0;  // s* (from Problem.target_sparsity)
  std::size_t num_vertices = 0;     // |V| (from the constraint; 0 = 2d)

  /// Applies the theorem-driven auto-schedules of hyperparams.h to every
  /// schedule field left at 0. Returns an error Status -- and leaves the
  /// spec unusable -- on degenerate configurations (n * epsilon < 1,
  /// missing sparsity target, zeta outside (0, 1)); it never produces
  /// T < 1, s == 0 or a non-finite scale. Explicitly set schedule fields
  /// are taken verbatim -- and a fully pinned schedule skips the auto-solve
  /// together with its input validation (tau/zeta are then the caller's
  /// responsibility; the solvers still HTDP_CHECK their own preconditions).
  Status Resolve(std::size_t n, std::size_t d);

  /// step if explicitly set (including invalid negative values, so the
  /// solvers' step validation can reject them), otherwise the per-algorithm
  /// default.
  double StepOr(double fallback) const {
    return step != 0.0 ? step : fallback;
  }
};

/// Shared knob checks used by every solver that reads the field, so the
/// per-solver diagnostics cannot diverge.
inline Status CheckStepPositive(double step) {
  if (!(step > 0.0)) {
    return Status::InvalidProblem("SolverSpec.step must be > 0");
  }
  return Status::Ok();
}

inline Status CheckBetaPositive(double beta) {
  if (!(beta > 0.0)) {
    return Status::InvalidProblem("SolverSpec.beta must be > 0");
  }
  return Status::Ok();
}

inline Status CheckSparsityWithinDim(std::size_t sparsity, std::size_t dim) {
  if (sparsity > dim) {
    return Status::InvalidProblem("sparsity exceeds the dimension");
  }
  return Status::Ok();
}

inline Status CheckFoldsFitSamples(int iterations, std::size_t samples) {
  if (iterations > 0 && static_cast<std::size_t>(iterations) > samples) {
    return Status::InvalidProblem(
        "schedule has more folds (iterations=" + std::to_string(iterations) +
        ") than samples (" + std::to_string(samples) + ")");
  }
  return Status::Ok();
}

}  // namespace htdp

#endif  // HTDP_API_SOLVER_SPEC_H_
