#ifndef HTDP_CORE_HTDP_H_
#define HTDP_CORE_HTDP_H_

/// Umbrella header for the htdp library: high-dimensional differentially
/// private stochastic optimization with heavy-tailed data (Hu, Ni, Xiao,
/// Wang; PODS 2022).
///
/// The public API is the unified Solver facade in src/api/:
///
///   Problem        -- WHAT to solve: loss + dataset + constraint geometry
///                     (a Polytope) or sparsity target s*.
///   PrivacyBudget  -- the end-to-end contract: eps (pure) or (eps, delta);
///                     THE budget type everywhere (dp/privacy.h), split and
///                     audited by the PrivacyAccountant backends of
///                     dp/accountant.h (SolverSpec::accounting picks basic /
///                     advanced / zcdp; advanced is the bit-identical
///                     default).
///   SolverSpec     -- HOW to solve: budget + schedule overrides (0 = auto
///                     from the theorem schedules via SolverSpec::Resolve)
///                     + per-iteration observer.
///   Solver         -- the estimator interface; all five paper algorithms
///                     implement it. TryFit() is the non-aborting entry
///                     point (typed Status taxonomy in util/status.h);
///                     Fit() the CHECK-on-error wrapper.
///   SolverRegistry -- WHO solves: algorithms constructible by name
///                     (Find()/TryCreate() for the non-aborting path).
///   FitResult      -- iterate + PrivacyLedger audit + resolved schedule +
///                     risk trace + timing.
///   Engine         -- concurrent fit-job service (api/engine.h): Submit
///                     FitJobs, get JobHandles; cancellation, deadlines,
///                     EngineStats; results bit-identical to sequential
///                     TryFit at fixed seeds. With a BudgetManager
///                     (api/budget_manager.h) it enforces shared
///                     named-tenant budgets: over-budget submissions are
///                     rejected as kBudgetExhausted before any work runs.
///
/// Registered solver names:
///   "alg1_dp_fw"          -- Alg.1, heavy-tailed DP Frank-Wolfe (eps-DP)
///   "alg2_private_lasso"  -- Alg.2, shrunken-data private LASSO
///   "alg3_sparse_linreg"  -- Alg.3, truncated DP-IHT for sparse linreg
///   "alg4_peeling"        -- Alg.4, private top-s selection primitive
///   "alg5_sparse_opt"     -- Alg.5, robust-gradient DP-IHT (general loss)
///   "baseline_robust_gd"  -- [WXDX20]-style poly(d) Gaussian baseline
///
/// The registry is the only fit API: every algorithm above runs through
/// Solver::TryFit / Fit. A degenerate auto-schedule configuration
/// (n * epsilon < 1) is rejected with a diagnostic instead of silently
/// clamping T to 1 and returning a noise-dominated result; pin
/// `iterations`/`scale` explicitly to opt into tiny-budget runs.

#include "api/api.h"
#include "core/hyperparams.h"
#include "core/minimax.h"
#include "core/peeling.h"
#include "core/robust_gradient.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/real_world_sim.h"
#include "data/synthetic.h"
#include "dp/accountant.h"
#include "dp/exponential_mechanism.h"
#include "dp/gaussian_mechanism.h"
#include "dp/laplace_mechanism.h"
#include "dp/privacy.h"
#include "dp/privacy_ledger.h"
#include "linalg/matrix.h"
#include "linalg/projections.h"
#include "linalg/sparse_ops.h"
#include "linalg/spectrum.h"
#include "linalg/vector_ops.h"
#include "losses/biweight_loss.h"
#include "losses/huber_loss.h"
#include "losses/logistic_loss.h"
#include "losses/loss.h"
#include "losses/mean_loss.h"
#include "losses/squared_loss.h"
#include "optim/frank_wolfe.h"
#include "optim/iht.h"
#include "optim/pgd.h"
#include "optim/polytope.h"
#include "rng/distributions.h"
#include "rng/rng.h"
#include "robust/catoni.h"
#include "robust/median_of_means.h"
#include "robust/robust_mean.h"
#include "robust/shrinkage.h"
#include "robust/trimmed_mean.h"
#include "stats/metrics.h"
#include "stats/moments.h"
#include "stats/summary.h"

#endif  // HTDP_CORE_HTDP_H_
