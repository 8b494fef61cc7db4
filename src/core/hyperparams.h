#ifndef HTDP_CORE_HYPERPARAMS_H_
#define HTDP_CORE_HYPERPARAMS_H_

#include <cstddef>

#include "dp/privacy.h"
#include "util/status.h"

namespace htdp {

/// Theory-driven default hyper-parameter schedules for the four algorithms,
/// following Theorems 2, 5, 7 and 8 plus the experimental settings of
/// Section 6.2. Where the paper's experimental constants contradict its own
/// theorems (the literal "s = floor(n eps)" for Algorithm 1 and
/// "k = c2 n eps" for Algorithm 5 degenerate the bias/noise trade-off), the
/// theorem-driven value is used; see "Deviations from the paper" in
/// README.md.
///
/// One entry point per schedule: TrySolveAlgX returns an error Status on
/// degenerate inputs (n * epsilon < 1, target_sparsity == 0, zeta outside
/// (0, 1), non-finite results) instead of proceeding, and otherwise clamps
/// T into [1, n]. SolverSpec::Resolve uses these, which is what makes the
/// facade guarantee T >= 1, s >= 1 and finite positive scales. The solvers
/// take the typed PrivacyBudget (dp/privacy.h) -- the same budget type the
/// accountant splits and the ledger audits -- and validate it with
/// PrivacyBudget::Check before the n * epsilon fundability floor.

/// Algorithm 1 (Theorem 2 / Section 6.2).
struct Alg1Schedule {
  int iterations = 1;    // T = floor((n eps)^(1/3)), at least 1
  double scale = 1.0;    // s = sqrt(n eps tau / (T log(|V| d T / zeta)))
  double beta = 1.0;     // beta = O(1)
};
Status TrySolveAlg1Schedule(std::size_t n, std::size_t d,
                            const PrivacyBudget& budget, double tau,
                            std::size_t num_vertices, double zeta,
                            Alg1Schedule* out);

/// Algorithm 1 variant for the non-convex robust regression of Theorem 3:
/// T = sqrt(n eps / log(d/zeta)), fixed step eta = 1/sqrt(T),
/// s = sqrt(n eps / (sqrt(T) log(d T / zeta))).
struct Alg1RobustSchedule {
  int iterations = 1;
  double scale = 1.0;
  double beta = 1.0;
  double step = 1.0;  // fixed eta
};
Status TrySolveAlg1RobustSchedule(std::size_t n, std::size_t d,
                                  const PrivacyBudget& budget, double zeta,
                                  Alg1RobustSchedule* out);

/// Algorithm 2 (Theorem 5 / Section 6.2).
struct Alg2Schedule {
  int iterations = 1;    // T = ceil((n eps)^(2/5))
  double shrinkage = 1.0;  // K = (n eps)^(1/4) / T^(1/8)
};
Status TrySolveAlg2Schedule(std::size_t n, const PrivacyBudget& budget,
                            Alg2Schedule* out);

/// Algorithm 3 (Theorem 7 / Section 6.2).
struct Alg3Schedule {
  int iterations = 1;      // T = floor(log n), at least 1
  std::size_t sparsity = 1;  // s = multiplier * s_star
  double shrinkage = 1.0;  // K = (n eps / (s T))^(1/4)
  double step = 0.5;       // eta0 (Section 6.2 uses 0.5)
};
Status TrySolveAlg3Schedule(std::size_t n, const PrivacyBudget& budget,
                            std::size_t target_sparsity, int multiplier,
                            Alg3Schedule* out);

/// The Algorithm 3 shrinkage rule K = (n eps / (s T))^(1/4) alone, for
/// recomputing K against a caller-pinned (s, T) pair. The single source of
/// truth shared with TrySolveAlg3Schedule.
Status TrySolveAlg3Shrinkage(std::size_t n, const PrivacyBudget& budget,
                             std::size_t sparsity, int iterations,
                             double* shrinkage);

/// Algorithm 4 (Peeling) as a standalone screening primitive: the entrywise
/// shrinkage threshold K = (n eps)^(1/4) bounding each sample's influence
/// on the released coordinate means. Shares the n * epsilon >= 1 floor with
/// every other strict schedule solver.
Status TrySolvePeelingShrinkage(std::size_t n, const PrivacyBudget& budget,
                                double* shrinkage);

/// Algorithm 5 (Theorem 8 / Section 6.2).
struct Alg5Schedule {
  int iterations = 1;      // T = floor(log n), at least 1
  std::size_t sparsity = 1;  // s = 2 s* (Section 6.2)
  double scale = 1.0;      // k = (n^2 eps^2 tau^2 / ((sT)^2 log(Ts/zeta)))^(1/4)
  double beta = 1.0;
  double step = 0.5;       // eta (Section 6.2 uses 0.5)
};
Status TrySolveAlg5Schedule(std::size_t n, std::size_t d,
                            const PrivacyBudget& budget, double tau,
                            std::size_t target_sparsity, double zeta,
                            Alg5Schedule* out);

}  // namespace htdp

#endif  // HTDP_CORE_HYPERPARAMS_H_
