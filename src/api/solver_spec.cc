#include "api/solver_spec.h"

#include <algorithm>
#include <cstddef>

#include "core/hyperparams.h"

namespace htdp {

Status SolverSpec::Resolve(std::size_t n, std::size_t d) {
  if (Status s = budget.Check(); !s.ok()) return s;
  if (n == 0) return Status::Invalid("dataset is empty");
  if (d == 0) return Status::Invalid("dataset has dimension 0");

  // The auto-schedule is solved only when at least one of its outputs is
  // unset, and explicitly pinned fields are never overwritten.
  switch (algorithm) {
    case AlgorithmId::kDpFw: {
      if (iterations <= 0 || scale <= 0.0) {
        Alg1Schedule schedule;
        if (Status s = TrySolveAlg1Schedule(
                n, d, budget, tau,
                num_vertices > 0 ? num_vertices : 2 * d, zeta, &schedule);
            !s.ok()) {
          return s;
        }
        if (iterations <= 0) iterations = schedule.iterations;
        if (scale <= 0.0) scale = schedule.scale;
      }
      break;
    }
    case AlgorithmId::kPrivateLasso: {
      if (iterations <= 0 || shrinkage <= 0.0) {
        Alg2Schedule schedule;
        if (Status s = TrySolveAlg2Schedule(n, budget, &schedule);
            !s.ok()) {
          return s;
        }
        if (iterations <= 0) iterations = schedule.iterations;
        if (shrinkage <= 0.0) shrinkage = schedule.shrinkage;
      }
      break;
    }
    case AlgorithmId::kSparseLinReg: {
      if (iterations <= 0 || sparsity == 0 || shrinkage <= 0.0) {
        if (target_sparsity == 0 && sparsity == 0) {
          return Status::Invalid("set target_sparsity (s*) or sparsity (s)");
        }
        const std::size_t s_star =
            target_sparsity > 0 ? target_sparsity : sparsity;
        Alg3Schedule schedule;
        if (Status s = TrySolveAlg3Schedule(n, budget, s_star,
                                            sparsity_multiplier, &schedule);
            !s.ok()) {
          return s;
        }
        if (iterations <= 0) iterations = schedule.iterations;
        if (sparsity == 0) sparsity = schedule.sparsity;
        if (shrinkage <= 0.0) {
          // Recompute K with the final (s, T) in case the caller pinned them.
          if (Status s = TrySolveAlg3Shrinkage(n, budget, sparsity,
                                               iterations, &shrinkage);
              !s.ok()) {
            return s;
          }
        }
      }
      break;
    }
    case AlgorithmId::kPeeling: {
      if (sparsity == 0) sparsity = target_sparsity;
      if (sparsity == 0) {
        return Status::Invalid("set target_sparsity (s*) or sparsity (s)");
      }
      if (Status s = CheckSparsityWithinDim(sparsity, d); !s.ok()) return s;
      // Peeling is a single selection round; a pinned iteration count has
      // nothing to drive and is normalized away so FitResult.iterations
      // always reports what actually ran.
      iterations = 1;
      if (shrinkage <= 0.0) {
        if (Status s = TrySolvePeelingShrinkage(n, budget,
                                                &shrinkage);
            !s.ok()) {
          return s;
        }
      }
      break;
    }
    case AlgorithmId::kSparseOpt: {
      if (iterations <= 0 || sparsity == 0 || scale <= 0.0) {
        if (target_sparsity == 0 && sparsity == 0) {
          return Status::Invalid("set target_sparsity (s*) or sparsity (s)");
        }
        const std::size_t s_star =
            target_sparsity > 0 ? target_sparsity : sparsity / 2;
        Alg5Schedule schedule;
        if (Status s = TrySolveAlg5Schedule(
                n, d, budget, tau,
                std::max<std::size_t>(s_star, 1), zeta, &schedule);
            !s.ok()) {
          return s;
        }
        if (iterations <= 0) iterations = schedule.iterations;
        if (sparsity == 0) sparsity = schedule.sparsity;
        if (scale <= 0.0) scale = schedule.scale;
      }
      break;
    }
    case AlgorithmId::kRobustGd: {
      if (iterations <= 0 || scale <= 0.0) {
        // Mirrors Algorithm 1's schedule with the l1-ball vertex count.
        Alg1Schedule schedule;
        if (Status s = TrySolveAlg1Schedule(n, d, budget, tau, 2 * d,
                                            zeta, &schedule);
            !s.ok()) {
          return s;
        }
        if (iterations <= 0) iterations = schedule.iterations;
        if (scale <= 0.0) scale = schedule.scale;
      }
      break;
    }
  }
  return Status::Ok();
}

}  // namespace htdp
