#ifndef HTDP_API_SOLVERS_H_
#define HTDP_API_SOLVERS_H_

#include <memory>

#include "api/solver.h"

namespace htdp {

/// Factories for the built-in Solver implementations. Callers should go
/// through SolverRegistry::Global() instead; these exist so the registry can
/// bootstrap itself.
std::unique_ptr<Solver> CreateAlg1DpFwSolver();
std::unique_ptr<Solver> CreateAlg2PrivateLassoSolver();
std::unique_ptr<Solver> CreateAlg3SparseLinRegSolver();
std::unique_ptr<Solver> CreateAlg4PeelingSolver();
std::unique_ptr<Solver> CreateAlg5SparseOptSolver();
std::unique_ptr<Solver> CreateBaselineRobustGdSolver();

}  // namespace htdp

#endif  // HTDP_API_SOLVERS_H_
