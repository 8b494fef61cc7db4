// Figure 10: Algorithm 5 (Heavy-tailed Private Sparse Optimization) on
// l2-regularized logistic regression with x ~ N(0, 5) and latent noise
// ~ Logistic(u = 0, s = 0.5).
//
// Note: the paper's body text specifies logistic noise while the figure
// caption says lognormal; we follow the body text (see "Deviations from the
// paper" in README.md).

#include "bench_common.h"

int main() {
  using namespace htdp;
  using namespace htdp::bench;
  const BenchEnv env = GetBenchEnv();
  PrintBanner("Figure 10",
              "Alg.5, regularized logistic regression, N(0,5) features",
              env);
  RunSparseLogisticFigure(kSolverAlg5SparseOpt,
                          ScalarDistribution::Normal(0.0, 5.0),
                          ScalarDistribution::Logistic(0.0, 0.5),
                          /*tau=*/25.0, env);
  return 0;
}
