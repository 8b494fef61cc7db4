#include <cstddef>

#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "linalg/sparse_ops.h"
#include "losses/logistic_loss.h"
#include "losses/squared_loss.h"
#include "optim/frank_wolfe.h"
#include "optim/iht.h"
#include "optim/pgd.h"
#include "optim/polytope.h"
#include "rng/rng.h"
#include "stats/metrics.h"

namespace htdp {
namespace {

Dataset MakeGaussianLinearData(std::size_t n, std::size_t d,
                               const Vector& w_star, Rng& rng) {
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Normal(0.0, 1.0);
  config.noise_dist = ScalarDistribution::Normal(0.0, 0.05);
  return GenerateLinear(config, w_star, rng);
}

TEST(L1BallTest, VertexEnumerationAndScores) {
  const L1Ball ball(3, 2.0);
  EXPECT_EQ(ball.num_vertices(), 6u);
  EXPECT_EQ(ball.dim(), 3u);
  EXPECT_NEAR(ball.L1Diameter(), 4.0, 1e-15);
  EXPECT_NEAR(ball.MaxVertexL1Norm(), 2.0, 1e-15);

  Vector vertex;
  ball.Vertex(2, vertex);  // +2 e_1
  EXPECT_NEAR(vertex[1], 2.0, 1e-15);
  ball.Vertex(3, vertex);  // -2 e_1
  EXPECT_NEAR(vertex[1], -2.0, 1e-15);

  const Vector g = {1.0, -2.0, 0.5};
  Vector scores;
  ball.VertexInnerProducts(g, scores);
  ASSERT_EQ(scores.size(), 6u);
  // Scores must equal <v_i, g> for the materialized vertices.
  for (std::size_t i = 0; i < 6; ++i) {
    ball.Vertex(i, vertex);
    EXPECT_NEAR(scores[i], Dot(vertex, g), 1e-15) << "vertex " << i;
  }
}

TEST(L1BallTest, ApplyConvexStepMatchesMaterializedUpdate) {
  const L1Ball ball(4, 1.0);
  Vector w = {0.1, -0.2, 0.3, 0.0};
  Vector w_ref = w;
  Vector vertex;
  ball.Vertex(5, vertex);
  ConvexCombinationInPlace(0.3, vertex, w_ref);
  ball.ApplyConvexStep(5, 0.3, w);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(w[j], w_ref[j], 1e-15);
  }
}

TEST(SimplexTest, VerticesAndSteps) {
  const ProbabilitySimplex simplex(4);
  EXPECT_EQ(simplex.num_vertices(), 4u);
  EXPECT_NEAR(simplex.MaxVertexL1Norm(), 1.0, 1e-15);
  Vector w(4, 0.25);
  simplex.ApplyConvexStep(2, 0.5, w);
  EXPECT_NEAR(w[2], 0.625, 1e-15);
  EXPECT_NEAR(w[0], 0.125, 1e-15);
  // Result stays on the simplex.
  EXPECT_NEAR(NormL1(w), 1.0, 1e-12);
}

TEST(FrankWolfeTest, ConvergesOnLassoInstance) {
  Rng rng(31);
  const std::size_t d = 10;
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = MakeGaussianLinearData(3000, d, w_star, rng);
  const L1Ball ball(d, 1.0);
  const SquaredLoss loss;

  FrankWolfeOptions options;
  options.iterations = 150;
  const FrankWolfeResult result =
      MinimizeFrankWolfe(loss, data, ball, Vector(d, 0.0), options);

  const double excess = ExcessEmpiricalRisk(loss, data, result.w, w_star);
  EXPECT_LT(excess, 0.02);
  EXPECT_LE(NormL1(result.w), 1.0 + 1e-9);
  // Risk trace is (weakly) decreasing towards the end.
  const auto& trace = result.risk_trace;
  ASSERT_GT(trace.size(), 10u);
  EXPECT_LT(trace.back(), trace.front());
}

TEST(FrankWolfeTest, IterateStaysInPolytope) {
  Rng rng(37);
  const std::size_t d = 6;
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = MakeGaussianLinearData(500, d, w_star, rng);
  const L1Ball ball(d, 1.0);
  const SquaredLoss loss;
  FrankWolfeOptions options;
  options.iterations = 40;
  const auto result =
      MinimizeFrankWolfe(loss, data, ball, Vector(d, 0.0), options);
  EXPECT_LE(NormL1(result.w), 1.0 + 1e-9);
}

TEST(IhtTest, RecoversSparseSignal) {
  Rng rng(41);
  const std::size_t d = 50;
  const std::size_t s = 5;
  const Vector w_star = MakeSparseTarget(d, s, rng);
  const Dataset data = MakeGaussianLinearData(4000, d, w_star, rng);
  const SquaredLoss loss;

  IhtOptions options;
  options.iterations = 100;
  options.step = 0.2;  // loss has curvature ~2 (gradient 2x(x'w - y))
  options.sparsity = s;
  options.l2_ball_radius = 1.0;
  const Vector w = MinimizeIht(loss, data, Vector(d, 0.0), options);

  EXPECT_LE(NormL0(w), s);
  EXPECT_LT(EstimationError(w, w_star), 0.1);
  const SupportRecovery recovery = EvaluateSupportRecovery(w, w_star);
  EXPECT_GT(recovery.f1, 0.8);
}

TEST(PgdTest, SolvesRidgelessRegressionOnL2Ball) {
  Rng rng(43);
  const std::size_t d = 8;
  Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = MakeGaussianLinearData(2000, d, w_star, rng);
  const SquaredLoss loss;

  PgdOptions options;
  options.iterations = 200;
  options.step = 0.1;
  options.projection = PgdOptions::Projection::kL2Ball;
  options.radius = 2.0;
  const Vector w = MinimizePgd(loss, data, Vector(d, 0.0), options);
  EXPECT_LT(EstimationError(w, w_star), 0.05);
}

TEST(PgdTest, ProjectionHelperRespectsChoice) {
  PgdOptions options;
  options.projection = PgdOptions::Projection::kL1Ball;
  options.radius = 1.0;
  Vector w = {2.0, 2.0};
  ApplyProjection(options, w);
  EXPECT_LE(NormL1(w), 1.0 + 1e-9);

  options.projection = PgdOptions::Projection::kNone;
  Vector untouched = {5.0, 5.0};
  ApplyProjection(options, untouched);
  EXPECT_EQ(untouched[0], 5.0);
}

}  // namespace
}  // namespace htdp
