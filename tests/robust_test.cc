#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <vector>

#include "gtest/gtest.h"
#include "linalg/matrix.h"
#include "robust/catoni.h"
#include "robust/robust_mean.h"
#include "robust/shrinkage.h"
#include "rng/distributions.h"
#include "rng/rng.h"
#include "util/simd.h"
#include "util/simd_dispatch.h"

namespace htdp {
namespace {

constexpr double kSqrt2 = std::numbers::sqrt2;

// An estimator built with the process-wide SIMD toggle at `simd`. The toggle
// is held only while it is constructed, which is when the estimator picks
// its batch-kernel path; the process setting is restored afterwards.
RobustMeanEstimator MeanEstimator(double scale, double beta, bool simd) {
  const ScopedSimdOverride mode(simd);
  return RobustMeanEstimator(scale, beta);
}

// Reference for E_z[phi(a + b z)], z ~ N(0,1), exact by region: the
// saturated tails integrate to +/- PhiBound() times normal tail masses, and
// the cubic middle region is integrated by fine composite Simpson. This
// avoids the accuracy loss a naive quadrature suffers from phi's curvature
// kinks when b is large.
double SmoothedPhiByQuadrature(double a, double b) {
  if (b == 0.0) return Phi(a);
  const double z_lo = (-kSqrt2 - a) / b;
  const double z_hi = (kSqrt2 - a) / b;
  double result = PhiBound() * (1.0 - NormalCdf(z_hi)) -
                  PhiBound() * NormalCdf(z_lo);
  const double lo = std::max(z_lo, -12.0);
  const double hi = std::min(z_hi, 12.0);
  if (hi <= lo) return result;
  const int steps = 200000;  // even
  const double h = (hi - lo) / steps;
  auto f = [&](double z) {
    const double v = a + b * z;
    return (v - v * v * v / 6.0) * std::exp(-0.5 * z * z) /
           std::sqrt(2.0 * std::numbers::pi);
  };
  double acc = f(lo) + f(hi);
  for (int i = 1; i < steps; ++i) {
    acc += f(lo + i * h) * ((i % 2 == 1) ? 4.0 : 2.0);
  }
  return result + acc * h / 3.0;
}

TEST(CatoniConstantsTest, HexfloatLiteralsMatchRuntimeExpressions) {
  // robust/catoni_constants.h keeps its constants as constexpr literals so
  // the per-ISA kernel TUs can share them without dynamic initializers;
  // this pins the hexfloat 1/sqrt(2*pi) to the bit pattern the runtime
  // expression produces (the literal's provenance).
  EXPECT_EQ(catoni_internal::kInvSqrt2Pi,
            1.0 / std::sqrt(2.0 * std::numbers::pi));
  EXPECT_EQ(catoni_internal::kSqrt2, std::numbers::sqrt2);
  EXPECT_EQ(catoni_internal::kPhiBound, PhiBound());
}

TEST(PhiTest, ClampedOutsideSqrtTwo) {
  EXPECT_NEAR(Phi(10.0), PhiBound(), 1e-15);
  EXPECT_NEAR(Phi(-10.0), -PhiBound(), 1e-15);
  EXPECT_NEAR(Phi(kSqrt2), kSqrt2 - kSqrt2 * kSqrt2 * kSqrt2 / 6.0, 1e-12);
}

TEST(PhiTest, OddFunction) {
  for (double x : {0.1, 0.5, 1.0, 1.4, 2.0, 100.0}) {
    EXPECT_NEAR(Phi(-x), -Phi(x), 1e-15) << "x=" << x;
  }
}

TEST(PhiTest, CubicInsideInterval) {
  for (double x = -1.4; x <= 1.4; x += 0.05) {
    EXPECT_NEAR(Phi(x), x - x * x * x / 6.0, 1e-15);
  }
}

TEST(PhiTest, BoundedByPhiBound) {
  for (double x = -100.0; x <= 100.0; x += 0.37) {
    EXPECT_LE(std::abs(Phi(x)), PhiBound() + 1e-15);
  }
}

TEST(PhiTest, ContinuousAtBoundary) {
  EXPECT_NEAR(Phi(kSqrt2 - 1e-9), Phi(kSqrt2 + 1e-9), 1e-8);
}

TEST(PhiTest, LogEnvelopeInequalities) {
  // -log(1 - x + x^2/2) <= phi(x) <= log(1 + x + x^2/2) (Eq. 16).
  for (double x = -5.0; x <= 5.0; x += 0.01) {
    const double upper = std::log(1.0 + x + 0.5 * x * x);
    const double lower = -std::log(1.0 - x + 0.5 * x * x);
    EXPECT_LE(Phi(x), upper + 1e-12) << "x=" << x;
    EXPECT_GE(Phi(x), lower - 1e-12) << "x=" << x;
  }
}

TEST(PhiTest, MonotoneNonDecreasing) {
  double previous = Phi(-10.0);
  for (double x = -10.0; x <= 10.0; x += 0.01) {
    const double current = Phi(x);
    EXPECT_GE(current, previous - 1e-15);
    previous = current;
  }
}

TEST(NormalCdfTest, KnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.0), 0.8413447460685429, 1e-10);
  EXPECT_NEAR(NormalCdf(-1.96), 0.024997895148220435, 1e-9);
  EXPECT_NEAR(NormalCdf(10.0), 1.0, 1e-15);
}

TEST(CatoniCorrectionTest, MatchesQuadratureModerateRegime) {
  // Closed form (Eq. 5): E phi(a+bz) = a(1 - b^2/2) - a^3/6 + C(a,b).
  for (double a : {-2.0, -1.0, -0.3, 0.0, 0.4, 1.0, 1.5, 3.0}) {
    for (double b : {0.1, 0.5, 1.0, 2.0}) {
      const double closed =
          a * (1.0 - 0.5 * b * b) - a * a * a / 6.0 + CatoniCorrection(a, b);
      const double reference = SmoothedPhiByQuadrature(a, b);
      EXPECT_NEAR(closed, reference, 1e-8) << "a=" << a << " b=" << b;
    }
  }
}

TEST(SmoothedPhiTest, MatchesQuadratureAcrossRegimes) {
  for (double a : {0.0, 0.7, -1.3, 5.0, -20.0, 60.0, -200.0}) {
    for (double b : {0.0, 0.3, 1.0, 4.0, 50.0, 300.0}) {
      const double reference = SmoothedPhiByQuadrature(a, b);
      EXPECT_NEAR(SmoothedPhi(a, std::abs(b)), reference, 1e-7)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(SmoothedPhiTest, DegeneratesToPhiAtZeroNoise) {
  for (double a : {-3.0, -1.0, 0.0, 0.5, 2.0, 30.0}) {
    EXPECT_NEAR(SmoothedPhi(a, 0.0), Phi(a), 1e-15);
  }
}

TEST(SmoothedPhiTest, BoundedForExtremeInputs) {
  // Heavy-tailed draws can be astronomically large (log-logistic c=0.1);
  // the smoothed value must stay within the phi bound without blowing up.
  for (double a : {1e6, -1e9, 1e15, -1e30}) {
    const double b = std::abs(a);  // beta = 1 regime: b = |a|/sqrt(beta)
    const double value = SmoothedPhi(a, b);
    EXPECT_TRUE(std::isfinite(value));
    EXPECT_LE(std::abs(value), PhiBound());
  }
}

TEST(SmoothedPhiTest, OddInA) {
  for (double a : {0.2, 1.1, 4.0, 77.0}) {
    for (double b : {0.5, 2.0, 40.0}) {
      EXPECT_NEAR(SmoothedPhi(-a, b), -SmoothedPhi(a, b), 1e-10)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(SmoothedPhiTest, ContinuousAcrossClosedFormBoundary) {
  // The implementation switches from the closed form to the split
  // evaluation when max(|a|^3/6, |a| b^2/2) crosses 1e6; both evaluations
  // must agree at the seam. For fixed a the seam sits at b = sqrt(2e6/|a|).
  // Straddle the seam by +/-1e-6 relative so the function's genuine
  // variation is negligible and only an evaluation-method mismatch could
  // exceed the tolerance.
  for (double a : {0.5, 2.0, 20.0}) {
    const double b_star = std::sqrt(2e6 / a);
    EXPECT_NEAR(SmoothedPhi(a, b_star * (1.0 - 1e-6)),
                SmoothedPhi(a, b_star * (1.0 + 1e-6)),
                1e-6)
        << "a=" << a;
  }
  // For fixed b the seam sits at |a| = cbrt(6e6).
  const double a_star = std::cbrt(6e6);
  for (double b : {0.5, 5.0}) {
    EXPECT_NEAR(SmoothedPhi(a_star * (1.0 - 1e-6), b),
                SmoothedPhi(a_star * (1.0 + 1e-6), b), 1e-6)
        << "b=" << b;
  }
}

TEST(RobustMeanTest, SampleContributionBounded) {
  const RobustMeanEstimator estimator(2.0, 1.0);
  for (double x : {0.0, 1.0, -5.0, 1e6, -1e12, 1e30}) {
    EXPECT_LE(std::abs(estimator.SampleContribution(x)),
              2.0 * PhiBound() + 1e-12);
  }
}

TEST(RobustMeanTest, BatchedAccumulateBitIdenticalToScalarAcrossBranches) {
  // One batch spanning every SmoothedPhi branch: the common closed form
  // (moderate |a|), exact zero, values straddling the 1e6 cancellation
  // limit (|a|^3/6 ~ 1e6 at |a| ~ 181.7), far beyond it (exact-split
  // fallback), and denormal-adjacent magnitudes. Scalar mode: the batch
  // kernel is the bit-identity reference there (SIMD-mode agreement is
  // pinned by the ULP-bound sweeps below instead).
  const double scale = 1.0;
  const Vector xs = {0.0,     0.3,     -0.7,    1.0,     -1.4142, 5.0,
                     -25.0,   181.0,   -181.7,  181.8,   -182.5,  250.0,
                     -1e3,    1e6,     -1e9,    1e-8,    -1e-300, 42.0};
  const auto estimator = MeanEstimator(scale, 1.0, /*simd=*/false);
  Vector batched(xs.size(), 0.0);
  estimator.AccumulateContributions(xs.data(), xs.size(), batched.data());
  for (std::size_t j = 0; j < xs.size(); ++j) {
    ASSERT_EQ(batched[j], estimator.SampleContribution(xs[j]))
        << "x=" << xs[j];
  }
}

TEST(RobustMeanTest, BatchedAccumulateBitIdenticalOnTinyBBranch) {
  // b = |a| / sqrt(beta): a huge beta pushes b below SmoothedPhi's 1e-12
  // threshold so the batch must take the degenerate Phi(a) path, still bit
  // for bit. (Pinned scalar here; the SIMD sweeps below re-check tiny-b
  // lanes bit for bit under every dispatch table.)
  const auto estimator = MeanEstimator(1.0, 1e30, /*simd=*/false);
  const Vector xs = {0.0, 1e-9, -1e-6, 0.5, -1.0, 2.0};
  Vector batched(xs.size(), 0.0);
  estimator.AccumulateContributions(xs.data(), xs.size(), batched.data());
  for (std::size_t j = 0; j < xs.size(); ++j) {
    ASSERT_EQ(batched[j], estimator.SampleContribution(xs[j]))
        << "x=" << xs[j];
  }
}

TEST(RobustMeanTest, BatchedAccumulateAddsOntoExistingValues) {
  const auto estimator = MeanEstimator(2.0, 1.0, /*simd=*/false);
  const Vector xs = {1.0, -2.0, 3.0};
  Vector acc = {10.0, 20.0, 30.0};
  estimator.AccumulateContributions(xs.data(), xs.size(), acc.data());
  for (std::size_t j = 0; j < xs.size(); ++j) {
    ASSERT_EQ(acc[j],
              10.0 * static_cast<double>(j + 1) +
                  estimator.SampleContribution(xs[j]));
  }
}

TEST(RobustMeanTest, BatchedAccumulateMatchesScalarOnHeavyTailedDraws) {
  Rng rng(91);
  const std::size_t n = 5000;
  Vector xs(n);
  for (double& x : xs) x = SamplePareto(rng, 1.1) - SampleLognormal(rng, 0.0, 2.0);
  for (const double beta : {0.25, 1.0, 4.0}) {
    const auto estimator = MeanEstimator(3.0, beta, /*simd=*/false);
    Vector batched(n, 0.0);
    estimator.AccumulateContributions(xs.data(), n, batched.data());
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(batched[j], estimator.SampleContribution(xs[j]))
          << "beta=" << beta << " x=" << xs[j];
    }
  }
}

// The dispatch tables this machine can run, by SetSimdIsa name ("baseline"
// is the compiled baseline: sse2 on x86-64, neon on aarch64).
std::vector<const char*> AvailableSimdIsas() {
  std::vector<const char*> isas;
  for (const char* isa : {"baseline", "avx2", "avx512f"}) {
    if (SimdIsaAvailable(isa)) isas.push_back(isa);
  }
  return isas;
}

bool IsTinyB(double b) { return b < 1e-12; }

bool IsClosedForm(double a, double b) {
  return !IsTinyB(b) && catoni_internal::ClosedFormApplies(std::abs(a), b);
}

// The SmoothedPhiBatch contract (robust/catoni.h) for one element: tiny-b
// lanes are bit-identical to scalar SmoothedPhi, closed-form and split
// lanes agree within SmoothedPhiBatchTolerance, and every value stays
// within the PhiBound() clamp that the sensitivity analysis relies on.
void ExpectBatchElementMatchesScalar(double got, double a, double b,
                                     const char* isa) {
  ASSERT_LE(std::abs(got), PhiBound())
      << isa << " a=" << a << " b=" << b;
  const double scalar = SmoothedPhi(a, b);
  if (IsTinyB(b)) {
    ASSERT_EQ(got, scalar) << isa << " tiny-b point a=" << a << " b=" << b;
  } else {
    ASSERT_NEAR(got, scalar, SmoothedPhiBatchTolerance(a, b))
        << isa << (IsClosedForm(a, b) ? " closed-form" : " split")
        << " point a=" << a << " b=" << b;
  }
}

TEST(RobustMeanTest, SmoothedPhiBatchPropertySweepAgainstScalar) {
  // Log-spaced (a, b) grid straddling BOTH branch thresholds of SmoothedPhi
  // -- b across kTinyB (1e-12) and the pair across the kCancellationLimit
  // (1e6) seam -- each point replicated to a full lane group so every lane
  // takes the vector branch of its class, under every dispatch table this
  // machine can run. Contract (robust/catoni.h): tiny-b points come back
  // bit-identical, closed-form and exact-split points within the documented
  // SmoothedPhiBatchTolerance, all within +/-PhiBound().
  const std::vector<const char*> isas = AvailableSimdIsas();
  if (isas.empty()) GTEST_SKIP() << "SIMD layer not compiled";
  const ScopedSimdOverride simd_on(true);
  std::vector<double> a_grid = {0.0};
  for (double mag = 1e-9; mag < 3e3; mag *= 4.0) {
    a_grid.push_back(mag);
    a_grid.push_back(-mag);
  }
  for (double mag : {1e4, 1e6, 1e9, 1e12, 1e150}) {
    a_grid.push_back(mag);
    a_grid.push_back(-mag);
  }
  // A dense linear grid over phi's cubic range [-sqrt2, sqrt2] and a little
  // past it, where the tiny-b lanes' bit-identity depends on the operation
  // order of x - x^3/6.
  for (int k = -150; k <= 150; ++k) a_grid.push_back(0.01 * k + 1e-3);
  std::vector<double> b_grid = {0.0};
  for (double b = 1e-14; b < 1e8; b *= 8.0) b_grid.push_back(b);

  constexpr std::size_t kGroup = 16;  // >= any compiled lane width
  Vector a_buf(kGroup);
  Vector b_buf(kGroup);
  Vector out(kGroup);
  for (const char* isa : isas) {
    const ScopedSimdIsaOverride pin(isa);
    ASSERT_TRUE(pin.ok()) << isa;
    std::size_t closed_form_points = 0;
    std::size_t split_points = 0;
    for (const double a : a_grid) {
      for (const double b : b_grid) {
        for (std::size_t j = 0; j < kGroup; ++j) {
          a_buf[j] = a;
          b_buf[j] = b;
        }
        SmoothedPhiBatch(a_buf.data(), b_buf.data(), out.data(), kGroup);
        for (std::size_t j = 0; j < kGroup; ++j) {
          ASSERT_NO_FATAL_FAILURE(
              ExpectBatchElementMatchesScalar(out[j], a, b, isa));
        }
        closed_form_points += IsClosedForm(a, b) ? 1 : 0;
        split_points += !IsTinyB(b) && !IsClosedForm(a, b) ? 1 : 0;
      }
    }
    // The sweep must genuinely exercise both vector branches.
    EXPECT_GT(closed_form_points, 100u) << isa;
    EXPECT_GT(split_points, 100u) << isa;
  }
}

TEST(RobustMeanTest, SmoothedPhiBatchMixedGroupsBlendPerLane) {
  // One cold lane (tiny-b or exact-split) at every position among warm
  // lanes: each lane must match ITS OWN scalar value, so a blend that leaks
  // one branch's result into a neighbouring lane fails here.
  const std::vector<const char*> isas = AvailableSimdIsas();
  if (isas.empty()) GTEST_SKIP() << "SIMD layer not compiled";
  const ScopedSimdOverride simd_on(true);
  const double cold_points[][2] = {
      {1.0, 0.0},    {-3.0, 1e-13}, {0.5, 5e-13},  {1e3, 1e3},
      {-200.0, 5.0}, {150.0, 116.0}, {-1e9, 1e9}, {40.0, 400.0},
      {1e150, 1e150}};
  constexpr std::size_t kGroup = 16;  // >= any compiled lane width
  Vector a_buf(kGroup);
  Vector b_buf(kGroup);
  Vector out(kGroup);
  for (const char* isa : isas) {
    const ScopedSimdIsaOverride pin(isa);
    ASSERT_TRUE(pin.ok()) << isa;
    for (const auto& cold : cold_points) {
      ASSERT_FALSE(IsClosedForm(cold[0], cold[1]));
      for (std::size_t lane = 0; lane < kGroup; ++lane) {
        for (std::size_t j = 0; j < kGroup; ++j) {
          a_buf[j] = -1.5 + 0.2 * static_cast<double>(j);
          b_buf[j] = 0.3 + 0.05 * static_cast<double>(j);
        }
        a_buf[lane] = cold[0];
        b_buf[lane] = cold[1];
        SmoothedPhiBatch(a_buf.data(), b_buf.data(), out.data(), kGroup);
        for (std::size_t j = 0; j < kGroup; ++j) {
          ASSERT_NO_FATAL_FAILURE(ExpectBatchElementMatchesScalar(
              out[j], a_buf[j], b_buf[j], isa));
        }
      }
    }
  }
}

TEST(RobustMeanTest, SmoothedPhiBatchSplitLanesMatchReferenceQuadrature) {
  // Exact-split points whose unsaturated interval carries real mass: the
  // scalar SmoothedPhi and the vector split lanes of every table must match
  // the fine reference quadrature far inside SmoothedPhiBatchTolerance
  // (which, past the cancellation limit, is >= 5.7e-8). This is the test
  // that holds both split evaluations to the true value.
  const ScopedSimdOverride simd_on(true);
  const double points[][2] = {{115.225, 147.133}, {149.4, 115.8},
                              {300.0, 100.0},     {-1e3, 1e3},
                              {50.0, 400.0},      {-2e4, 1e4}};
  constexpr std::size_t kGroup = 16;
  Vector a_buf(kGroup);
  Vector b_buf(kGroup);
  Vector out(kGroup);
  for (const auto& point : points) {
    const double a = point[0];
    const double b = point[1];
    ASSERT_FALSE(IsTinyB(b) || IsClosedForm(a, b));
    const double reference = SmoothedPhiByQuadrature(a, b);
    ASSERT_NEAR(SmoothedPhi(a, b), reference, 1e-12)
        << "scalar a=" << a << " b=" << b;
    for (const char* isa : AvailableSimdIsas()) {
      const ScopedSimdIsaOverride pin(isa);
      ASSERT_TRUE(pin.ok()) << isa;
      for (std::size_t j = 0; j < kGroup; ++j) {
        a_buf[j] = a;
        b_buf[j] = b;
      }
      SmoothedPhiBatch(a_buf.data(), b_buf.data(), out.data(), kGroup);
      for (std::size_t j = 0; j < kGroup; ++j) {
        ASSERT_NEAR(out[j], reference, 1e-12)
            << isa << " a=" << a << " b=" << b;
      }
    }
  }
}

// Every path a SmoothedPhiBatch call can take: the scalar loop (SIMD off)
// and each dispatch table this machine can run.
template <typename Body>
void ForEachBatchPath(Body&& body) {
  {
    const ScopedSimdOverride simd_off(false);
    body("scalar");
  }
  const ScopedSimdOverride simd_on(true);
  for (const char* isa : AvailableSimdIsas()) {
    const ScopedSimdIsaOverride pin(isa);
    ASSERT_TRUE(pin.ok()) << isa;
    body(isa);
  }
}

TEST(RobustMeanTest, SmoothedPhiBatchNonFiniteLanesGiveZero) {
  // NaN and +/-inf in a or b, and b < 0, have no smoothed value: scalar
  // SmoothedPhi and every batch path give 0 for them, so no input can push
  // a term past PhiBound(). Each bad lane sits at every position of a full
  // group and of a block tail among warm lanes, which keep their own values.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double bad_points[][2] = {{nan, 1.0},  {inf, 1.0}, {-inf, 1.0},
                                  {1.0, nan},  {1.0, inf}, {1.0, -inf},
                                  {nan, nan},  {inf, inf}, {0.0, inf},
                                  {-inf, nan}, {2.0, -1.0}, {1e300, -1e-300}};
  for (const auto& bad : bad_points) {
    ASSERT_EQ(SmoothedPhi(bad[0], bad[1]), 0.0)
        << "a=" << bad[0] << " b=" << bad[1];
  }
  constexpr std::size_t kLength = 19;  // one or two groups plus a tail
  Vector a_buf(kLength);
  Vector b_buf(kLength);
  Vector out(kLength);
  ForEachBatchPath([&](const char* path) {
    for (const auto& bad : bad_points) {
      for (std::size_t lane = 0; lane < kLength; ++lane) {
        for (std::size_t j = 0; j < kLength; ++j) {
          a_buf[j] = -1.5 + 0.2 * static_cast<double>(j);
          b_buf[j] = 0.3 + 0.05 * static_cast<double>(j);
        }
        a_buf[lane] = bad[0];
        b_buf[lane] = bad[1];
        SmoothedPhiBatch(a_buf.data(), b_buf.data(), out.data(), kLength);
        ASSERT_EQ(out[lane], 0.0) << path << " lane " << lane
                                  << " a=" << bad[0] << " b=" << bad[1];
        for (std::size_t j = 0; j < kLength; ++j) {
          if (j == lane) continue;
          ASSERT_NEAR(out[j], SmoothedPhi(a_buf[j], b_buf[j]),
                      SmoothedPhiBatchTolerance(a_buf[j], b_buf[j]))
              << path << " lane " << j << " next to a bad lane " << lane;
        }
      }
    }
  });
}

TEST(RobustMeanTest, SmoothedPhiBatchRandomBitPatternsStayWithinPhiBound) {
  // Inputs drawn as raw 64-bit patterns reach every class of double --
  // NaNs, infinities, subnormals, 1e308 and both signs of b -- at random
  // lane and tail positions. Whatever the path, every output is within
  // +/-PhiBound(), the bound the robust gradient's sensitivity rests on.
  Rng rng(2027);
  const std::size_t n = 4099;
  Vector a(n);
  Vector b(n);
  Vector out(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t a_bits = rng.Next();
    const std::uint64_t b_bits = rng.Next();
    std::memcpy(&a[j], &a_bits, sizeof(double));
    std::memcpy(&b[j], &b_bits, sizeof(double));
  }
  ForEachBatchPath([&](const char* path) {
    SmoothedPhiBatch(a.data(), b.data(), out.data(), n);
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_LE(std::abs(out[j]), PhiBound())
          << path << " a=" << a[j] << " b=" << b[j];
      ASSERT_LE(std::abs(SmoothedPhi(a[j], b[j])), PhiBound())
          << "scalar a=" << a[j] << " b=" << b[j];
    }
  });
}

TEST(RobustMeanTest, SimdAccumulateAgreesWithScalarWithinTolerance) {
  Rng rng(137);
  const std::size_t n = 4000;
  Vector xs(n);
  for (double& x : xs)
    x = SamplePareto(rng, 1.2) - SampleLognormal(rng, 0.0, 1.5);
  for (const double beta : {0.5, 2.0}) {
    const double scale = 3.0;
    const auto simd_est = MeanEstimator(scale, beta, /*simd=*/true);
    const auto scalar_est = MeanEstimator(scale, beta, /*simd=*/false);
    if (!simd_est.simd()) GTEST_SKIP() << "SIMD layer not compiled";
    Vector simd_acc(n, 0.0);
    Vector scalar_acc(n, 0.0);
    simd_est.AccumulateContributions(xs.data(), n, simd_acc.data());
    scalar_est.AccumulateContributions(xs.data(), n, scalar_acc.data());
    const double sqrt_beta = std::sqrt(beta);
    for (std::size_t j = 0; j < n; ++j) {
      const double a = xs[j] / scale;
      const double b = std::abs(a) / sqrt_beta;
      ASSERT_NEAR(simd_acc[j], scalar_acc[j],
                  scale * SmoothedPhiBatchTolerance(a, b))
          << "beta=" << beta << " x=" << xs[j];
    }
    // The mean estimate stays within the averaged tolerance as well.
    EXPECT_NEAR(simd_est.Estimate(xs), scalar_est.Estimate(xs), 1e-10);
  }
}

TEST(RobustMeanTest, SensitivityFormula) {
  const RobustMeanEstimator estimator(3.0, 1.0);
  // 4 sqrt(2) s / (3 n) = 2 s phi_bound / n.
  EXPECT_NEAR(estimator.Sensitivity(100), 4.0 * kSqrt2 * 3.0 / (3.0 * 100.0),
              1e-12);
}

TEST(RobustMeanTest, ReplacingOneSampleRespectsSensitivity) {
  const RobustMeanEstimator estimator(1.5, 1.0);
  Rng rng(3);
  const std::size_t n = 200;
  Vector values(n);
  for (double& v : values) v = SamplePareto(rng, 1.5);
  const double base = estimator.Estimate(values);
  for (double replacement : {0.0, 1e9, -1e9, 3.0}) {
    Vector neighbor = values;
    neighbor[7] = replacement;
    EXPECT_LE(std::abs(estimator.Estimate(neighbor) - base),
              estimator.Sensitivity(n) + 1e-12);
  }
}

TEST(RobustMeanTest, UnbiasedOnCleanGaussianData) {
  Rng rng(5);
  const std::size_t n = 100000;
  Vector values(n);
  for (double& v : values) v = SampleNormal(rng, 1.0, 1.0);
  // Large scale: truncation bias vanishes, estimate approaches the mean.
  const RobustMeanEstimator estimator(50.0, 1.0);
  EXPECT_NEAR(estimator.Estimate(values), 1.0, 0.03);
}

TEST(RobustMeanTest, BeatsEmpiricalMeanUnderHeavyTails) {
  // Pareto(1.1): mean exists (= 11) but variance is infinite. Across many
  // repetitions the robust estimator's squared error should be far below
  // the empirical mean's.
  Rng rng(7);
  const double true_mean = 1.1 / 0.1;  // alpha/(alpha-1)
  const std::size_t n = 2000;
  const int trials = 60;
  double robust_se = 0.0;
  double naive_se = 0.0;
  // Scale from the Lemma 4 trade-off with a rough second-moment proxy.
  const RobustMeanEstimator estimator(100.0, 1.0);
  for (int trial = 0; trial < trials; ++trial) {
    Vector values(n);
    double naive = 0.0;
    for (double& v : values) {
      v = SamplePareto(rng, 1.1);
      naive += v;
    }
    naive /= static_cast<double>(n);
    const double robust = estimator.Estimate(values);
    robust_se += (robust - true_mean) * (robust - true_mean);
    naive_se += (naive - true_mean) * (naive - true_mean);
  }
  EXPECT_LT(robust_se, naive_se);
}

TEST(RobustMeanTest, DeviationBoundHoldsEmpirically) {
  // Lemma 4 with zeta = 0.05: the deviation should exceed the bound in well
  // under 5% of trials (the bound is loose, so expect ~0 violations).
  Rng rng(11);
  const std::size_t n = 5000;
  const double tau = 2.0;  // E x^2 for standard normal + safety
  const RobustMeanEstimator estimator(std::sqrt(n * tau / 10.0), 1.0);
  const double bound = estimator.DeviationBound(tau, n, 0.05);
  int violations = 0;
  const int trials = 100;
  for (int trial = 0; trial < trials; ++trial) {
    Vector values(n);
    for (double& v : values) v = SampleNormal(rng, 0.0, 1.0);
    if (std::abs(estimator.Estimate(values)) > bound) ++violations;
  }
  EXPECT_LE(violations, 5);
}

TEST(ShrinkageTest, ScalarShrink) {
  EXPECT_NEAR(Shrink(5.0, 2.0), 2.0, 1e-15);
  EXPECT_NEAR(Shrink(-5.0, 2.0), -2.0, 1e-15);
  EXPECT_NEAR(Shrink(1.5, 2.0), 1.5, 1e-15);
  EXPECT_NEAR(Shrink(-1.5, 2.0), -1.5, 1e-15);
  EXPECT_NEAR(Shrink(0.0, 2.0), 0.0, 1e-15);
}

TEST(ShrinkageTest, VectorAndMatrixShrink) {
  Vector v = {3.0, -0.5, -7.0};
  ShrinkInPlace(1.0, v);
  EXPECT_NEAR(v[0], 1.0, 1e-15);
  EXPECT_NEAR(v[1], -0.5, 1e-15);
  EXPECT_NEAR(v[2], -1.0, 1e-15);

  Matrix m(2, 2);
  m(0, 0) = 10.0;
  m(0, 1) = -10.0;
  m(1, 0) = 0.25;
  m(1, 1) = -0.25;
  ShrinkInPlace(0.5, m);
  EXPECT_NEAR(m(0, 0), 0.5, 1e-15);
  EXPECT_NEAR(m(0, 1), -0.5, 1e-15);
  EXPECT_NEAR(m(1, 0), 0.25, 1e-15);
  EXPECT_NEAR(m(1, 1), -0.25, 1e-15);
}

TEST(ShrinkageTest, IdempotentAtThreshold) {
  Vector v = {3.0, -0.5, -7.0, 0.9};
  ShrinkInPlace(1.0, v);
  Vector again = v;
  ShrinkInPlace(1.0, again);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v[i], again[i]);
  }
}

}  // namespace
}  // namespace htdp
