// Accuracy and contract tests for the SIMD kernel layer (util/simd.h,
// util/simd_math.h): the vectorized transcendentals must stay within their
// documented ULP bounds of libm, the lane-widened reductions within
// reassociation rounding of the scalar reference, and the runtime toggle
// must actually switch paths.

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "linalg/vector_ops.h"
#include "robust/catoni.h"
#include "rng/rng.h"
#include "util/simd.h"
#include "util/simd_dispatch.h"
#include "util/simd_math.h"

namespace htdp {
namespace {

TEST(SimdInfoTest, ReportsCompiledLayer) {
  const SimdCaps caps = SimdInfo();
  ASSERT_NE(caps.isa, nullptr);
  EXPECT_GE(caps.lanes, 1);
  if (caps.compiled) {
    EXPECT_GE(caps.lanes, 4);
    EXPECT_STRNE(caps.isa, "scalar");
  } else {
    EXPECT_EQ(caps.lanes, 1);
    EXPECT_STREQ(caps.isa, "scalar");
  }
}

TEST(SimdToggleTest, ScopedOverrideFlipsEnabledState) {
  const bool initial = SimdEnabled();
  {
    ScopedSimdOverride off(false);
    EXPECT_FALSE(SimdEnabled());
    {
      ScopedSimdOverride on(true);
      EXPECT_EQ(SimdEnabled(), SimdInfo().compiled);
    }
    EXPECT_FALSE(SimdEnabled());
  }
  EXPECT_EQ(SimdEnabled(), initial);
}

#if HTDP_SIMD_COMPILED

// Evaluates a one-argument vector function at a scalar point (all lanes set
// to x; lane 0 extracted). The lanes are independent, so this exercises the
// same code path as full-width use.
template <typename F>
double Lane0(F f, double x) {
  double out[simd::kLanes];
  simd::StoreU(out, f(simd::Set1(x)));
  return out[0];
}

double UlpOf(double reference) {
  const double magnitude = std::abs(reference);
  if (magnitude == 0.0) return std::numeric_limits<double>::denorm_min();
  return std::nexttoward(magnitude, std::numeric_limits<double>::infinity()) -
         magnitude;
}

TEST(SimdMathTest, ExpPdWithinDocumentedUlpBound) {
  // Documented bound: 4 ULP on [-708, 709] (observed ~1.1).
  for (int i = 0; i <= 20000; ++i) {
    const double x = -708.0 + 1417.0 * static_cast<double>(i) / 20000.0;
    const double got = Lane0(simd::ExpPd, x);
    const double ref = std::exp(x);
    ASSERT_LE(std::abs(got - ref), 4.0 * UlpOf(ref)) << "x=" << x;
  }
  EXPECT_EQ(Lane0(simd::ExpPd, 0.0), 1.0);
  // Flush-to-zero below -708, saturation above 709.
  EXPECT_EQ(Lane0(simd::ExpPd, -709.0), 0.0);
  EXPECT_EQ(Lane0(simd::ExpPd, -1e300), 0.0);
  EXPECT_TRUE(std::isinf(Lane0(simd::ExpPd, 710.0)));
}

TEST(SimdMathTest, LogPdWithinDocumentedUlpBound) {
  // Documented bound: 4 ULP over positive normals (observed ~2.0).
  for (int i = 1; i <= 20000; ++i) {
    const double x =
        std::exp(-300.0 + 600.0 * static_cast<double>(i) / 20000.0);
    const double got = Lane0(simd::LogPd, x);
    const double ref = std::log(x);
    ASSERT_LE(std::abs(got - ref), 4.0 * UlpOf(ref)) << "x=" << x;
  }
  // Dense near 1, where cancellation is hardest.
  for (int i = 0; i <= 20000; ++i) {
    const double x = 0.5 + 1.5 * static_cast<double>(i) / 20000.0;
    const double got = Lane0(simd::LogPd, x);
    const double ref = std::log(x);
    ASSERT_LE(std::abs(got - ref), 4.0 * UlpOf(ref)) << "x=" << x;
  }
  EXPECT_EQ(Lane0(simd::LogPd, 1.0), 0.0);
}

TEST(SimdMathTest, ErfcxPdWithinDocumentedRelativeBound) {
  // Documented bound: 4e-15 relative on y >= 0 (observed ~8e-16 against
  // long-double references). The double-precision reference available here,
  // erfc(y) * exp(y*y), itself carries up to ~y^2 * eps relative error from
  // rounding the argument y*y, so the pin widens by that reference
  // uncertainty; the composite test below checks the actually-consumed
  // path (shared exp factor) at the tight absolute bound.
  for (int i = 0; i <= 20000; ++i) {
    const double y = 26.0 * static_cast<double>(i) / 20000.0;
    const double got = Lane0(simd::ErfcxPd, y);
    const double ref = std::erfc(y) * std::exp(y * y);
    const double reference_uncertainty = y * y * 2.3e-16;
    ASSERT_NEAR(got, ref, (4e-15 + reference_uncertainty) * std::abs(ref))
        << "y=" << y;
  }
  // Large y: erfcx(y) ~ 1/(y sqrt(pi)) with relative error O(1/y^2).
  for (const double y : {1e3, 1e6, 1e9, 1e13}) {
    const double got = Lane0(simd::ErfcxPd, y);
    const double asymptotic = 1.0 / (y * 1.7724538509055160273);
    ASSERT_NEAR(got, asymptotic, 1e-6 * asymptotic) << "y=" << y;
  }
}

TEST(SimdMathTest, HalfErfcCompositeWithinDocumentedAbsoluteBound) {
  // Documented bound: 1e-15 absolute against 0.5*erfc(v/sqrt(2)) (observed
  // ~2e-16), both signs, through the shared-exp composite used by the
  // Catoni closed form.
  for (int i = 0; i <= 40000; ++i) {
    const double v = -40.0 + 80.0 * static_cast<double>(i) / 40000.0;
    const double e = Lane0(simd::ExpPd, -0.5 * v * v);
    double out[simd::kLanes];
    simd::StoreU(out,
                 simd::HalfErfcFromExp(simd::Set1(v), simd::Set1(e)));
    const double ref = 0.5 * std::erfc(v / std::numbers::sqrt2);
    ASSERT_NEAR(out[0], ref, 1e-15) << "v=" << v;
  }
}

TEST(SimdKernelTest, DotMatchesScalarWithinReassociationRounding) {
  Rng rng(123);
  for (const std::size_t n : {1u, 3u, 7u, 64u, 1000u, 4097u}) {
    Vector a(n);
    Vector b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.Uniform(-10.0, 10.0);
      b[i] = rng.Uniform(-10.0, 10.0);
    }
    double simd_value = 0.0;
    double scalar_value = 0.0;
    {
      ScopedSimdOverride on(true);
      simd_value = Dot(a, b);
    }
    {
      ScopedSimdOverride off(false);
      scalar_value = Dot(a, b);
    }
    // Reassociation changes rounding by at most ~n * eps * sum |a_i b_i|.
    double magnitude = 0.0;
    for (std::size_t i = 0; i < n; ++i) magnitude += std::abs(a[i] * b[i]);
    EXPECT_NEAR(simd_value, scalar_value,
                static_cast<double>(n) * 2.3e-16 * magnitude + 1e-300)
        << "n=" << n;
  }
}

TEST(SimdKernelTest, DistanceL2MatchesScalarWithinReassociationRounding) {
  Rng rng(321);
  for (const std::size_t n : {2u, 16u, 255u, 2048u}) {
    Vector a(n);
    Vector b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.Uniform(-5.0, 5.0);
      b[i] = rng.Uniform(-5.0, 5.0);
    }
    double simd_value = 0.0;
    double scalar_value = 0.0;
    {
      ScopedSimdOverride on(true);
      simd_value = DistanceL2(a, b);
    }
    {
      ScopedSimdOverride off(false);
      scalar_value = DistanceL2(a, b);
    }
    EXPECT_NEAR(simd_value, scalar_value,
                static_cast<double>(n) * 2.3e-16 *
                        (scalar_value + 1.0) + 1e-300)
        << "n=" << n;
  }
}

TEST(SimdKernelTest, ElementwiseKernelsAreBitIdenticalAcrossModes) {
  Rng rng(77);
  const std::size_t n = 513;  // odd: exercises the tail
  Vector x(n);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-3.0, 3.0);
    y[i] = rng.Uniform(-3.0, 3.0);
  }
  Vector y_simd = y;
  Vector y_scalar = y;
  Vector out_simd(n);
  Vector out_scalar(n);
  {
    ScopedSimdOverride on(true);
    AxpyKernel(0.7, x.data(), y_simd.data(), n);
    ScaledSumKernel(1.3, x.data(), -0.2, y.data(), out_simd.data(), n);
  }
  {
    ScopedSimdOverride off(false);
    AxpyKernel(0.7, x.data(), y_scalar.data(), n);
    ScaledSumKernel(1.3, x.data(), -0.2, y.data(), out_scalar.data(), n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(y_simd[i], y_scalar[i]) << i;
    ASSERT_EQ(out_simd[i], out_scalar[i]) << i;
  }
}

// ---------------------------------------------------------------------------
// Runtime ISA dispatch (util/simd_dispatch.h): one binary, CPUID-probed
// kernel tables. The AVX2 table is contractually bit-identical to the
// baseline (same 4 lanes, -ffp-contract=off); AVX-512 stays within the
// documented per-kernel tolerances; elementwise kernels are per-element
// identical at any lane width.
// ---------------------------------------------------------------------------

TEST(SimdDispatchTest, InfoReportsDispatchedAndCompiledIsa) {
  const SimdCaps caps = SimdInfo();
  ASSERT_NE(caps.compiled_isa, nullptr);
  EXPECT_STREQ(caps.compiled_isa, simd::kIsaName);
  EXPECT_EQ(caps.compiled_lanes, simd::kLanes);
  const SimdKernelTable* table = ActiveSimdKernels();
  ASSERT_NE(table, nullptr);  // compiled => a table exists
  EXPECT_STREQ(caps.isa, table->isa);
  EXPECT_EQ(caps.lanes, table->lanes);
  // The dispatcher never picks something narrower than the compiled layer.
  EXPECT_GE(caps.lanes, caps.compiled_lanes);
}

TEST(SimdDispatchTest, BaselineAlwaysAvailableAndPinnable) {
  EXPECT_TRUE(SimdIsaAvailable("baseline"));
  EXPECT_FALSE(SimdIsaAvailable("not-an-isa"));
  const SimdKernelTable* before = ActiveSimdKernels();
  {
    ScopedSimdIsaOverride pin("baseline");
    ASSERT_TRUE(pin.ok());
    const SimdKernelTable* table = ActiveSimdKernels();
    ASSERT_NE(table, nullptr);
    EXPECT_STREQ(table->isa, simd::kIsaName);
  }
  EXPECT_EQ(ActiveSimdKernels(), before);  // override restored
  ScopedSimdIsaOverride bad("not-an-isa");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(ActiveSimdKernels(), before);  // failed pin changes nothing
}

#if defined(__x86_64__)

TEST(SimdDispatchTest, ProbePicksWidestIsaTheCpuSupports) {
  // CI's dispatch-verification step keys on this test: on an AVX2-capable
  // runner the one portable binary must NOT be running baseline kernels.
  // (HTDP_SIMD_ISA pins are honored over the probe, so skip under a pin.)
  if (std::getenv("HTDP_SIMD_ISA") != nullptr) {
    GTEST_SKIP() << "HTDP_SIMD_ISA pin overrides the probe";
  }
  if (!SimdIsaAvailable("avx2") && !SimdIsaAvailable("avx512f")) {
    GTEST_SKIP() << "runner CPU supports no ISA beyond the compiled "
                 << simd::kIsaName << "; dispatch has nothing to widen";
  }
  const SimdCaps caps = SimdInfo();
  EXPECT_STRNE(caps.isa, "sse2")
      << "CPU supports a wider ISA but the dispatcher stayed on baseline";
  EXPECT_GE(caps.lanes, 4);
}

/// Runs every kernel in `table` against the baseline table on shared heavy-
/// tailed inputs; `check(kernel_name, index, got, want)` judges each value.
template <typename Check>
void CompareTables(const SimdKernelTable& table, Check&& check) {
  Rng rng(4242);
  const std::size_t n = 515;  // odd tail + multiple 256-blocks
  std::vector<double> a(n);
  std::vector<double> b(n);
  std::vector<double> xs(n);
  std::vector<double> u(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.Uniform(-30.0, 30.0);
    b[i] = std::abs(a[i]) / 2.0 + 1e-3;
    xs[i] = rng.Uniform(-40.0, 40.0);
    u[i] = rng.UniformOpen();
  }
  // Cold Catoni inputs at random positions, so most lane groups mix
  // branches: exact-split lanes with |a| log-uniform in [130, 1e9] (b = |a|
  // and, for the transform, scale 2 / sqrt_beta 1.5), and tiny-b lanes.
  std::vector<double> cold_a(n);
  std::vector<double> cold_b(n);
  std::vector<double> cold_xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double sign = rng.UniformUnit() < 0.5 ? -1.0 : 1.0;
    const double split_mag = 130.0 * std::pow(1e9 / 130.0, rng.UniformUnit());
    const double pick = rng.UniformUnit();
    if (pick < 0.3) {
      cold_a[i] = sign * split_mag;
      cold_b[i] = split_mag;
      cold_xs[i] = sign * 3.0 * split_mag;
    } else if (pick < 0.45) {
      cold_a[i] = rng.Uniform(-3.0, 3.0);
      cold_b[i] = rng.UniformUnit() < 0.5 ? 0.0 : 1e-13;
      cold_xs[i] = sign * (rng.UniformUnit() < 0.5 ? 0.0 : 1e-13);
    } else {
      cold_a[i] = rng.Uniform(-30.0, 30.0);
      cold_b[i] = std::abs(cold_a[i]) / 2.0 + 1e-3;
      cold_xs[i] = rng.Uniform(-40.0, 40.0);
    }
  }
  const SimdKernelTable* base = simd_dispatch_internal::BaseTable();
  ASSERT_NE(base, nullptr);

  std::vector<double> want(n);
  std::vector<double> got(n);
  base->smoothed_phi_batch(a.data(), b.data(), want.data(), n);
  table.smoothed_phi_batch(a.data(), b.data(), got.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    check("smoothed_phi_batch", i, got[i], want[i]);
  }
  base->smoothed_phi_batch(cold_a.data(), cold_b.data(), want.data(), n);
  table.smoothed_phi_batch(cold_a.data(), cold_b.data(), got.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    check("smoothed_phi_batch", i, got[i], want[i]);
  }
  base->smoothed_phi_transform(xs.data(), 256, 2.0, 1.5, want.data());
  table.smoothed_phi_transform(xs.data(), 256, 2.0, 1.5, got.data());
  for (std::size_t i = 0; i < 256; ++i) {
    check("smoothed_phi_transform", i, got[i], want[i]);
  }
  base->smoothed_phi_transform(cold_xs.data(), 256, 2.0, 1.5, want.data());
  table.smoothed_phi_transform(cold_xs.data(), 256, 2.0, 1.5, got.data());
  for (std::size_t i = 0; i < 256; ++i) {
    check("smoothed_phi_transform", i, got[i], want[i]);
  }
  base->gumbel_from_uniform(u.data(), want.data(), n);
  table.gumbel_from_uniform(u.data(), got.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    check("gumbel_from_uniform", i, got[i], want[i]);
  }
  check("dot", 0, table.dot(a.data(), b.data(), n),
        base->dot(a.data(), b.data(), n));
  check("distance_l2", 0, table.distance_l2(a.data(), b.data(), n),
        base->distance_l2(a.data(), b.data(), n));
}

TEST(SimdDispatchTest, Avx2TableBitIdenticalToBaseline) {
  if (!SimdIsaAvailable("avx2")) {
    GTEST_SKIP() << "runner CPU lacks AVX2; bit-identity pair untestable";
  }
  const SimdKernelTable* avx2 = simd_dispatch_internal::Avx2Table();
  ASSERT_NE(avx2, nullptr);
  EXPECT_EQ(avx2->lanes, 4);
  // Same lane count, no FMA (-ffp-contract=off): every kernel must produce
  // the same bits as the baseline table -- the documented contract that
  // lets AVX2 machines share golden checksums with SSE2 ones.
  CompareTables(*avx2, [](const char* kernel, std::size_t i, double got,
                          double want) {
    ASSERT_EQ(got, want) << kernel << "[" << i << "]";
  });
}

TEST(SimdDispatchTest, Avx512TableWithinDocumentedTolerances) {
  if (!SimdIsaAvailable("avx512f")) {
    GTEST_SKIP() << "runner CPU lacks AVX-512F/DQ";
  }
  const SimdKernelTable* avx512 = simd_dispatch_internal::Avx512Table();
  ASSERT_NE(avx512, nullptr);
  EXPECT_EQ(avx512->lanes, 8);
  // 8 lanes regroup the reductions and the scalar-spilled tail;
  // elementwise kernels stay per-element identical, reductions within
  // reassociation rounding, SmoothedPhi within its documented bound
  // (SmoothedPhiBatchTolerance is vs scalar; vs another vector lane width
  // the gap can only be smaller, but reuse the same pinned bound).
  CompareTables(*avx512, [](const char* kernel, std::size_t i, double got,
                            double want) {
    if (std::string(kernel) == "smoothed_phi_batch" ||
        std::string(kernel) == "smoothed_phi_transform") {
      ASSERT_NEAR(got, want, 2.0 * PhiBound() * 1e-12 + 1e-13)
          << kernel << "[" << i << "]";
    } else if (std::string(kernel) == "gumbel_from_uniform") {
      ASSERT_EQ(got, want) << kernel << "[" << i << "]";  // elementwise
    } else {
      ASSERT_NEAR(got, want, 1e-12 * (std::abs(want) + 1.0))
          << kernel << "[" << i << "]";
    }
  });
}

#endif  // defined(__x86_64__)

#endif  // HTDP_SIMD_COMPILED

}  // namespace
}  // namespace htdp
