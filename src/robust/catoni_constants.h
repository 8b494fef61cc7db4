#ifndef HTDP_ROBUST_CATONI_CONSTANTS_H_
#define HTDP_ROBUST_CATONI_CONSTANTS_H_

#include <numbers>

/// Compile-time constants of the Catoni truncation kernels, split out of
/// catoni.h so the per-ISA kernel translation units (util/simd_kernels_*.cc)
/// can share the branch thresholds without pulling in any inline FUNCTION
/// definitions. That matters for the runtime-dispatch build: a TU compiled
/// with -mavx2/-mavx512f must never emit a weak copy of code that other TUs
/// also emit (the linker keeps one arbitrary copy, which could then run on a
/// CPU without that ISA), so everything here is constexpr data -- no code,
/// no dynamic initializers.

namespace htdp::catoni_internal {

inline constexpr double kSqrt2 = std::numbers::sqrt2;

/// 1 / sqrt(2 * pi), written as the exact bits of the computed expression
/// (sqrt and the division are both correctly rounded, so the value is
/// reproducible); tests/robust_test.cc pins the literal against the
/// runtime-computed expression. A constexpr literal instead of a dynamic
/// initializer keeps this header free of startup code (see above).
inline constexpr double kInvSqrt2Pi = 0x1.9884533d43651p-2;

/// Branch-selection thresholds of SmoothedPhi, shared with the batched
/// kernels so the scalar and batch classifications can never drift apart.
/// b below kTinyB contributes nothing at double precision.
inline constexpr double kTinyB = 1e-12;

/// The closed form cancels terms of magnitude ~|a|^3/6 and ~|a| b^2 / 2
/// down to a result bounded by kPhiBound; it stays accurate while that
/// cancellation magnitude keeps the absolute error (~magnitude * machine
/// epsilon) below ~1e-9, and the exact split takes over beyond.
inline constexpr double kCancellationLimit = 1e6;

/// Maximum magnitude of the Catoni truncation function:
/// |phi(x)| <= 2*sqrt(2)/3 (see PhiBound() in catoni.h).
inline constexpr double kPhiBound = 2.0 * kSqrt2 / 3.0;

/// 16-point Gauss-Legendre rule on [-1, 1] for the vector split lanes of
/// the batch kernels (util/simd_kernels_impl.h): the nodes in ascending
/// order, mirrored pairs sharing one weight, weights summing to 2. The
/// scalar SmoothedPhiBySplit keeps its own, differing copy in
/// robust/catoni.cc (see the note there).
inline constexpr int kGaussLegendre16Points = 16;
inline constexpr double kGaussLegendre16Nodes[kGaussLegendre16Points] = {
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
    -0.7554044083550030, -0.6178762444026438, -0.4580167776572274,
    -0.2816035507792589, -0.0950125098376374, 0.0950125098376374,
    0.2816035507792589,  0.4580167776572274,  0.6178762444026438,
    0.7554044083550030,  0.8656312023878318,  0.9445750230732326,
    0.9894009349916499};
inline constexpr double kGaussLegendre16Weights[kGaussLegendre16Points] = {
    0.0271524594117541, 0.0622535239386479, 0.0951585116824928,
    0.1246289712555339, 0.1495959888165767, 0.1691565193950025,
    0.1826034150449236, 0.1894506104550685, 0.1894506104550685,
    0.1826034150449236, 0.1691565193950025, 0.1495959888165767,
    0.1246289712555339, 0.0951585116824928, 0.0622535239386479,
    0.0271524594117541};

}  // namespace htdp::catoni_internal

#endif  // HTDP_ROBUST_CATONI_CONSTANTS_H_
