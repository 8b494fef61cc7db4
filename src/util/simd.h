#ifndef HTDP_UTIL_SIMD_H_
#define HTDP_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

/// Portable SIMD kernel layer.
///
/// The wrapper below is width-agnostic: `simd::VecD` is a fixed logical
/// vector of `simd::kLanes` doubles built on the GCC/Clang vector
/// extensions, so the same kernel source lowers to AVX-512, AVX2, SSE2
/// pairs or NEON pairs depending on the compile flags (see the ISA table in
/// SimdInfo()).
///
/// On x86-64 the batch kernels are additionally multi-versioned at RUNTIME:
/// the hot-loop entry points (SmoothedPhiBatch and its Catoni transform,
/// Dot / DistanceL2, the Gumbel noise transform) are compiled once per ISA
/// in dedicated translation units (util/simd_kernels_{base,avx2,avx512}.cc)
/// and selected through a one-time CPUID probe -- see util/simd_dispatch.h.
/// One shipped binary therefore hits AVX-512 or AVX2 on machines that have
/// them without an HTDP_NATIVE rebuild; everything outside those entry
/// points still lowers to the compile-time baseline ISA below. SimdInfo()
/// reports both (the dispatched `isa` and the `compiled_isa` baseline), and
/// the bench harness records them into BENCH_*.json next to `threads` and
/// `git_rev`.
///
/// One switch controls whether vectorized kernels actually run: the
/// process-wide runtime toggle (`HTDP_SIMD` environment variable,
/// overridable with SetSimdEnabled). `HTDP_SIMD=off` forces every kernel in
/// linalg/, robust/ and dp/ down its scalar loop, which is the reference
/// the golden-checksum tests (tests/accountant_test.cc) pin.
///
/// Numerical contract: vectorized kernels are NOT bit-identical to the
/// scalar reference. Reductions (Dot, DistanceL2, MatVec) reassociate the
/// sum across lanes; the transcendental kernels (util/simd_math.h) carry
/// small documented ULP bounds. Agreement with the scalar path is pinned by
/// ULP-bound tests (tests/simd_test.cc, tests/robust_test.cc), not
/// bit-identity.

namespace htdp {

/// Runtime description of the kernel layer. `isa`/`lanes` describe the
/// RUNTIME-DISPATCHED batch kernels (the probed best of
/// avx512f > avx2 > compile-time baseline on x86-64; elsewhere they equal
/// the compiled baseline); `compiled_isa`/`compiled_lanes` describe the
/// compile-time baseline the rest of the vector layer lowers to.
struct SimdCaps {
  const char* isa;  // "avx512f", "avx2", "sse2", "neon", "generic", "scalar"
  int lanes;        // doubles per logical vector (1 when not compiled in)
  const char* compiled_isa;  // compile-time baseline ISA of this binary
  int compiled_lanes;        // lanes of the compile-time baseline
  bool compiled;    // vector kernels were compiled into this binary
  bool enabled;     // current process-wide toggle state
};

/// True when vector kernels are compiled in AND the process-wide toggle is
/// on. Kernels branch on this once per call (relaxed atomic load).
bool SimdEnabled();

/// Flips the process-wide toggle (initially from the HTDP_SIMD environment
/// variable: "off" / "0" / "false" / "scalar" disable, anything else --
/// including unset -- enables). Affects kernels process-wide, including
/// concurrently running Engine jobs; the robust estimators read it once, at
/// construction.
void SetSimdEnabled(bool enabled);

/// Compile-time ISA + runtime toggle state, for logging and the bench JSON.
SimdCaps SimdInfo();

/// RAII scalar-mode (or forced-SIMD) scope for tests that pin the scalar
/// reference, e.g. the golden-checksum suite. Not thread-safe against
/// concurrent SetSimdEnabled calls.
class ScopedSimdOverride {
 public:
  explicit ScopedSimdOverride(bool enabled) : previous_(SimdEnabled()) {
    SetSimdEnabled(enabled);
  }
  ~ScopedSimdOverride() { SetSimdEnabled(previous_); }
  ScopedSimdOverride(const ScopedSimdOverride&) = delete;
  ScopedSimdOverride& operator=(const ScopedSimdOverride&) = delete;

 private:
  bool previous_;
};

// ---------------------------------------------------------------------------
// The vector wrapper. Compiled wherever the GCC/Clang vector extensions are
// available; other compilers fall back to the scalar paths (kLanes == 1,
// SimdEnabled() == false).
// ---------------------------------------------------------------------------

#if (defined(__GNUC__) || defined(__clang__)) && !defined(HTDP_NO_SIMD)
#define HTDP_SIMD_COMPILED 1
#else
#define HTDP_SIMD_COMPILED 0
#endif

// The wrapper (and util/simd_math.h on top of it) lives in an inline
// namespace keyed by the ISA the including TU is compiled for. C++ name
// mangling ignores return types, so without this the per-ISA kernel TUs of
// the runtime dispatcher (util/simd_kernels_*.cc, built with -mavx2 /
// -mavx512f) would emit inline helpers like `Set1(double)` under the SAME
// mangled name as the baseline TUs -- with different vector widths and
// instruction encodings -- and the linker would keep one arbitrary copy: an
// ODR violation that can SIGILL on CPUs without the wider ISA. The inline
// namespace gives every ISA its own symbols while `simd::Set1` etc. keep
// resolving unqualified within each TU.
#if !HTDP_SIMD_COMPILED
#define HTDP_SIMD_ISA_NS isa_scalar
#elif defined(__AVX512F__)
#define HTDP_SIMD_ISA_NS isa_avx512f
#elif defined(__AVX2__)
#define HTDP_SIMD_ISA_NS isa_avx2
#elif defined(__x86_64__) || defined(_M_X64)
#define HTDP_SIMD_ISA_NS isa_sse2
#elif defined(__aarch64__) || defined(__ARM_NEON)
#define HTDP_SIMD_ISA_NS isa_neon
#else
#define HTDP_SIMD_ISA_NS isa_generic
#endif

namespace simd {
inline namespace HTDP_SIMD_ISA_NS {

#if HTDP_SIMD_COMPILED

#if defined(__AVX512F__)
inline constexpr int kLanes = 8;
inline constexpr const char* kIsaName = "avx512f";
#elif defined(__AVX2__)
inline constexpr int kLanes = 4;
inline constexpr const char* kIsaName = "avx2";
#elif defined(__x86_64__) || defined(_M_X64)
// Baseline x86-64: the 4-lane logical vector lowers to SSE2 pairs, which
// still buys 2-wide math plus the polynomial transcendentals.
inline constexpr int kLanes = 4;
inline constexpr const char* kIsaName = "sse2";
#elif defined(__aarch64__) || defined(__ARM_NEON)
inline constexpr int kLanes = 4;  // lowers to NEON pairs
inline constexpr const char* kIsaName = "neon";
#else
inline constexpr int kLanes = 4;  // compiler-lowered, possibly scalar code
inline constexpr const char* kIsaName = "generic";
#endif

typedef double VecD __attribute__((vector_size(sizeof(double) * kLanes)));
typedef std::int64_t VecI __attribute__((vector_size(sizeof(std::int64_t) *
                                                     kLanes)));

inline VecD Set1(double x) {
  VecD v;
  for (int i = 0; i < kLanes; ++i) v[i] = x;
  return v;
}

inline VecI Set1I(std::int64_t x) {
  VecI v;
  for (int i = 0; i < kLanes; ++i) v[i] = x;
  return v;
}

inline VecD LoadU(const double* p) {
  VecD v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreU(double* p, VecD v) { std::memcpy(p, &v, sizeof(v)); }

/// Lane select: mask lanes are all-ones (from a vector comparison) or zero.
inline VecD Select(VecI mask, VecD a, VecD b) {
  return (VecD)((mask & (VecI)a) | (~mask & (VecI)b));
}

inline VecD Abs(VecD x) {
  return (VecD)((VecI)x & Set1I(0x7FFFFFFFFFFFFFFFLL));
}

inline VecD Max(VecD a, VecD b) { return Select(a > b, a, b); }
inline VecD Min(VecD a, VecD b) { return Select(a < b, a, b); }

inline VecD Clamp(VecD x, VecD lo, VecD hi) { return Min(Max(x, lo), hi); }

/// True when every lane of a comparison result is set.
inline bool AllTrue(VecI mask) {
  std::int64_t acc = -1;
  for (int i = 0; i < kLanes; ++i) acc &= mask[i];
  return acc == -1;
}

/// True when no lane of a comparison result is set.
inline bool NoneTrue(VecI mask) {
  std::int64_t acc = 0;
  for (int i = 0; i < kLanes; ++i) acc |= mask[i];
  return acc == 0;
}

/// Sequential horizontal sum (lane 0 first): deterministic and identical
/// across ISAs of the same lane count.
inline double ReduceAdd(VecD v) {
  double acc = 0.0;
  for (int i = 0; i < kLanes; ++i) acc += v[i];
  return acc;
}

/// Round-to-nearest-even for |x| < 2^51, via the classic shift trick.
inline VecD RoundNearest(VecD x) {
  const VecD shift = Set1(6755399441055744.0);  // 1.5 * 2^52
  return (x + shift) - shift;
}

#else  // !HTDP_SIMD_COMPILED

inline constexpr int kLanes = 1;
inline constexpr const char* kIsaName = "scalar";

#endif  // HTDP_SIMD_COMPILED

}  // namespace HTDP_SIMD_ISA_NS
}  // namespace simd

}  // namespace htdp

#endif  // HTDP_UTIL_SIMD_H_
