// AVX-512 instance of the dispatched batch kernels. CMakeLists.txt compiles
// this file with `-march=x86-64 -mavx512f -mavx512dq -ffp-contract=off`
// (the explicit -march resets HTDP_NATIVE flags; DQ supplies the 512-bit
// integer shifts the mantissa-trick transcendentals lower to). The logical
// vector widens to 8 lanes here, so the Dot / DistanceL2 reductions
// reassociate across a different lane partition and the SmoothedPhi batch
// leaves a different remainder tail to the scalar spill than the 4-lane
// tables -- all within the documented tolerances (see util/simd_dispatch.h);
// the elementwise kernels, the SmoothedPhi lanes included, stay per-element
// identical.

#include "util/simd.h"
#include "util/simd_dispatch.h"

#if HTDP_SIMD_COMPILED && defined(__x86_64__) && defined(__AVX512F__) && \
    defined(__AVX512DQ__)

#include "util/simd_kernels_impl.h"

namespace htdp::simd_dispatch_internal {

const SimdKernelTable* Avx512Table() { return &simd_kernel_impl::kTable; }

}  // namespace htdp::simd_dispatch_internal

#else  // not an avx512-flagged x86-64 build of this TU

namespace htdp::simd_dispatch_internal {

const SimdKernelTable* Avx512Table() { return nullptr; }

}  // namespace htdp::simd_dispatch_internal

#endif
