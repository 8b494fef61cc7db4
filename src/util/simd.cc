#include "util/simd.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string>

#include "util/simd_dispatch.h"

namespace htdp {
namespace {

bool SimdEnabledFromEnv() {
  const char* value = std::getenv("HTDP_SIMD");
  if (value == nullptr) return true;
  std::string folded(value);
  for (char& c : folded) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return !(folded == "off" || folded == "0" || folded == "false" ||
           folded == "scalar");
}

std::atomic<bool>& SimdFlag() {
  static std::atomic<bool> flag{SimdEnabledFromEnv()};
  return flag;
}

}  // namespace

bool SimdEnabled() {
  return HTDP_SIMD_COMPILED != 0 &&
         SimdFlag().load(std::memory_order_relaxed);
}

void SetSimdEnabled(bool enabled) {
  SimdFlag().store(enabled, std::memory_order_relaxed);
}

SimdCaps SimdInfo() {
  // `isa`/`lanes` follow the runtime dispatcher (the batch kernels actually
  // executed); the compile-time baseline rides along for logging. When the
  // vector layer is not compiled in there is no table and both collapse to
  // the scalar description.
  const SimdKernelTable* table = ActiveSimdKernels();
  const char* isa = table != nullptr ? table->isa : simd::kIsaName;
  const int lanes = table != nullptr ? table->lanes : simd::kLanes;
  return SimdCaps{isa,           lanes,
                  simd::kIsaName, simd::kLanes,
                  HTDP_SIMD_COMPILED != 0, SimdEnabled()};
}

}  // namespace htdp
