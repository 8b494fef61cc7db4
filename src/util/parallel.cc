#include "util/parallel.h"

#include <sched.h>
#include <algorithm>
#include <thread>

#include "util/check.h"

namespace htdp {
namespace {

int DetectWorkerThreads() {
#if defined(__linux__)
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return std::clamp(CPU_COUNT(&mask), 1, 16);
  }
#endif
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 16u));
}

}  // namespace

int NumWorkerThreads() {
  static const int kWorkers = DetectWorkerThreads();
  return kWorkers;
}

IndexRange ParallelChunkBounds(std::size_t count, std::size_t chunks,
                               std::size_t chunk) {
  HTDP_CHECK_GE(chunks, 1u);
  HTDP_CHECK_LT(chunk, chunks);
  const std::size_t base = count / chunks;
  const std::size_t remainder = count % chunks;
  const std::size_t begin = chunk * base + std::min(chunk, remainder);
  const std::size_t end = begin + base + (chunk < remainder ? 1 : 0);
  return IndexRange{begin, end};
}

}  // namespace htdp
