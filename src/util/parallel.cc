#include "util/parallel.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/check.h"

namespace htdp {
namespace {

int DetectWorkerThreads() {
  if (const char* env = std::getenv("HTDP_NUM_THREADS")) {
    const int parsed = parallel_internal::ParseThreadCount(env);
    if (parsed > 0) return parsed;
    std::fprintf(stderr,
                 "htdp: ignoring HTDP_NUM_THREADS=\"%s\": want an integer "
                 "in [1, %d]\n",
                 env, kMaxWorkerThreads);
  }
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return static_cast<int>(std::min<unsigned>(hw, 16));
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

namespace parallel_internal {

int ParseThreadCount(const char* value) {
  const char* end = value + std::strlen(value);
  int parsed = 0;
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc() || ptr != end || parsed < 1 ||
      parsed > kMaxWorkerThreads) {
    return 0;
  }
  return parsed;
}

}  // namespace parallel_internal

}  // namespace htdp
