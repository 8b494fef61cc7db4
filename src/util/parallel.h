#ifndef HTDP_UTIL_PARALLEL_H_
#define HTDP_UTIL_PARALLEL_H_

#include <cstddef>

namespace htdp {

/// Returns the number of worker threads used by ParallelFor. Defaults to the
/// hardware concurrency, capped at 16; override with the HTDP_NUM_THREADS
/// environment variable (HTDP_NUM_THREADS=1 forces serial execution).
int NumWorkerThreads();

/// Below this many items a cheap-per-item loop is not worth dispatching to
/// the pool; ParallelFor's default threshold. Callers whose items are
/// individually expensive (a chunk of samples, a matrix row block) should
/// pass an explicit lower threshold.
inline constexpr std::size_t kParallelForSerialThreshold = 4096;

/// Half-open index range [begin, end).
struct IndexRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// The boundaries of chunk `chunk` when [0, count) is split into `chunks`
/// contiguous parts. Sizes differ by at most one (floor division with the
/// remainder spread over the leading chunks), so no chunk is ever empty when
/// chunks <= count. Requires chunk < chunks and chunks >= 1.
IndexRange ParallelChunkBounds(std::size_t count, std::size_t chunks,
                               std::size_t chunk);

namespace parallel_internal {

/// Runs task(ctx, t) for every t in [0, tasks) on the persistent worker
/// pool plus the calling thread; blocks until all tasks completed. Performs
/// no heap allocation. The pool serves one dispatch at a time: a call made
/// while another holds it, or from inside a pool task, runs its tasks
/// serially on the calling thread instead of waiting.
void PoolRun(std::size_t tasks, void (*task)(void* ctx, std::size_t t),
             void* ctx);

}  // namespace parallel_internal

/// Runs `body(begin, end)` over [0, count), statically chunked across worker
/// threads. `body` receives a half-open index range and must be safe to run
/// concurrently on disjoint ranges. Falls back to a serial call when count <
/// min_parallel or only one worker is configured. Work is executed by a
/// persistent, lazily-started pool -- no per-call thread spawn and no heap
/// allocation per dispatch, so hot loops can call this every iteration. The
/// call blocks until all chunks complete. Chunk boundaries are a
/// deterministic function of (count, NumWorkerThreads()) only -- never of
/// scheduling -- and cover [0, count) exactly once with no empty chunk.
/// Concurrent callers never queue behind each other: while one call holds
/// the pool, the others run their chunks on their own threads, and nested
/// calls from inside a pool task run serially.
template <typename Body>
void ParallelFor(std::size_t count, const Body& body,
                 std::size_t min_parallel = kParallelForSerialThreshold) {
  if (count == 0) return;
  const int workers = NumWorkerThreads();
  if (workers <= 1 || count < min_parallel || count < 2) {
    body(std::size_t{0}, count);
    return;
  }
  // chunks <= count, so ParallelChunkBounds never yields an empty chunk.
  const std::size_t chunks =
      count < static_cast<std::size_t>(workers)
          ? count
          : static_cast<std::size_t>(workers);
  struct Context {
    const Body* body;
    std::size_t count;
    std::size_t chunks;
  } context{&body, count, chunks};
  parallel_internal::PoolRun(
      chunks,
      [](void* ctx, std::size_t c) {
        const Context& context = *static_cast<const Context*>(ctx);
        const IndexRange range =
            ParallelChunkBounds(context.count, context.chunks, c);
        (*context.body)(range.begin, range.end);
      },
      &context);
}

}  // namespace htdp

#endif  // HTDP_UTIL_PARALLEL_H_
