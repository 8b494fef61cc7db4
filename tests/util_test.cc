#include <sched.h>
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <numeric>
#include <vector>

#include "gtest/gtest.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace htdp {
namespace {

TEST(CheckTest, PassingChecksDoNothing) {
  HTDP_CHECK(true);
  HTDP_CHECK_EQ(1, 1);
  HTDP_CHECK_NE(1, 2);
  HTDP_CHECK_LT(1, 2);
  HTDP_CHECK_LE(2, 2);
  HTDP_CHECK_GT(3, 2);
  HTDP_CHECK_GE(3, 3);
  HTDP_CHECK(true) << "streamed message is not evaluated eagerly";
}

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH(HTDP_CHECK(false), "HTDP_CHECK failed: false");
}

TEST(CheckDeathTest, FailingCheckPrintsStreamedMessage) {
  EXPECT_DEATH(HTDP_CHECK(1 == 2) << "custom context 42", "custom context 42");
}

TEST(CheckDeathTest, ComparisonPrintsOperands) {
  const int lhs = 3;
  const int rhs = 7;
  EXPECT_DEATH(HTDP_CHECK_EQ(lhs, rhs), "lhs=3, rhs=7");
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  std::atomic<int> calls{0};
  ParallelFor(0, [&](std::size_t, std::size_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, SmallRangeRunsSerially) {
  std::vector<int> hits(100, 0);
  ParallelFor(100, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, LargeRangeCoversEveryIndexExactlyOnce) {
  const std::size_t count = 100000;
  std::vector<std::atomic<int>> hits(count);
  ParallelFor(count, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SumMatchesSerialComputation) {
  const std::size_t count = 50000;
  std::vector<double> values(count);
  std::iota(values.begin(), values.end(), 1.0);
  std::atomic<long long> total{0};
  ParallelFor(count, [&](std::size_t begin, std::size_t end) {
    long long local = 0;
    for (std::size_t i = begin; i < end; ++i) {
      local += static_cast<long long>(values[i]);
    }
    total += local;
  });
  const long long expected =
      static_cast<long long>(count) * static_cast<long long>(count + 1) / 2;
  EXPECT_EQ(total.load(), expected);
}

TEST(ParallelForTest, WorkerCountIsPositive) {
  EXPECT_GE(NumWorkerThreads(), 1);
  EXPECT_LE(NumWorkerThreads(), kMaxWorkerThreads);
}

// The default Engine size is the process's CPU allowance, so
// `taskset -c 0` makes direct fits serial without any setting.
TEST(ParallelForTest, WorkerCountFollowsTheAffinityMask) {
#if defined(__linux__)
  cpu_set_t mask;
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  EXPECT_EQ(NumWorkerThreads(), std::min(CPU_COUNT(&mask), 16));
#else
  GTEST_SKIP() << "no affinity mask on this platform";
#endif
}

TEST(ParallelChunkBoundsTest, PartitionIsExactAndNeverEmpty) {
  const std::size_t workers = static_cast<std::size_t>(NumWorkerThreads());
  // Adversarial counts: degenerate, off-by-one around the worker count, and
  // primes that do not divide evenly.
  const std::size_t counts[] = {1,
                                2,
                                workers > 1 ? workers - 1 : 1,
                                workers,
                                workers + 1,
                                7,
                                97,
                                101,
                                4099};
  for (const std::size_t count : counts) {
    for (std::size_t chunks = 1; chunks <= std::min<std::size_t>(count, 33);
         ++chunks) {
      std::size_t expected_begin = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const IndexRange range = ParallelChunkBounds(count, chunks, c);
        EXPECT_EQ(range.begin, expected_begin)
            << "count=" << count << " chunks=" << chunks << " c=" << c;
        EXPECT_LT(range.begin, range.end)
            << "empty chunk: count=" << count << " chunks=" << chunks
            << " c=" << c;
        expected_begin = range.end;
      }
      EXPECT_EQ(expected_begin, count)
          << "count=" << count << " chunks=" << chunks;
    }
  }
}

TEST(ParallelForTest, PooledDispatchCoversAdversarialCountsExactlyOnce) {
  const std::size_t workers = static_cast<std::size_t>(NumWorkerThreads());
  const std::size_t counts[] = {0,       1,  workers > 1 ? workers - 1 : 1,
                                workers, workers + 1,
                                97,      4099};
  for (const std::size_t count : counts) {
    std::vector<std::atomic<int>> hits(count);
    // min_parallel=1 forces the pool path for every non-zero count.
    ParallelFor(
        count,
        [&](std::size_t begin, std::size_t end) {
          ASSERT_LE(begin, end);
          for (std::size_t i = begin; i < end; ++i) hits[i]++;
        },
        /*min_parallel=*/1);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "count=" << count << " index=" << i;
    }
  }
}

TEST(ParallelForTest, PoolSurvivesManyDispatches) {
  // The pool is persistent: thousands of dispatches must neither leak
  // threads nor deadlock (the seed implementation spawned fresh threads per
  // call; this guards the replacement).
  std::atomic<long long> total{0};
  for (int round = 0; round < 2000; ++round) {
    ParallelFor(
        17, [&](std::size_t begin,
                std::size_t end) { total += static_cast<long long>(end - begin); },
        /*min_parallel=*/1);
  }
  EXPECT_EQ(total.load(), 2000LL * 17LL);
}

TEST(ParallelForTest, NestedCallsRunSerially) {
  std::atomic<int> inner_calls{0};
  ParallelFor(
      4,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          ParallelFor(
              8,
              [&](std::size_t lo, std::size_t hi) {
                inner_calls += static_cast<int>(hi - lo);
              },
              /*min_parallel=*/1);
        }
      },
      /*min_parallel=*/1);
  EXPECT_EQ(inner_calls.load(), 4 * 8);
}

TEST(WallTimerTest, ElapsedIsNonNegativeAndMonotone) {
  WallTimer timer;
  const double first = timer.ElapsedSeconds();
  const double second = timer.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
  timer.Reset();
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace htdp
