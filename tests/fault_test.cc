// Tests for the deterministic wire-fault layer (net/fault.h) and the
// client's retry/backoff schedule (net/client.h): spec-string round-trips
// with typed validation errors, the HTDP_FAULT_PLAN env knob, exact
// determinism of the decision stream, where FaultInjectingStream cuts a
// gathered send, and the backoff law -- exponential, capped, raised to the
// server's retry_after_ms hint, deterministically jittered. Everything here
// must be exactly reproducible: a failing chaos seed is only debuggable if
// the same seed replays the same faults.

#include "net/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <vector>

#include "net/client.h"
#include "net/transport.h"

namespace htdp {
namespace net {
namespace {

TEST(FaultPlanTest, SpecRoundTripsEveryField) {
  FaultPlan plan;
  plan.seed = 12345;
  plan.drop_prob = 0.05;
  plan.truncate_prob = 0.04;
  plan.partial_prob = 0.25;
  plan.delay_prob = 0.1;
  plan.delay_ms = 3.5;

  const StatusOr<FaultPlan> parsed = FaultPlan::FromSpec(plan.ToSpec());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->seed, plan.seed);
  EXPECT_EQ(parsed->drop_prob, plan.drop_prob);
  EXPECT_EQ(parsed->truncate_prob, plan.truncate_prob);
  EXPECT_EQ(parsed->partial_prob, plan.partial_prob);
  EXPECT_EQ(parsed->delay_prob, plan.delay_prob);
  EXPECT_EQ(parsed->delay_ms, plan.delay_ms);
}

TEST(FaultPlanTest, KeysInAnyOrderAndUnmentionedKeysDefaultToZero) {
  const StatusOr<FaultPlan> plan =
      FaultPlan::FromSpec("delay_ms=2,seed=9,delay=0.5");
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  EXPECT_EQ(plan->seed, 9u);
  EXPECT_EQ(plan->delay_prob, 0.5);
  EXPECT_EQ(plan->delay_ms, 2.0);
  EXPECT_EQ(plan->drop_prob, 0.0);
  EXPECT_EQ(plan->truncate_prob, 0.0);
  EXPECT_EQ(plan->partial_prob, 0.0);
  EXPECT_TRUE(plan->enabled());
}

TEST(FaultPlanTest, MalformedSpecsAreTypedErrorsNotAborts) {
  // A chaos run with a typo'd plan must fail loudly, never run faultless.
  for (const char* bad : {
           "drop=1.5",                 // probability out of [0, 1]
           "drop=-0.1",                //
           "drop=zero",                // not a number
           "bogus_key=1",              // unknown key
           "drop",                     // no '='
           "drop=0.7,truncate=0.7",    // kinds are exclusive: sum must be <= 1
       }) {
    SCOPED_TRACE(bad);
    const StatusOr<FaultPlan> plan = FaultPlan::FromSpec(bad);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidProblem);
  }
}

TEST(FaultPlanTest, FromEnvUnsetEmptySetAndMalformed) {
  ::unsetenv("HTDP_FAULT_PLAN");
  StatusOr<std::optional<FaultPlan>> none = FaultPlan::FromEnv();
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->has_value());

  ::setenv("HTDP_FAULT_PLAN", "", /*overwrite=*/1);
  none = FaultPlan::FromEnv();
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->has_value());

  ::setenv("HTDP_FAULT_PLAN", "seed=4,drop=0.1", 1);
  const StatusOr<std::optional<FaultPlan>> set = FaultPlan::FromEnv();
  ASSERT_TRUE(set.ok()) << set.status().message();
  ASSERT_TRUE(set->has_value());
  EXPECT_EQ((*set)->seed, 4u);
  EXPECT_EQ((*set)->drop_prob, 0.1);

  ::setenv("HTDP_FAULT_PLAN", "drop=lots", 1);
  EXPECT_FALSE(FaultPlan::FromEnv().ok());
  ::unsetenv("HTDP_FAULT_PLAN");
}

TEST(FaultRngTest, StreamIsDeterministicAndUniformsInUnitInterval) {
  FaultRng a(77);
  FaultRng b(77);
  FaultRng c(78);
  bool diverged = false;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t va = a.NextU64();
    EXPECT_EQ(va, b.NextU64());
    if (va != c.NextU64()) diverged = true;
  }
  EXPECT_TRUE(diverged);  // distinct seeds give distinct streams
  FaultRng u(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = u.NextUniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(DrawFaultTest, ReplaysExactlyAndRespectsProbabilities) {
  const FaultPlan plan = FaultPlan::Chaos(31);
  FaultRng a(plan.seed);
  FaultRng b(plan.seed);
  FaultCounters counts;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const FaultAction action = DrawFault(plan, a);
    EXPECT_EQ(action, DrawFault(plan, b));  // bit-exact replay
    switch (action) {
      case FaultAction::kDrop: ++counts.drops; break;
      case FaultAction::kTruncate: ++counts.truncates; break;
      case FaultAction::kPartial: ++counts.partials; break;
      case FaultAction::kDelay: ++counts.delays; break;
      case FaultAction::kNone: break;
    }
  }
  // Loose law-of-large-numbers bands: each enabled kind fires roughly at
  // its probability (20k draws put the sample error well inside 2x).
  EXPECT_GT(counts.drops, 0u);
  EXPECT_LT(counts.drops, static_cast<std::size_t>(
                              2.0 * plan.drop_prob * kDraws + 100));
  EXPECT_GT(counts.partials, static_cast<std::size_t>(
                                 0.5 * plan.partial_prob * kDraws));
  EXPECT_GT(counts.delays, 0u);
  EXPECT_GT(counts.total(), 0u);

  const FaultPlan off;  // all probabilities zero
  EXPECT_FALSE(off.enabled());
  FaultRng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(DrawFault(off, rng), FaultAction::kNone);
  }
}

// Records each Send's parts and whether the stream was closed.
struct StreamLog {
  std::vector<std::vector<ByteSpan>> sends;
  bool closed = false;
};

class LoggingStream : public ByteStream {
 public:
  explicit LoggingStream(StreamLog* log) : log_(log) {}
  Status Send(std::span<const ByteSpan> parts) override {
    log_->sends.emplace_back(parts.begin(), parts.end());
    return Status::Ok();
  }
  StatusOr<std::size_t> Recv(std::uint8_t*, std::size_t) override {
    return std::size_t{0};
  }
  void Close() override { log_->closed = true; }

 private:
  StreamLog* log_;
};

TEST(FaultInjectingStreamTest, GatheredSendIsCutAtHalfItsTotal) {
  // A frame head and two dataset blocks, 5 + 8 + 4 = 17 bytes: half the
  // total is byte 8, three bytes into the second part.
  const std::uint8_t head[5] = {1, 2, 3, 4, 5};
  const std::uint8_t x[8] = {6, 7, 8, 9, 10, 11, 12, 13};
  const std::uint8_t y[4] = {14, 15, 16, 17};
  const ByteSpan parts[] = {ByteSpan(head), ByteSpan(x), ByteSpan(y)};

  FaultPlan truncate;
  truncate.truncate_prob = 1.0;
  StreamLog cut;
  FaultInjectingStream truncating(std::make_unique<LoggingStream>(&cut),
                                  truncate);
  EXPECT_EQ(truncating.Send(parts).code(), StatusCode::kUnavailable);
  ASSERT_EQ(cut.sends.size(), 1u);
  ASSERT_EQ(cut.sends[0].size(), 2u);
  EXPECT_EQ(cut.sends[0][0].data(), head);  // slices, not copies
  EXPECT_EQ(cut.sends[0][0].size(), 5u);
  EXPECT_EQ(cut.sends[0][1].data(), x);
  EXPECT_EQ(cut.sends[0][1].size(), 3u);
  EXPECT_TRUE(cut.closed);
  EXPECT_EQ(truncating.counters().truncates, 1u);

  FaultPlan partial;
  partial.partial_prob = 1.0;
  StreamLog split;
  FaultInjectingStream splitting(std::make_unique<LoggingStream>(&split),
                                 partial);
  EXPECT_TRUE(splitting.Send(parts).ok());
  ASSERT_EQ(split.sends.size(), 2u);
  ASSERT_EQ(split.sends[1].size(), 2u);
  EXPECT_EQ(split.sends[1][0].data(), x + 3);
  EXPECT_EQ(split.sends[1][0].size(), 5u);
  EXPECT_EQ(split.sends[1][1].data(), y);
  EXPECT_EQ(split.sends[1][1].size(), 4u);
  std::vector<std::uint8_t> sent;
  for (const auto& send : split.sends) {
    for (ByteSpan part : send) {
      sent.insert(sent.end(), part.begin(), part.end());
    }
  }
  std::vector<std::uint8_t> all(head, head + 5);
  all.insert(all.end(), x, x + 8);
  all.insert(all.end(), y, y + 4);
  EXPECT_EQ(sent, all);  // nothing lost, nothing repeated
  EXPECT_FALSE(split.closed);
}

TEST(RetryBackoffTest, ExponentialCappedAndDeterministicallyJittered) {
  RetryPolicy policy;  // 25ms doubling, capped at 2000ms
  FaultRng a(9);
  FaultRng b(9);
  double previous = 0.0;
  for (int attempt = 0; attempt < 12; ++attempt) {
    const double wait = RetryBackoffMs(policy, attempt, /*hint=*/0, a);
    EXPECT_EQ(wait, RetryBackoffMs(policy, attempt, 0, b));  // replays
    const double base =
        std::min(policy.initial_backoff_ms *
                     std::pow(policy.backoff_multiplier, attempt),
                 policy.max_backoff_ms);
    EXPECT_GE(wait, 0.5 * base);  // jitter floor: half the base
    EXPECT_LE(wait, base);
    EXPECT_LE(wait, policy.max_backoff_ms);
    previous = wait;
  }
  (void)previous;
}

TEST(RetryBackoffTest, ServerHintRaisesTheFloor) {
  RetryPolicy policy;
  FaultRng jitter(3);
  // Attempt 0's base is 25ms; a 500ms server hint must dominate it.
  const double wait = RetryBackoffMs(policy, 0, /*hint=*/500, jitter);
  EXPECT_GE(wait, 250.0);  // >= half the hinted base after jitter
  EXPECT_LE(wait, 500.0);
  // A stale small hint never LOWERS a later attempt's backoff.
  FaultRng j2(3);
  const double late = RetryBackoffMs(policy, 6, /*hint=*/10, j2);
  EXPECT_GE(late, 0.5 * std::min(25.0 * 64.0, policy.max_backoff_ms));
}

}  // namespace
}  // namespace net
}  // namespace htdp
