// The wire-status table is a compatibility contract: the numeric protocol
// codes must never change once an htdpctl has shipped. This suite pins every
// number, proves the mapping is a total round-trip over the StatusCode
// taxonomy, and checks the unknown-code path.

#include "net/wire_status.h"

#include <gtest/gtest.h>

#include "util/status.h"

namespace htdp {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// Pinned numbers (wire-stable forever; a failure here means a protocol break)

TEST(WireStatus, PinnedNumbersNeverChange) {
  EXPECT_EQ(WireStatusFor(StatusCode::kOk), 0);
  EXPECT_EQ(WireStatusFor(StatusCode::kInvalidProblem), 1);
  EXPECT_EQ(WireStatusFor(StatusCode::kBudgetExhausted), 2);
  EXPECT_EQ(WireStatusFor(StatusCode::kShapeMismatch), 3);
  EXPECT_EQ(WireStatusFor(StatusCode::kUnknownSolver), 4);
  EXPECT_EQ(WireStatusFor(StatusCode::kCancelled), 5);
  EXPECT_EQ(WireStatusFor(StatusCode::kDeadlineExceeded), 6);
  EXPECT_EQ(WireStatusFor(StatusCode::kUnavailable), 7);
}

TEST(WireStatus, BudgetExhaustedConstantMatchesTheTable) {
  EXPECT_EQ(kWireBudgetExhausted, 2);
}

TEST(WireStatus, UnavailableConstantMatchesTheTable) {
  EXPECT_EQ(kWireUnavailable, 7);
}

// The table is constexpr end to end, so protocol constants can live in
// compile-time contexts (e.g. switch labels, static_asserts in handlers).
static_assert(WireStatusFor(StatusCode::kBudgetExhausted) == 2);
static_assert(StatusCodeFromWire(2).has_value() &&
              *StatusCodeFromWire(2) == StatusCode::kBudgetExhausted);

// ---------------------------------------------------------------------------
// Round-trip totality

TEST(WireStatus, RoundTripsEveryStatusCode) {
  // Every enumerator of the taxonomy (util/status.h). If a new StatusCode is
  // added, extend HTDP_WIRE_STATUS_TABLE with a FRESH number and add the
  // enumerator here.
  const StatusCode all[] = {
      StatusCode::kOk,            StatusCode::kInvalidProblem,
      StatusCode::kBudgetExhausted, StatusCode::kShapeMismatch,
      StatusCode::kUnknownSolver, StatusCode::kCancelled,
      StatusCode::kDeadlineExceeded, StatusCode::kUnavailable,
  };
  for (StatusCode code : all) {
    const std::uint16_t wire = WireStatusFor(code);
    const std::optional<StatusCode> back = StatusCodeFromWire(wire);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, code);
  }
}

TEST(WireStatus, WireNumbersAreDistinct) {
  const StatusCode all[] = {
      StatusCode::kOk,            StatusCode::kInvalidProblem,
      StatusCode::kBudgetExhausted, StatusCode::kShapeMismatch,
      StatusCode::kUnknownSolver, StatusCode::kCancelled,
      StatusCode::kDeadlineExceeded, StatusCode::kUnavailable,
  };
  for (StatusCode a : all) {
    for (StatusCode b : all) {
      if (a != b) {
        EXPECT_NE(WireStatusFor(a), WireStatusFor(b));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Unknown codes (a peer newer than this build)

TEST(WireStatus, UnknownWireCodeHasNoStatusCode) {
  EXPECT_FALSE(StatusCodeFromWire(8).has_value());
  EXPECT_FALSE(StatusCodeFromWire(999).has_value());
  EXPECT_FALSE(StatusCodeFromWire(0xffff).has_value());
}

TEST(WireStatus, StatusFromWireReconstructsTypedStatus) {
  const Status budget = StatusFromWire(2, "tenant over budget");
  EXPECT_EQ(budget.code(), StatusCode::kBudgetExhausted);
  EXPECT_EQ(budget.message(), "tenant over budget");

  const Status cancelled = StatusFromWire(5, "stopped");
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);

  // The overload code round-trips typed AND stays marked retryable, which is
  // what the client backoff loop branches on.
  const Status unavailable = StatusFromWire(7, "queue full");
  EXPECT_EQ(unavailable.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsRetryable(unavailable.code()));
  EXPECT_FALSE(IsRetryable(budget.code()));

  EXPECT_TRUE(StatusFromWire(0, "").ok());
}

TEST(WireStatus, StatusFromWirePreservesUnknownNumberInMessage) {
  const Status unknown = StatusFromWire(321, "something new");
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidProblem);
  EXPECT_NE(unknown.message().find("321"), std::string::npos);
  EXPECT_NE(unknown.message().find("something new"), std::string::npos);
}

}  // namespace
}  // namespace net
}  // namespace htdp
