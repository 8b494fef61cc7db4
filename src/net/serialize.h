#ifndef HTDP_NET_SERIALIZE_H_
#define HTDP_NET_SERIALIZE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/fit_result.h"
#include "api/problem.h"
#include "api/solver_spec.h"
#include "data/dataset.h"
#include "dp/privacy.h"
#include "losses/loss.h"
#include "net/codec.h"
#include "optim/polytope.h"
#include "util/status.h"

namespace htdp {
namespace net {

/// ## Message payloads of the htdpd protocol (version 1)
///
/// This layer turns the library's value types -- Problem, SolverSpec,
/// FitResult, EngineStats -- into frame payloads and back, on top of the
/// WireWriter/WireReader primitives of net/codec.h. Every Decode* returns a
/// typed Status (never aborts, never trusts a length field), and every
/// numeric field round-trips bit-exactly, which is what makes a remote fit
/// bit-identical to an in-process TryFit on the same seed.
///
/// A Problem cannot travel as-is: it holds non-owning pointers to a Loss, a
/// Dataset and a Polytope that live in the caller's process. WireProblem is
/// the owning, nominal description that does travel -- the dataset by value,
/// the loss and constraint by registry-style name + parameter -- and
/// ProblemHolder materializes it back into real objects server-side.

// --- WireProblem --------------------------------------------------------

/// Loss families constructible over the wire. Values are wire-stable.
inline constexpr const char* kWireLossSquared = "squared";
inline constexpr const char* kWireLossLogistic = "logistic";  // param = ridge
inline constexpr const char* kWireLossHuber = "huber";        // param = c
inline constexpr const char* kWireLossBiweight = "biweight";  // param = c
inline constexpr const char* kWireLossMean = "mean";

/// Constraint geometries constructible over the wire. Values are
/// wire-stable.
enum class WireConstraint : std::uint8_t {
  kNone = 0,
  kL1Ball = 1,   // radius field applies
  kSimplex = 2,  // probability simplex, radius ignored
};

/// The owning wire form of a Problem.
struct WireProblem {
  Dataset data;
  std::string loss;        // one of the kWireLoss* names; "" = no loss
  double loss_param = 0.0; // ridge (logistic) or c (huber/biweight)
  WireConstraint constraint = WireConstraint::kNone;
  double constraint_radius = 1.0;
  std::uint64_t prefix = 0;
  std::uint64_t target_sparsity = 0;
  Vector w0;
};

void EncodeWireProblem(WireWriter& w, const WireProblem& problem);
Status DecodeWireProblem(WireReader& r, WireProblem* out);

/// A dataset's two blocks as they go on the wire, last in a WireProblem:
/// the row-major feature storage, then the labels, as raw little-endian
/// doubles. Views into `data`, valid while it lives unchanged.
std::array<std::span<const std::uint8_t>, 2> WireDatasetBlocks(
    const Dataset& data);

/// Owns the Loss/Polytope/Dataset materialized from a WireProblem and the
/// Problem view pointing into them. Heap-pinned (no copies or moves) because
/// the Problem's non-owning pointers alias the members.
class ProblemHolder {
 public:
  /// kInvalidProblem on an unknown loss or constraint name; shape errors are
  /// left to the solver's own validation so the diagnostics match the
  /// in-process path exactly.
  static StatusOr<std::unique_ptr<ProblemHolder>> Materialize(WireProblem wp);

  ProblemHolder(const ProblemHolder&) = delete;
  ProblemHolder& operator=(const ProblemHolder&) = delete;

  const Problem& problem() const { return problem_; }

 private:
  ProblemHolder() = default;

  Dataset data_;
  std::unique_ptr<Loss> loss_;
  std::unique_ptr<Polytope> constraint_;
  Problem problem_;
};

// --- SolverSpec ---------------------------------------------------------

/// Encodes the POD surface of a SolverSpec (budget, accounting backend,
/// schedule and knob fields). The function-valued members (observer,
/// should_stop) and the resolution inputs the solver fills itself
/// (algorithm, target_sparsity, num_vertices) do not travel.
void EncodeSpec(WireWriter& w, const SolverSpec& spec);
Status DecodeSpec(WireReader& r, SolverSpec* out);

// --- FitResult ----------------------------------------------------------

void EncodeFitResult(WireWriter& w, const FitResult& result);
Status DecodeFitResult(WireReader& r, FitResult* out);

// --- Request / reply messages -------------------------------------------

/// SUBMIT payload.
struct SubmitRequest {
  std::string tenant;  // "" = no tenant accounting
  std::string solver;  // SolverRegistry name
  std::string tag;
  std::uint64_t seed = 0;
  double deadline_seconds = 0.0;
  bool stream = false;  // push JOB_STATE + result frames on completion
  SolverSpec spec;
  WireProblem problem;
};
/// Exact payload size of `request`'s SUBMIT. EncodeSubmit reserves it
/// before its first write, so the dataset is encoded into one allocation.
std::size_t EncodedSubmitBytes(const SubmitRequest& request);

/// Every SUBMIT field before the dataset blocks. A SUBMIT payload is this
/// head followed by WireDatasetBlocks(request.problem.data); Client::Submit
/// sends those blocks straight from the request's storage.
void EncodeSubmitHead(WireWriter& w, const SubmitRequest& request);

/// The whole payload in one buffer, and its flat decode. Neither runs on
/// the serve path (Client::Submit gathers, htdpd streams through
/// OpenSubmitSink); they stay as the reference the serve path is tested
/// against, built on the same head encoder and parser.
void EncodeSubmit(WireWriter& w, const SubmitRequest& request);
Status DecodeSubmit(WireReader& r, SubmitRequest* out);

/// A PayloadSinkFactory for the daemon's FrameDecoder: each SUBMIT frame is
/// decoded as its bytes arrive. The head is buffered until it parses; the
/// x and y blocks are then written straight into storage reserved from the
/// declared shape -- touched only as bytes arrive -- which becomes the
/// request's Matrix and labels without a second copy. Other frame types
/// keep their bytes in Frame::payload.
std::unique_ptr<PayloadSink> OpenSubmitSink(FrameType type,
                                            std::size_t length);

/// The request of a complete SUBMIT frame decoded through OpenSubmitSink,
/// or the typed error DecodeSubmit gives for the same payload. Aborts via
/// HTDP_CHECK on any other frame: that is a programming error, not input.
StatusOr<SubmitRequest> TakeSubmit(Frame& frame);

/// SUBMIT_OK payload.
struct SubmitOk {
  std::uint64_t job_id = 0;
};
void EncodeSubmitOk(WireWriter& w, const SubmitOk& msg);
Status DecodeSubmitOk(WireReader& r, SubmitOk* out);

/// POLL payload.
struct PollRequest {
  std::uint64_t job_id = 0;
  bool deliver = false;  // when done-ok, follow up with the result frames
};
void EncodePoll(WireWriter& w, const PollRequest& request);
Status DecodePoll(WireReader& r, PollRequest* out);

/// Job lifecycle state on the wire. Values are wire-stable (1 was reserved
/// for a distinct "running" state the Engine does not currently expose).
enum class WireJobState : std::uint8_t {
  kInFlight = 0,   // queued or running
  kDoneOk = 2,     // finished with a FitResult
  kDoneError = 3,  // finished with the carried typed error
};

/// JOB_STATE payload (reply to POLL/CANCEL; pushed for streamed jobs).
struct JobStateMsg {
  std::uint64_t job_id = 0;
  WireJobState state = WireJobState::kInFlight;
  std::uint16_t wire_code = 0;  // wire_status.h code when kDoneError
  std::string message;
};
void EncodeJobState(WireWriter& w, const JobStateMsg& msg);
Status DecodeJobState(WireReader& r, JobStateMsg* out);

/// CANCEL payload.
struct CancelRequest {
  std::uint64_t job_id = 0;
};
void EncodeCancel(WireWriter& w, const CancelRequest& request);
Status DecodeCancel(WireReader& r, CancelRequest* out);

/// STATS_OK payload: the Engine counters plus per-tenant budget accounting
/// and daemon-level gauges.
struct StatsReply {
  EngineStats engine;
  struct TenantRow {
    std::string name;
    PrivacyBudget total;
    PrivacyBudget spent;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t refunded = 0;
  };
  std::vector<TenantRow> tenants;
  std::uint64_t connections = 0;
  std::uint64_t retained_jobs = 0;
  bool draining = false;
};
void EncodeStats(WireWriter& w, const StatsReply& msg);
Status DecodeStats(WireReader& r, StatsReply* out);

/// SOLVER_LIST payload.
struct SolverListReply {
  struct Row {
    std::string name;
    std::string description;
  };
  std::vector<Row> solvers;
};
void EncodeSolverList(WireWriter& w, const SolverListReply& msg);
Status DecodeSolverList(WireReader& r, SolverListReply* out);

/// RESULT_CHUNK payload: one slice of a serialized FitResult. Chunks for a
/// job arrive in order on a connection; RESULT_END closes the sequence.
struct ResultChunk {
  std::uint64_t job_id = 0;
  std::vector<std::uint8_t> bytes;
};
void EncodeResultChunk(WireWriter& w, const ResultChunk& msg);
Status DecodeResultChunk(WireReader& r, ResultChunk* out);

/// RESULT_END payload.
struct ResultEnd {
  std::uint64_t job_id = 0;
  std::uint64_t total_bytes = 0;  // must equal the concatenated chunk size
};
void EncodeResultEnd(WireWriter& w, const ResultEnd& msg);
Status DecodeResultEnd(WireReader& r, ResultEnd* out);

/// ERROR payload: a typed request failure. job_id is 0 when the error is
/// not about a specific job (e.g. a malformed frame).
struct WireError {
  std::uint16_t wire_code = 0;  // wire_status.h table
  std::uint64_t job_id = 0;
  std::string message;
  /// For UNAVAILABLE rejections: how long the client should back off before
  /// resubmitting, derived from the server's backlog (RetryAfterHintMs).
  /// 0 = no hint. Appended to the payload, so a version-1 peer that
  /// predates it decodes the frame fine and just never sees the hint (the
  /// codec's trailing-bytes rule); this decoder tolerates its absence.
  std::uint32_t retry_after_ms = 0;
};
void EncodeError(WireWriter& w, const WireError& msg);
Status DecodeError(WireReader& r, WireError* out);

/// Export formats a METRICS request can ask for. Wire-stable values.
enum class MetricsFormat : std::uint8_t {
  kJson = 0,        // MetricRegistry::ToJson()
  kPrometheus = 1,  // MetricRegistry::ToPrometheus() text exposition
  kTraceChrome = 2, // Chrome trace-event JSON of the span collector
};

/// METRICS payload: ask the daemon for an observability export. New
/// formats append enum values; new knobs append payload fields under the
/// trailing-bytes rule.
struct MetricsRequest {
  MetricsFormat format = MetricsFormat::kJson;
};
void EncodeMetrics(WireWriter& w, const MetricsRequest& request);
Status DecodeMetrics(WireReader& r, MetricsRequest* out);

/// METRICS_OK payload: the export body, verbatim in the requested format.
struct MetricsReply {
  MetricsFormat format = MetricsFormat::kJson;
  std::string body;
};
void EncodeMetricsReply(WireWriter& w, const MetricsReply& msg);
Status DecodeMetricsReply(WireReader& r, MetricsReply* out);

/// BUDGET_OK payload: the privacy-budget ledger -- per-tenant spend with
/// the two-phase reservation counters, plus the daemon's durability state
/// (journal/snapshot telemetry and what the last recovery replayed). The
/// BUDGET request itself carries no payload, like STATS.
struct BudgetReply {
  struct TenantRow {
    std::string name;
    PrivacyBudget total;
    PrivacyBudget spent;
    PrivacyBudget remaining;
    /// Spend inherited from reserves left dangling by a crash (already
    /// included in `spent`).
    PrivacyBudget recovered;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t refunded = 0;
    std::uint64_t open = 0;
    std::uint64_t recovered_reserves = 0;
  };
  std::vector<TenantRow> tenants;
  /// False when the daemon runs without --state-dir: everything below the
  /// flag is zero and the ledger dies with the process.
  bool durable = false;
  std::string state_dir;
  std::string fsync_policy;  // "always" | "batch" | "off"
  std::uint64_t journal_records = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_lag_records = 0;  // appends not yet fsynced
  std::uint64_t snapshots = 0;
  std::uint64_t open_reservations = 0;
  // What the startup recovery replay saw.
  std::uint64_t recovered_records = 0;
  std::uint64_t recovered_reserves = 0;
  std::uint64_t torn_bytes_discarded = 0;
  double recovery_seconds = 0.0;
};
void EncodeBudgetReply(WireWriter& w, const BudgetReply& msg);
Status DecodeBudgetReply(WireReader& r, BudgetReply* out);

}  // namespace net
}  // namespace htdp

#endif  // HTDP_NET_SERIALIZE_H_
