#ifndef HTDP_NET_CLIENT_H_
#define HTDP_NET_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "api/fit_result.h"
#include "net/codec.h"
#include "net/serialize.h"
#include "net/transport.h"
#include "util/status.h"

namespace htdp {
namespace net {

/// ## net::Client -- the library face of the htdpd protocol
///
/// One Client is one connection. htdpctl's subcommands, the loopback tests
/// and the BM_DaemonRoundTrip bench all drive the daemon through this class,
/// so the wire logic exists in exactly one place on the client side.
///
/// Every remote failure comes back as the same typed Status the in-process
/// API would have produced (wire_status.h reconstructs the code), so calling
/// code branches on status.code() identically for local and remote fits.
///
/// Blocking and single-threaded: one request is in flight at a time. Frames
/// the server pushes for streamed jobs (JOB_STATE / RESULT_CHUNK /
/// RESULT_END) are absorbed whenever the client is reading and replayed by
/// AwaitStreamed, so interleaving streamed submits with polls on one
/// connection works.
///
/// Resilience: transport-level failures (connection refused mid-dial, peer
/// reset, server closed mid-conversation) surface as kUnavailable -- the
/// retryable class -- and mark the connection broken;
/// SubmitAndWaitWithRetry reconnects and resubmits under a RetryPolicy.
/// Retrying a fit is safe by construction: fits are bit-deterministic at a
/// fixed seed, so a resubmission returns the identical result.

/// Deterministic client backoff schedule. All knobs are plain data so the
/// chaos tests, htdpctl --retry and the bench share one policy shape.
struct RetryPolicy {
  /// Total attempts (first try included); <= 0 = unlimited (bounded only
  /// by deadline_seconds).
  int max_attempts = 8;
  double initial_backoff_ms = 25.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 2000.0;
  /// Wall-clock cap over ALL attempts and waits; 0 = none.
  double deadline_seconds = 0.0;
  /// Seeds the deterministic jitter stream (net/fault.h FaultRng), so a
  /// retry schedule replays exactly under test.
  std::uint64_t jitter_seed = 0;
};

/// Attempt `attempt`'s wait (attempt 0 = wait before the first retry) in
/// milliseconds: exponential base capped at max_backoff_ms, raised to the
/// server's retry_after_ms hint when that is larger, then jittered to
/// [50%, 100%] by the deterministic stream. Pure given the rng state.
double RetryBackoffMs(const RetryPolicy& policy, int attempt,
                      std::uint32_t server_hint_ms, FaultRng& jitter);

class Client {
 public:
  /// Dials host:port. The returned client owns the connection.
  static StatusOr<std::unique_ptr<Client>> Connect(
      const std::string& host, std::uint16_t port,
      std::size_t max_payload = kDefaultMaxPayloadBytes);

  /// Produces the connection's ByteStream -- called once per (re)connect.
  /// The chaos harness hands in a factory that wraps the socket in a
  /// FaultInjectingStream.
  using StreamFactory =
      std::function<StatusOr<std::unique_ptr<ByteStream>>()>;

  /// Connects through `factory`; Reconnect() calls it again.
  static StatusOr<std::unique_ptr<Client>> ConnectWith(
      StreamFactory factory,
      std::size_t max_payload = kDefaultMaxPayloadBytes);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// SUBMIT -> job id, or the typed rejection (kBudgetExhausted for an
  /// over-budget tenant, kUnknownSolver, kInvalidProblem, ...). A request
  /// whose payload would exceed this client's max_payload is refused with
  /// kInvalidProblem before any byte is sent. The dataset is sent straight
  /// from request.problem.data; no copy of it is made.
  StatusOr<std::uint64_t> Submit(const SubmitRequest& request);

  /// POLL -> the job's state. With deliver=true a done-ok job's result
  /// frames follow the reply and are retained for FetchResult/WaitResult.
  StatusOr<JobStateMsg> Poll(std::uint64_t job_id, bool deliver);

  /// Polls until the job completes, then returns its FitResult (done-ok) or
  /// the carried typed error (done-error, e.g. kCancelled).
  StatusOr<FitResult> WaitResult(std::uint64_t job_id);

  /// For a job submitted with stream=true: blocks on the pushed frames
  /// (no polling) and returns the result or carried error.
  StatusOr<FitResult> AwaitStreamed(std::uint64_t job_id);

  /// CANCEL -> the job's resulting state (kDoneError/kCancelled if the
  /// cancel landed; done-ok if the job had already finished).
  StatusOr<JobStateMsg> Cancel(std::uint64_t job_id);

  StatusOr<StatsReply> Stats();
  StatusOr<SolverListReply> ListSolvers();

  /// BUDGET -> the privacy-budget ledger: per-tenant spend with two-phase
  /// reservation counters plus the daemon's durability/recovery state.
  StatusOr<BudgetReply> Budget();

  /// METRICS -> an observability export in the requested format: the
  /// metrics registry as JSON or Prometheus text, or the span collector's
  /// Chrome-trace JSON (kTraceChrome).
  StatusOr<MetricsReply> Metrics(MetricsFormat format);

  /// Submit + wait (streamed or polled per request.stream), retrying
  /// kUnavailable outcomes -- overload shedding AND transport failures --
  /// under `policy`: exponential backoff with deterministic jitter,
  /// honoring the server's retry_after_ms hint, reconnecting when the
  /// connection broke. Non-retryable errors return immediately.
  StatusOr<FitResult> SubmitAndWaitWithRetry(const SubmitRequest& request,
                                             const RetryPolicy& policy);

  /// Tears down the current stream and dials a fresh one via the factory,
  /// resetting all per-connection protocol state. The job-id namespace is
  /// per-daemon, not per-connection, so ids from before survive a
  /// reconnect (but parked deliver-polls do not -- re-poll after).
  Status Reconnect();

  /// True after a transport failure; the next SubmitAndWaitWithRetry
  /// attempt reconnects first. Requests on a broken client fail fast with
  /// kUnavailable.
  bool connection_broken() const { return broken_; }

  /// The retry_after_ms hint of the most recent ERROR frame (0 = none).
  std::uint32_t last_retry_after_ms() const { return last_retry_after_ms_; }

  /// Retries SubmitAndWaitWithRetry performed over this client's lifetime
  /// (attempts beyond each first try). The bench reports this.
  std::size_t retries_used() const { return retries_used_; }

  /// Job id of the most recent successful SUBMIT (0 = none yet). After a
  /// SubmitAndWaitWithRetry this is the id of the attempt that completed.
  std::uint64_t last_job_id() const { return last_job_id_; }

 private:
  Client(std::unique_ptr<ByteStream> stream, StreamFactory factory,
         std::size_t max_payload)
      : stream_(std::move(stream)),
        factory_(std::move(factory)),
        max_payload_(max_payload),
        decoder_(max_payload) {}

  /// Finishes `frame` and writes it, followed by the `trailing` payload
  /// bytes it does not hold, to the stream in one gather write.
  Status SendFrame(FrameWriter frame,
                   std::span<const ByteSpan> trailing = {});
  /// Blocks for the next frame (pushes included).
  StatusOr<Frame> ReadFrame();
  /// Blocks for the reply to the outstanding request, absorbing pushed
  /// frames. `expect_job` disambiguates a JOB_STATE reply from a pushed
  /// JOB_STATE of some other streamed job (0 = no job-scoped reply).
  StatusOr<Frame> ReadReply(std::uint64_t expect_job);
  /// One request/reply exchange: sends `request` and reads its reply.
  /// Returns the reply frame when its type is `want`, the typed Status an
  /// ERROR reply carries, or kInvalidProblem for any other frame type.
  StatusOr<Frame> Unary(FrameWriter request, FrameType want,
                        std::uint64_t expect_job = 0);
  /// Files a pushed frame into the assembly/completion maps. Returns the
  /// decode error for a malformed push.
  Status AbsorbPush(const Frame& frame);
  /// Reads frames until job_id's result bytes are complete, then decodes.
  StatusOr<FitResult> CollectResult(std::uint64_t job_id);
  /// Decodes an ERROR frame, recording its retry_after_ms hint, and
  /// returns the typed Status it carries.
  Status ErrorFromFrame(const Frame& frame);
  /// Marks the connection broken and wraps a transport error as
  /// kUnavailable (retryable: the daemon is fine, the wire is not).
  Status MarkBroken(Status transport_error);

  std::unique_ptr<ByteStream> stream_;
  StreamFactory factory_;  // Connect() installs a re-dialing factory
  std::size_t max_payload_;
  FrameDecoder decoder_;
  bool broken_ = false;
  std::uint32_t last_retry_after_ms_ = 0;
  std::size_t retries_used_ = 0;
  std::uint64_t last_job_id_ = 0;
  std::set<std::uint64_t> streamed_;  // jobs submitted with stream=true
  std::map<std::uint64_t, std::vector<std::uint8_t>> assembling_;
  std::map<std::uint64_t, std::vector<std::uint8_t>> finished_;
  std::map<std::uint64_t, JobStateMsg> pushed_states_;
};

}  // namespace net
}  // namespace htdp

#endif  // HTDP_NET_CLIENT_H_
