#ifndef HTDP_DAEMON_SERVER_H_
#define HTDP_DAEMON_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "api/budget_manager.h"
#include "api/engine.h"
#include "dp/privacy.h"
#include "net/codec.h"
#include "net/serialize.h"
#include "net/transport.h"
#include "util/status.h"

namespace htdp {
namespace daemon {

/// ## The htdpd server: the Engine behind a socket
///
/// One Server is one listening socket, one Engine, and one poll(2) loop
/// thread that owns every connection and every job record. Engine workers
/// never touch sockets: each submitted job's FitJob::on_done queues its id
/// and wakes the loop through the EventLoop's signal-safe pipe, so frame
/// writing happens on exactly one thread, no thread exists per job, and the
/// determinism contract is untouched -- a remote fit returns the same bits
/// as an in-process TryFit at the same seed.
///
/// Tenant budgets are enforced AT THE SOCKET: the Engine completes an
/// over-budget submission inline (api/engine.h), and the server translates
/// that into a protocol-level ERROR frame carrying the
/// BUDGET_EXHAUSTED wire code before the job ever reaches a worker.

/// One named tenant funded at daemon start (--tenant NAME=EPS[,DELTA]).
struct TenantConfig {
  std::string name;
  PrivacyBudget budget;
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = kernel-assigned; read back with port()
  int engine_workers = 0;  // 0 = NumWorkerThreads()
  /// Idle connections are closed after this long; <= 0 disables. Parked
  /// waits (deliver-polls and streamed jobs) are exempt while in flight.
  double idle_timeout_seconds = 300.0;
  std::size_t max_payload_bytes = net::kDefaultMaxPayloadBytes;
  std::vector<TenantConfig> tenants;
  /// Completed jobs kept around for late POLLs; the oldest are evicted
  /// beyond this many.
  std::size_t max_retained_jobs = 256;

  // --- Overload protection (docs/protocol.md "Overload and retry") ------

  /// Engine queue high watermark: submits beyond this many queued jobs are
  /// rejected with UNAVAILABLE + retry_after_ms. 0 = unbounded.
  std::size_t max_queue_depth = 0;
  /// Low watermark the queue must drain to before admission resumes;
  /// 0 (with a cap set) = max_queue_depth / 2.
  std::size_t queue_resume_depth = 0;
  /// Per-tenant inflight cap (queued + running); 0 = unlimited.
  std::size_t max_inflight_per_tenant = 0;
  /// Open-connection cap; further accepts get UNAVAILABLE + close.
  /// 0 = unlimited.
  std::size_t max_connections = 0;
  /// Per-connection un-flushed reply backlog that marks a client too slow
  /// to serve (it is disconnected). 0 = derive 2 * max_payload_bytes,
  /// which always fits one full result stream plus protocol chatter.
  std::size_t max_write_buffer_bytes = 0;
  /// A connection that stalls MID-FRAME (bytes of a partial frame buffered,
  /// nothing more arriving) is closed after this long. Catches half-open
  /// peers the idle sweep cannot see. <= 0 disables.
  double read_deadline_seconds = 10.0;
  /// Server-side wire-fault injection (chaos harness; the HTDP_FAULT_PLAN
  /// env knob in htdpd). Unset = no faults.
  std::optional<net::FaultPlan> fault;

  // --- Durable budget ledger (docs/durability.md) -----------------------

  /// Directory for the budget journal (--state-dir). Empty =
  /// in-memory accounting only, exactly as before the ledger existed.
  std::string state_dir;
  /// Journal fsync policy (--fsync=always|batch|off); only meaningful with
  /// a state_dir.
  dp::FsyncPolicy fsync = dp::FsyncPolicy::kAlways;
};

/// What the process should do about a delivery of SIGINT/SIGTERM.
enum class SignalAction {
  kDrain,     // first signal: stop accepting, drain, flush, exit 0
  kHardExit,  // repeated signal: the operator wants OUT -- _Exit now
};

class Server {
 public:
  /// Binds the listener (errors surface here, e.g. a taken port) and
  /// registers the tenants. The daemon is not serving until Run().
  static StatusOr<std::unique_ptr<Server>> Create(ServerOptions options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the ephemeral one when options.port was 0).
  std::uint16_t port() const { return port_; }

  /// Serves until a drain completes. Blocks the calling thread (which
  /// becomes the loop thread).
  Status Run();

  /// Async-signal-safe signal bookkeeping: call from the SIGINT/SIGTERM
  /// handler. First call schedules a graceful drain and returns kDrain;
  /// every later call returns kHardExit (the handler should _Exit).
  /// Also unit-testable without raising any signal.
  SignalAction OnSignal();

  /// Thread-safe programmatic equivalent of the first signal (tests).
  void RequestDrain();

 private:
  struct Connection {
    /// SUBMIT frames stream into net::OpenSubmitSink's assembler, so a
    /// dataset lands in the job's own Matrix as it arrives.
    net::FrameDecoder decoder;
    explicit Connection(std::size_t max_payload)
        : decoder(max_payload, net::OpenSubmitSink) {}
  };

  struct Job {
    JobHandle handle;
    /// Owns the materialized dataset/loss/constraint for the job's
    /// lifetime (the Engine copies the Problem but not the data).
    std::unique_ptr<net::ProblemHolder> holder;
    bool completed = false;
    /// fds awaiting completion: deliver-POLLs, and a streamed job's
    /// submitting connection.
    std::vector<int> parked;
  };

  explicit Server(ServerOptions options);

  // Loop-thread handlers.
  void OnAccept(int fd);
  void OnData(int fd, const std::uint8_t* data, std::size_t n);
  void OnConnClosed(int fd, const Status& reason);
  void OnWake();
  void HandleFrame(int fd, net::Frame& frame);
  void HandleSubmit(int fd, StatusOr<net::SubmitRequest> decoded);
  void HandlePoll(int fd, const net::Frame& frame);
  void HandleCancel(int fd, const net::Frame& frame);
  void HandleStats(int fd);
  void HandleListSolvers(int fd);
  void HandleMetrics(int fd, const net::Frame& frame);
  void HandleBudget(int fd);

  /// Completion processing: sends the JOB_STATE (+ result frames) to every
  /// parked connection, then applies retention.
  void FinishJob(std::uint64_t id);
  void SendFrame(int fd, net::FrameWriter frame);
  void SendError(int fd, const Status& status, std::uint64_t job_id);
  void SendJobState(int fd, std::uint64_t id, const Job& job);
  void SendResultFrames(int fd, std::uint64_t id, const Job& job);
  void BeginDrain();
  void MaybeFinishDrain();

  ServerOptions options_;
  std::uint16_t port_ = 0;
  net::UniqueFd listener_;

  /// Durable ledger storage; null without options_.state_dir. Declared
  /// before budgets_ so the journal outlives the manager writing to it.
  std::unique_ptr<dp::BudgetStore> store_;
  BudgetManager budgets_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<net::EventLoop> loop_;

  // Loop-thread state.
  std::map<int, Connection> conns_;
  std::map<std::uint64_t, Job> jobs_;
  std::deque<std::uint64_t> retained_order_;  // completed ids, oldest first
  std::uint64_t next_job_id_ = 1;
  std::size_t inflight_ = 0;  // submitted, completion not yet processed
  bool draining_ = false;

  // Cross-thread completion queue (FitJob::on_done -> loop thread).
  std::mutex completed_mu_;
  std::vector<std::uint64_t> completed_;

  std::atomic<int> signal_count_{0};
  std::atomic<bool> drain_requested_{false};
};

/// Parses "NAME=EPS" or "NAME=EPS,DELTA" (the --tenant flag).
StatusOr<TenantConfig> ParseTenantFlag(const std::string& value);

// --- Command-line flags shared by htdpd and htdpctl ------------------------

/// True when `arg` is "NAME=VALUE" for this `name`; VALUE goes to *out.
bool FlagValue(const char* arg, const char* name, std::string* out);

/// The whole of `value` must be a decimal integer in [0, max]: no sign, no
/// whitespace, no trailing bytes. Errors are kInvalidProblem naming `flag`.
Status ParseUintFlag(const std::string& flag, const std::string& value,
                     std::uint64_t max, std::uint64_t* out);

/// The whole of `value` must parse as a finite double.
Status ParseDoubleFlag(const std::string& flag, const std::string& value,
                       double* out);

/// A size given in MB, stored in bytes; values whose byte count would not
/// fit a size_t are rejected rather than wrapped.
Status ParseMegabytesFlag(const std::string& flag, const std::string& value,
                          std::size_t* out);

/// Strict numeric flag into `*out`: a double via ParseDoubleFlag, an
/// integer via ParseUintFlag bounded by T's range (so a uint16_t port
/// rejects 70000 instead of wrapping). *out is untouched on error.
template <typename T>
Status ParseFlag(const std::string& flag, const std::string& value, T* out) {
  if constexpr (std::is_floating_point_v<T>) {
    return ParseDoubleFlag(flag, value, out);
  } else {
    std::uint64_t parsed = 0;
    HTDP_RETURN_IF_ERROR(ParseUintFlag(
        flag, value,
        static_cast<std::uint64_t>(std::numeric_limits<T>::max()), &parsed));
    *out = static_cast<T>(parsed);
    return Status::Ok();
  }
}

}  // namespace daemon
}  // namespace htdp

#endif  // HTDP_DAEMON_SERVER_H_
