#ifndef HTDP_NET_TRANSPORT_H_
#define HTDP_NET_TRANSPORT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/fault.h"
#include "util/status.h"

namespace htdp {
namespace net {

/// ## Portable socket transport for htdpd
///
/// Thin POSIX layer under the daemon and the client: RAII file descriptors,
/// IPv4 listen/dial helpers, and a single-threaded poll(2) event loop with
/// per-connection write buffering, idle timeouts and an async-signal-safe
/// wake pipe. Nothing here knows about frames or the Engine -- bytes in,
/// bytes out -- which keeps the protocol logic (daemon/server.cc) testable
/// against loopback sockets and the codec testable with no sockets at all.

/// RAII owner of a file descriptor. Moveable, not copyable.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.Release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Reset();  // closes if valid

 private:
  int fd_ = -1;
};

/// Binds and listens on host:port (IPv4 dotted-quad or "localhost";
/// port 0 = kernel-assigned ephemeral port, read back with LocalPort).
/// SO_REUSEADDR is set so restarts do not trip over TIME_WAIT.
StatusOr<UniqueFd> ListenTcp(const std::string& host, std::uint16_t port);

/// Connects to host:port (blocking connect; the caller owns any deadline).
StatusOr<UniqueFd> DialTcp(const std::string& host, std::uint16_t port);

/// The locally-bound port of a socket -- how tests and the smoke script
/// discover the ephemeral port of an htdpd started with --port=0.
StatusOr<std::uint16_t> LocalPort(int fd);

Status SetNonBlocking(int fd);

/// A read-only run of bytes to send.
using ByteSpan = std::span<const std::uint8_t>;

/// Blocking gather write (client side): sends `parts` back to back, as one
/// byte stream, through sendmsg(2) until every byte is out. Meant for a
/// short list (a frame head plus the buffers it points at). Returns a typed
/// error on a broken connection; never raises SIGPIPE.
Status SendAll(int fd, std::span<const ByteSpan> parts);

/// One blocking read. Returns the byte count, 0 on orderly peer shutdown,
/// or a typed error. EINTR is retried internally.
StatusOr<std::size_t> RecvSome(int fd, std::uint8_t* out, std::size_t n);

/// One-shot, process-wide SIGPIPE ignore (writes to dead sockets must
/// surface as EPIPE Statuses, not kill the daemon).
void IgnoreSigpipeOnce();

/// Blocking byte-stream interface the client side of the protocol runs on.
/// The production implementation is a socket (SocketStream); the chaos
/// harness wraps one in a FaultInjectingStream (net/fault.h) so every
/// client-side wire fault flows through the exact code paths a flaky
/// network would hit.
class ByteStream {
 public:
  virtual ~ByteStream() = default;

  /// Writes every byte of `parts`, in order, as one contiguous stream --
  /// so a frame can go out from several buffers without being copied into
  /// one -- or returns a typed error.
  virtual Status Send(std::span<const ByteSpan> parts) = 0;

  /// One blocking read: the byte count, 0 on orderly peer shutdown, or a
  /// typed error.
  virtual StatusOr<std::size_t> Recv(std::uint8_t* out, std::size_t n) = 0;

  virtual void Close() = 0;
};

/// The real thing: a connected TCP socket via SendAll/RecvSome.
class SocketStream : public ByteStream {
 public:
  explicit SocketStream(UniqueFd fd) : fd_(std::move(fd)) {}

  Status Send(std::span<const ByteSpan> parts) override {
    return SendAll(fd_.get(), parts);
  }
  StatusOr<std::size_t> Recv(std::uint8_t* out, std::size_t n) override {
    return RecvSome(fd_.get(), out, n);
  }
  void Close() override { fd_.Reset(); }

 private:
  UniqueFd fd_;
};

/// Dials host:port and wraps the socket in a stream.
StatusOr<std::unique_ptr<ByteStream>> DialStream(const std::string& host,
                                                 std::uint16_t port);

/// ByteStream decorator that perturbs traffic according to a FaultPlan.
/// Deterministic: all decisions come from the plan's seeded stream. A
/// kDrop or kTruncate closes the underlying stream, after which every
/// operation fails with kUnavailable -- exactly what the retry loop sees
/// from a real half-open connection. One decision covers a whole Send, and
/// kTruncate/kPartial cut the concatenated parts at half their total, so a
/// frame sent from several buffers is faulted exactly like one sent flat.
class FaultInjectingStream : public ByteStream {
 public:
  FaultInjectingStream(std::unique_ptr<ByteStream> inner, FaultPlan plan)
      : inner_(std::move(inner)), plan_(plan), rng_(plan.seed) {}

  Status Send(std::span<const ByteSpan> parts) override;
  StatusOr<std::size_t> Recv(std::uint8_t* out, std::size_t n) override;
  void Close() override { inner_->Close(); }

  const FaultCounters& counters() const { return counters_; }

 private:
  std::unique_ptr<ByteStream> inner_;
  FaultPlan plan_;
  FaultRng rng_;
  FaultCounters counters_;
  bool severed_ = false;  // a drop/truncate fault already cut the stream
};

/// Single-threaded poll(2) event loop.
///
/// Threading contract: every method except Wake() must be called on the
/// loop thread (i.e. from inside a callback, or before/after Run()).
/// Wake() is callable from any thread AND from signal handlers -- it only
/// write(2)s one byte to a pipe -- and schedules on_wake on the loop thread.
class EventLoop {
 public:
  struct Callbacks {
    /// A new connection was accepted (already non-blocking and registered).
    std::function<void(int fd)> on_accept;
    /// Bytes arrived on a connection.
    std::function<void(int fd, const std::uint8_t* data, std::size_t n)>
        on_data;
    /// A connection was removed (peer closed, error, idle timeout, or an
    /// explicit Close). The fd is already closed; use it only as a key.
    std::function<void(int fd, const Status& reason)> on_close;
    /// Wake() was called (runs once per drain, on the loop thread).
    std::function<void()> on_wake;
  };

  struct Options {
    /// Idle connections are closed after this long; <= 0 disables.
    double idle_timeout_seconds = 0.0;

    /// A connection whose un-flushed write backlog exceeds this many bytes
    /// is disconnected -- the slow-client guard that keeps one stalled
    /// reader from growing the daemon's memory without bound. 0 = no cap.
    /// The close is DEFERRED to the end of the loop iteration so Send()
    /// stays safe to call mid-iteration (no re-entrant on_close).
    std::size_t max_write_buffer_bytes = 0;

    /// Server-side wire-fault injection (the HTDP_FAULT_PLAN knob).
    /// Unset = no faults.
    std::optional<FaultPlan> fault;
  };

  EventLoop(Callbacks callbacks, Options options);

  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the wake pipe. Must be called (and checked) before Run().
  Status Init();

  /// Hands the listening socket to the loop (made non-blocking here).
  void SetListener(UniqueFd listener);

  /// Stops accepting: the listener is closed; existing connections live on.
  void StopAccepting();
  bool accepting() const { return listener_.valid(); }

  /// Registers an externally-created connection (tests use this).
  void AddConnection(UniqueFd fd);

  /// Queues bytes on the connection's write buffer (drained as POLLOUT
  /// fires). No-op for an unknown fd (it may have just closed).
  void Send(int fd, const std::uint8_t* data, std::size_t n);

  /// Closes after the write buffer drains -- the "send ERROR, then hang up"
  /// path. No more on_data will be delivered for this fd.
  void CloseAfterFlush(int fd, Status reason);

  /// Immediate close (buffered writes are dropped).
  void Close(int fd, Status reason);

  /// Exempts a connection from the idle sweep while it has server-side work
  /// in flight (e.g. awaiting a streamed fit). Nestable: each MarkBusy(true)
  /// must be matched by a MarkBusy(false).
  void MarkBusy(int fd, bool busy);

  /// Arms a read deadline: unless more bytes arrive (or the deadline is
  /// re-armed / disarmed with seconds <= 0) within `seconds`, the
  /// connection is closed with kDeadlineExceeded. Unlike the idle sweep
  /// this fires even on busy connections -- it is how the daemon reaps a
  /// peer that went half-open MID-FRAME, which looks active to the idle
  /// heuristic (recent bytes) but will never complete its frame.
  void SetReadDeadline(int fd, double seconds);

  /// Runs until Stop(). Returns the first fatal poll error, else Ok.
  Status Run();

  /// Ends Run() after the current iteration (loop thread).
  void Stop();

  /// Async-signal-safe: schedules on_wake on the loop thread.
  void Wake();

  std::size_t connection_count() const { return connections_.size(); }

  /// True when every connection's write buffer is empty.
  bool AllFlushed() const;

  /// Faults injected so far (zeros when Options::fault is unset).
  const FaultCounters& fault_counters() const { return fault_counters_; }

 private:
  struct Connection {
    UniqueFd fd;
    std::vector<std::uint8_t> outbox;
    std::size_t outbox_offset = 0;
    int busy = 0;
    bool closing = false;  // close once the outbox drains
    bool doomed = false;   // queued on pending_close_; skip further work
    Status close_reason = Status::Ok();
    std::chrono::steady_clock::time_point last_activity;
    /// Armed read deadline (SetReadDeadline); unset = none.
    std::optional<std::chrono::steady_clock::time_point> read_deadline;
    /// Fault-injection write gate: no flushing before this instant.
    std::optional<std::chrono::steady_clock::time_point> write_gate;
    bool fault_drawn = false;  // one decision per outbox generation
    std::size_t flush_limit = 0;   // this flush may not pass this offset
    bool close_at_limit = false;   // truncate fault: close when it is hit
  };

  void AcceptPending();
  /// Returns false when the connection was removed.
  bool HandleReadable(Connection& conn);
  bool HandleWritable(Connection& conn);
  void Remove(int fd, const Status& reason);
  void SweepIdle();
  int PollTimeoutMs() const;
  /// Schedules a close at the iteration boundary (safe mid-iteration).
  void DeferClose(Connection& conn, Status reason);
  void FlushPendingCloses();
  /// Applies the per-batch fault decision; returns false when the
  /// connection was removed (dropped).
  bool ApplyWriteFault(Connection& conn);

  Callbacks callbacks_;
  Options options_;
  UniqueFd listener_;
  UniqueFd wake_read_;
  UniqueFd wake_write_;
  std::map<int, Connection> connections_;
  std::vector<std::pair<int, Status>> pending_close_;
  std::optional<FaultRng> fault_rng_;
  FaultCounters fault_counters_;
  bool running_ = false;
};

}  // namespace net
}  // namespace htdp

#endif  // HTDP_NET_TRANSPORT_H_
