#include "net/transport.h"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/clock.h"
#include "obs/metrics.h"

namespace htdp {
namespace net {
namespace {

constexpr std::size_t kReadChunkBytes = 64 * 1024;

Status Errno(const char* op) {
  return Status::InvalidProblem(std::string(op) + ": " +
                                std::strerror(errno));
}

/// "localhost" convenience alias aside, hosts are IPv4 dotted-quad: the
/// daemon is a loopback/LAN control surface, not a public endpoint.
StatusOr<in_addr> ParseHost(const std::string& host) {
  std::string spelled = host.empty() || host == "localhost"
                            ? std::string("127.0.0.1")
                            : host;
  in_addr addr{};
  if (inet_pton(AF_INET, spelled.c_str(), &addr) != 1) {
    return Status::InvalidProblem("unparseable IPv4 host \"" + host + "\"");
  }
  return addr;
}

// Bytes [begin, end) of the concatenation of `parts`, as spans into them.
std::vector<ByteSpan> SliceSpans(std::span<const ByteSpan> parts,
                                 std::size_t begin, std::size_t end) {
  std::vector<ByteSpan> slice;
  std::size_t at = 0;  // offset of `part` in the concatenation
  for (ByteSpan part : parts) {
    const std::size_t lo = std::max(begin, at);
    const std::size_t hi = std::min(end, at + part.size());
    if (lo < hi) slice.push_back(part.subspan(lo - at, hi - lo));
    at += part.size();
  }
  return slice;
}

}  // namespace

void UniqueFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<UniqueFd> ListenTcp(const std::string& host, std::uint16_t port) {
  StatusOr<in_addr> addr = ParseHost(host);
  HTDP_RETURN_IF_ERROR(addr.status());

  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");

  int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr = *addr;
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    return Errno("bind");
  }
  if (::listen(fd.get(), 64) != 0) return Errno("listen");
  return fd;
}

StatusOr<UniqueFd> DialTcp(const std::string& host, std::uint16_t port) {
  StatusOr<in_addr> addr = ParseHost(host);
  HTDP_RETURN_IF_ERROR(addr.status());

  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");

  int one = 1;
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr = *addr;
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) return Errno("connect");
  return fd;
}

StatusOr<std::uint16_t> LocalPort(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    return Errno("getsockname");
  }
  return static_cast<std::uint16_t>(ntohs(sa.sin_port));
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Errno("fcntl(F_SETFL)");
  }
  return Status::Ok();
}

Status SendAll(int fd, std::span<const ByteSpan> parts) {
  std::vector<iovec> iov;
  iov.reserve(parts.size());
  for (ByteSpan part : parts) {
    if (part.empty()) continue;
    iov.push_back(iovec{const_cast<std::uint8_t*>(part.data()), part.size()});
  }
  std::size_t next = 0;  // first iovec with bytes still to send
  while (next < iov.size()) {
    msghdr msg{};
    msg.msg_iov = iov.data() + next;
    msg.msg_iovlen = iov.size() - next;
    const ssize_t rc = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Errno("sendmsg");
    }
    // A short write: skip the iovecs that went out whole, then advance into
    // the one that went out in part.
    std::size_t sent = static_cast<std::size_t>(rc);
    while (next < iov.size() && sent >= iov[next].iov_len) {
      sent -= iov[next].iov_len;
      ++next;
    }
    if (sent > 0) {
      iovec& rest = iov[next];
      rest.iov_base = static_cast<std::uint8_t*>(rest.iov_base) + sent;
      rest.iov_len -= sent;
    }
  }
  return Status::Ok();
}

StatusOr<std::size_t> RecvSome(int fd, std::uint8_t* out, std::size_t n) {
  while (true) {
    ssize_t rc = ::recv(fd, out, n, 0);
    if (rc >= 0) return static_cast<std::size_t>(rc);
    if (errno == EINTR) continue;
    return Errno("recv");
  }
}

void IgnoreSigpipeOnce() {
  static const bool ignored = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)ignored;
}

StatusOr<std::unique_ptr<ByteStream>> DialStream(const std::string& host,
                                                 std::uint16_t port) {
  StatusOr<UniqueFd> fd = DialTcp(host, port);
  HTDP_RETURN_IF_ERROR(fd.status());
  return std::unique_ptr<ByteStream>(
      std::make_unique<SocketStream>(std::move(fd).value()));
}

// ---------------------------------------------------------------------------
// FaultInjectingStream

Status FaultInjectingStream::Send(std::span<const ByteSpan> parts) {
  if (severed_) {
    return Status::Unavailable("fault injection: connection already severed");
  }
  std::size_t total = 0;
  for (ByteSpan part : parts) total += part.size();
  switch (DrawFault(plan_, rng_)) {
    case FaultAction::kNone:
      return inner_->Send(parts);
    case FaultAction::kDrop:
      ++counters_.drops;
      severed_ = true;
      inner_->Close();
      return Status::Unavailable("fault injection: connection dropped");
    case FaultAction::kTruncate: {
      ++counters_.truncates;
      severed_ = true;
      // Deliver a strict prefix, then cut -- the server sees a mid-frame
      // half-open peer (exactly what its read deadline exists to reap).
      const std::size_t prefix = total > 1 ? total / 2 : 0;
      if (prefix > 0) (void)inner_->Send(SliceSpans(parts, 0, prefix));
      inner_->Close();
      return Status::Unavailable("fault injection: write truncated mid-frame");
    }
    case FaultAction::kPartial: {
      ++counters_.partials;
      // Two separate sends exercise the reassembly path; no data is lost.
      const std::size_t prefix = total > 1 ? total / 2 : total;
      HTDP_RETURN_IF_ERROR(inner_->Send(SliceSpans(parts, 0, prefix)));
      if (prefix < total) {
        return inner_->Send(SliceSpans(parts, prefix, total));
      }
      return Status::Ok();
    }
    case FaultAction::kDelay: {
      ++counters_.delays;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(plan_.delay_ms));
      return inner_->Send(parts);
    }
  }
  return inner_->Send(parts);
}

StatusOr<std::size_t> FaultInjectingStream::Recv(std::uint8_t* out,
                                                std::size_t n) {
  if (severed_) {
    return Status::Unavailable("fault injection: connection already severed");
  }
  switch (DrawFault(plan_, rng_)) {
    case FaultAction::kDrop:
      ++counters_.drops;
      severed_ = true;
      inner_->Close();
      return Status::Unavailable("fault injection: connection dropped");
    case FaultAction::kTruncate:
      // On the read side a truncation IS an early orderly close: the bytes
      // after the cut never arrive.
      ++counters_.truncates;
      severed_ = true;
      inner_->Close();
      return std::size_t{0};
    case FaultAction::kPartial:
      // A short read: hand back at most one byte so the decoder's
      // incremental paths run.
      ++counters_.partials;
      return inner_->Recv(out, n > 0 ? 1 : 0);
    case FaultAction::kDelay: {
      ++counters_.delays;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(plan_.delay_ms));
      return inner_->Recv(out, n);
    }
    case FaultAction::kNone:
      break;
  }
  return inner_->Recv(out, n);
}

// ---------------------------------------------------------------------------
// EventLoop

EventLoop::EventLoop(Callbacks callbacks, Options options)
    : callbacks_(std::move(callbacks)), options_(std::move(options)) {
  if (options_.fault.has_value() && options_.fault->enabled()) {
    fault_rng_.emplace(options_.fault->seed);
  } else {
    options_.fault.reset();
  }
}

EventLoop::~EventLoop() = default;

Status EventLoop::Init() {
  IgnoreSigpipeOnce();
  int fds[2];
  if (::pipe(fds) != 0) return Errno("pipe");
  wake_read_ = UniqueFd(fds[0]);
  wake_write_ = UniqueFd(fds[1]);
  HTDP_RETURN_IF_ERROR(SetNonBlocking(wake_read_.get()));
  HTDP_RETURN_IF_ERROR(SetNonBlocking(wake_write_.get()));
  return Status::Ok();
}

void EventLoop::SetListener(UniqueFd listener) {
  (void)SetNonBlocking(listener.get());
  listener_ = std::move(listener);
}

void EventLoop::StopAccepting() { listener_.Reset(); }

void EventLoop::AddConnection(UniqueFd fd) {
  (void)SetNonBlocking(fd.get());
  int one = 1;
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int key = fd.get();
  Connection conn;
  conn.fd = std::move(fd);
  conn.last_activity = std::chrono::steady_clock::now();
  connections_.emplace(key, std::move(conn));
}

void EventLoop::Send(int fd, const std::uint8_t* data, std::size_t n) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  if (conn.doomed) return;
  conn.outbox.insert(conn.outbox.end(), data, data + n);
  const std::size_t backlog = conn.outbox.size() - conn.outbox_offset;
  if (options_.max_write_buffer_bytes > 0 &&
      backlog > options_.max_write_buffer_bytes) {
    // Slow-client guard: the peer is not draining its socket, so its
    // backlog would otherwise grow without bound. The close is deferred to
    // the iteration boundary, which keeps Send() safe to call from inside
    // any callback (no re-entrant on_close under the caller's feet).
    DeferClose(conn,
               Status::Unavailable(
                   "slow client: " + std::to_string(backlog) +
                   " un-flushed reply bytes exceed the write-buffer cap of " +
                   std::to_string(options_.max_write_buffer_bytes)));
  }
}

void EventLoop::DeferClose(Connection& conn, Status reason) {
  if (conn.doomed) return;
  conn.doomed = true;
  // The backlog will never be sent; release the memory immediately so the
  // cap bounds usage even before the close lands.
  conn.outbox.clear();
  conn.outbox_offset = 0;
  pending_close_.emplace_back(conn.fd.get(), std::move(reason));
}

void EventLoop::FlushPendingCloses() {
  while (!pending_close_.empty()) {
    std::vector<std::pair<int, Status>> batch;
    batch.swap(pending_close_);
    for (auto& [fd, reason] : batch) Remove(fd, reason);
  }
}

void EventLoop::CloseAfterFlush(int fd, Status reason) {
  auto it = connections_.find(fd);
  if (it == connections_.end() || it->second.doomed) return;
  if (it->second.outbox.size() == it->second.outbox_offset) {
    Remove(fd, reason);
    return;
  }
  it->second.closing = true;
  it->second.close_reason = std::move(reason);
}

void EventLoop::Close(int fd, Status reason) { Remove(fd, reason); }

void EventLoop::MarkBusy(int fd, bool busy) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  it->second.busy += busy ? 1 : -1;
  if (it->second.busy < 0) it->second.busy = 0;
  if (!busy) it->second.last_activity = std::chrono::steady_clock::now();
}

void EventLoop::SetReadDeadline(int fd, double seconds) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  if (seconds <= 0) {
    it->second.read_deadline.reset();
    return;
  }
  it->second.read_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
}

void EventLoop::Wake() {
  // write(2) is async-signal-safe; the pipe is non-blocking, so a full pipe
  // (wake already pending) is fine to ignore.
  const std::uint8_t byte = 1;
  [[maybe_unused]] ssize_t rc = ::write(wake_write_.get(), &byte, 1);
}

bool EventLoop::AllFlushed() const {
  for (const auto& [fd, conn] : connections_) {
    if (conn.outbox.size() != conn.outbox_offset) return false;
  }
  return true;
}

void EventLoop::Stop() { running_ = false; }

int EventLoop::PollTimeoutMs() const {
  double ms = 1000.0;
  if (options_.idle_timeout_seconds > 0 && !connections_.empty()) {
    // Wake at least often enough to notice the earliest possible expiry.
    ms = std::min(ms, options_.idle_timeout_seconds * 1000.0 / 2.0);
  }
  // Read deadlines and fault write-gates are short and precise: wake when
  // the earliest one is due.
  const auto now = std::chrono::steady_clock::now();
  for (const auto& [fd, conn] : connections_) {
    if (conn.read_deadline) {
      ms = std::min(ms, std::chrono::duration<double, std::milli>(
                            *conn.read_deadline - now)
                            .count());
    }
    if (conn.write_gate) {
      ms = std::min(ms, std::chrono::duration<double, std::milli>(
                            *conn.write_gate - now)
                            .count());
    }
  }
  return std::clamp(static_cast<int>(ms), 1, 1000);
}

void EventLoop::SweepIdle() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::pair<int, Status>> expired;
  for (const auto& [fd, conn] : connections_) {
    if (conn.doomed) continue;
    // Read deadlines fire regardless of busy/closing: a peer that stalled
    // MID-FRAME looks recently-active to the idle heuristic but will never
    // deliver the rest of its frame.
    if (conn.read_deadline && now >= *conn.read_deadline) {
      expired.emplace_back(
          fd, Status::DeadlineExceeded("read deadline: peer stalled mid-frame"));
      continue;
    }
    if (options_.idle_timeout_seconds <= 0) continue;
    if (conn.busy > 0 || conn.closing) continue;
    const double idle =
        std::chrono::duration<double>(now - conn.last_activity).count();
    if (idle >= options_.idle_timeout_seconds) {
      expired.emplace_back(
          fd, Status::DeadlineExceeded("connection idle timeout"));
    }
  }
  for (auto& [fd, reason] : expired) Remove(fd, reason);
}

void EventLoop::AcceptPending() {
  while (listener_.valid()) {
    int raw = ::accept(listener_.get(), nullptr, nullptr);
    if (raw < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (no more pending) or a transient accept error
    }
    AddConnection(UniqueFd(raw));
    if (callbacks_.on_accept) callbacks_.on_accept(raw);
  }
}

bool EventLoop::HandleReadable(Connection& conn) {
  std::uint8_t buffer[kReadChunkBytes];
  while (true) {
    ssize_t rc = ::recv(conn.fd.get(), buffer, sizeof(buffer), 0);
    if (rc > 0) {
      conn.last_activity = std::chrono::steady_clock::now();
      if (!conn.closing && !conn.doomed && callbacks_.on_data) {
        callbacks_.on_data(conn.fd.get(), buffer,
                           static_cast<std::size_t>(rc));
        // The callback may have closed the connection re-entrantly.
        if (connections_.find(conn.fd.get()) == connections_.end()) {
          return false;
        }
      }
      if (rc < static_cast<ssize_t>(sizeof(buffer))) return true;
      continue;
    }
    if (rc == 0) {
      Remove(conn.fd.get(), Status::Ok());  // orderly peer shutdown
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    Remove(conn.fd.get(), Errno("recv"));
    return false;
  }
}

bool EventLoop::ApplyWriteFault(Connection& conn) {
  if (!fault_rng_ || conn.fault_drawn) return true;
  if (conn.outbox_offset >= conn.outbox.size()) return true;
  conn.fault_drawn = true;
  const std::size_t pending = conn.outbox.size() - conn.outbox_offset;
  switch (DrawFault(*options_.fault, *fault_rng_)) {
    case FaultAction::kNone:
      return true;
    case FaultAction::kDrop:
      ++fault_counters_.drops;
      Remove(conn.fd.get(),
             Status::Unavailable("fault injection: connection dropped"));
      return false;
    case FaultAction::kTruncate: {
      ++fault_counters_.truncates;
      const std::size_t cut = conn.outbox_offset + pending / 2;
      if (cut <= conn.outbox_offset) {
        Remove(conn.fd.get(),
               Status::Unavailable("fault injection: write truncated"));
        return false;
      }
      conn.flush_limit = cut;
      conn.close_at_limit = true;
      return true;
    }
    case FaultAction::kPartial:
      ++fault_counters_.partials;
      conn.flush_limit = conn.outbox_offset + (pending > 1 ? pending / 2 : 1);
      conn.close_at_limit = false;
      return true;
    case FaultAction::kDelay:
      ++fault_counters_.delays;
      conn.write_gate =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(
                  options_.fault->delay_ms));
      return true;
  }
  return true;
}

bool EventLoop::HandleWritable(Connection& conn) {
  if (conn.doomed) return true;
  if (!ApplyWriteFault(conn)) return false;
  if (conn.write_gate) {
    if (std::chrono::steady_clock::now() < *conn.write_gate) return true;
    conn.write_gate.reset();
  }
  while (conn.outbox_offset < conn.outbox.size()) {
    std::size_t want = conn.outbox.size() - conn.outbox_offset;
    if (conn.flush_limit > 0) {
      if (conn.outbox_offset >= conn.flush_limit) break;
      want = std::min(want, conn.flush_limit - conn.outbox_offset);
    }
    ssize_t rc = ::send(conn.fd.get(), conn.outbox.data() + conn.outbox_offset,
                        want, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      Remove(conn.fd.get(), Errno("send"));
      return false;
    }
    conn.outbox_offset += static_cast<std::size_t>(rc);
    conn.last_activity = std::chrono::steady_clock::now();
  }
  if (conn.flush_limit > 0 && conn.outbox_offset >= conn.flush_limit) {
    if (conn.close_at_limit) {
      Remove(conn.fd.get(),
             Status::Unavailable("fault injection: write truncated mid-frame"));
      return false;
    }
    // Partial-write fault: the rest of the batch goes on a later flush.
    conn.flush_limit = 0;
    return true;
  }
  if (conn.outbox_offset == conn.outbox.size()) {
    conn.outbox.clear();
    conn.outbox_offset = 0;
    conn.fault_drawn = false;
    conn.flush_limit = 0;
    if (conn.closing) {
      Remove(conn.fd.get(), conn.close_reason);
      return false;
    }
  }
  return true;
}

void EventLoop::Remove(int fd, const Status& reason) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  connections_.erase(it);  // closes via UniqueFd
  if (callbacks_.on_close) callbacks_.on_close(fd, reason);
}

Status EventLoop::Run() {
  running_ = true;
  // Single-event-loop visibility (ROADMAP "Net state"): how long the loop
  // blocks in poll(2), how long one service pass takes, and how much is
  // buffered toward slow clients -- the numbers that answer whether one
  // loop thread can carry the connection count it is given.
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::Gauge* poll_wait_gauge = registry.GetGauge(
      "htdp_event_loop_poll_seconds", "Duration of the last poll(2) wait");
  obs::Gauge* service_gauge =
      registry.GetGauge("htdp_event_loop_service_seconds",
                        "Duration of the last post-poll service pass");
  obs::Gauge* conn_gauge = registry.GetGauge("htdp_net_connections",
                                             "Open connections on the loop");
  obs::Gauge* buffered_gauge =
      registry.GetGauge("htdp_net_write_buffer_bytes",
                        "Unflushed outbox bytes across all connections");
  obs::Gauge* buffered_max_gauge =
      registry.GetGauge("htdp_net_write_buffer_max_bytes",
                        "Largest single-connection unflushed outbox");
  std::vector<pollfd> pfds;
  std::vector<int> conn_fds;
  while (running_) {
    pfds.clear();
    conn_fds.clear();
    pfds.push_back(pollfd{wake_read_.get(), POLLIN, 0});
    if (listener_.valid()) {
      pfds.push_back(pollfd{listener_.get(), POLLIN, 0});
    }
    const std::size_t first_conn = pfds.size();
    const auto arm_now = std::chrono::steady_clock::now();
    std::size_t buffered_total = 0;
    std::size_t buffered_max = 0;
    for (auto& [fd, conn] : connections_) {
      short events = POLLIN;
      const std::size_t backlog = conn.outbox.size() - conn.outbox_offset;
      buffered_total += backlog;
      buffered_max = std::max(buffered_max, backlog);
      if (backlog > 0 &&
          (!conn.write_gate || arm_now >= *conn.write_gate)) {
        events |= POLLOUT;
      }
      pfds.push_back(pollfd{fd, events, 0});
      conn_fds.push_back(fd);
    }
    conn_gauge->Set(static_cast<double>(connections_.size()));
    buffered_gauge->Set(static_cast<double>(buffered_total));
    buffered_max_gauge->Set(static_cast<double>(buffered_max));

    const std::uint64_t poll_start_ns = obs::NowNanos();
    int ready = ::poll(pfds.data(), pfds.size(), PollTimeoutMs());
    const std::uint64_t poll_end_ns = obs::NowNanos();
    poll_wait_gauge->Set(static_cast<double>(poll_end_ns - poll_start_ns) *
                         1e-9);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }

    // Wake pipe first: drain it, then run the scheduled work.
    if (pfds[0].revents & POLLIN) {
      std::uint8_t sink[64];
      while (::read(wake_read_.get(), sink, sizeof(sink)) > 0) {
      }
      if (callbacks_.on_wake) callbacks_.on_wake();
      if (!running_) break;
    }

    if (listener_.valid() && first_conn == 2 && (pfds[1].revents & POLLIN)) {
      AcceptPending();
    }

    for (std::size_t i = 0; i < conn_fds.size(); ++i) {
      const pollfd& p = pfds[first_conn + i];
      auto it = connections_.find(conn_fds[i]);
      if (it == connections_.end()) continue;  // removed by a callback
      if (it->second.doomed) continue;         // close pending
      if (p.revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Read any final bytes the peer sent before the hangup, then drop.
        if (p.revents & POLLIN) {
          if (!HandleReadable(it->second)) continue;
          it = connections_.find(conn_fds[i]);
          if (it == connections_.end()) continue;
        }
        Remove(conn_fds[i], Status::Ok());
        continue;
      }
      if (p.revents & POLLIN) {
        if (!HandleReadable(it->second)) continue;
        it = connections_.find(conn_fds[i]);
        if (it == connections_.end() || it->second.doomed) continue;
      }
      if ((p.revents & POLLOUT) ||
          it->second.outbox_offset < it->second.outbox.size()) {
        if (!HandleWritable(it->second)) continue;
      }
    }

    FlushPendingCloses();
    SweepIdle();
    service_gauge->Set(static_cast<double>(obs::NowNanos() - poll_end_ns) *
                       1e-9);
  }
  return Status::Ok();
}

}  // namespace net
}  // namespace htdp
