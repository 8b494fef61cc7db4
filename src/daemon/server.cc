#include "daemon/server.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <utility>

#include "api/solver_registry.h"
#include "net/wire_status.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace htdp {
namespace daemon {

StatusOr<TenantConfig> ParseTenantFlag(const std::string& value) {
  const std::size_t eq = value.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidProblem(
        "--tenant wants NAME=EPSILON or NAME=EPSILON,DELTA, got \"" + value +
        "\"");
  }
  TenantConfig config;
  config.name = value.substr(0, eq);
  const std::string budget = value.substr(eq + 1);
  const std::size_t comma = budget.find(',');
  double epsilon = 0.0;
  if (comma == std::string::npos) {
    HTDP_RETURN_IF_ERROR(ParseDoubleFlag("--tenant epsilon", budget, &epsilon));
    config.budget = PrivacyBudget::Pure(epsilon);
    return config;
  }
  double delta = 0.0;
  HTDP_RETURN_IF_ERROR(
      ParseDoubleFlag("--tenant epsilon", budget.substr(0, comma), &epsilon));
  HTDP_RETURN_IF_ERROR(
      ParseDoubleFlag("--tenant delta", budget.substr(comma + 1), &delta));
  config.budget = PrivacyBudget::Approx(epsilon, delta);
  return config;
}

bool FlagValue(const char* arg, const char* name, std::string* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

Status ParseUintFlag(const std::string& flag, const std::string& value,
                     std::uint64_t max, std::uint64_t* out) {
  const char* end = value.data() + value.size();
  std::uint64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || ptr != end || parsed > max) {
    return Status::InvalidProblem(flag + " wants an integer in [0, " +
                                  std::to_string(max) + "], got \"" + value +
                                  "\"");
  }
  *out = parsed;
  return Status::Ok();
}

Status ParseDoubleFlag(const std::string& flag, const std::string& value,
                       double* out) {
  const char* end = value.data() + value.size();
  double parsed = 0.0;
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || ptr != end || !std::isfinite(parsed)) {
    return Status::InvalidProblem(flag + " wants a finite number, got \"" +
                                  value + "\"");
  }
  *out = parsed;
  return Status::Ok();
}

Status ParseMegabytesFlag(const std::string& flag, const std::string& value,
                          std::size_t* out) {
  std::uint64_t mb = 0;
  HTDP_RETURN_IF_ERROR(ParseUintFlag(
      flag, value, std::numeric_limits<std::size_t>::max() >> 20, &mb));
  *out = static_cast<std::size_t>(mb) << 20;
  return Status::Ok();
}

Server::Server(ServerOptions options) : options_(std::move(options)) {}

StatusOr<std::unique_ptr<Server>> Server::Create(ServerOptions options) {
  std::unique_ptr<Server> server(new Server(std::move(options)));

  // The ledger store opens (and recovers) BEFORE tenants register, so the
  // manager adopts any crash-recovered spend and registration re-funds
  // recovered tenants instead of colliding with them.
  if (!server->options_.state_dir.empty()) {
    dp::BudgetStore::Options store_options;
    store_options.dir = server->options_.state_dir;
    store_options.fsync = server->options_.fsync;
    StatusOr<std::unique_ptr<dp::BudgetStore>> store =
        dp::BudgetStore::Open(std::move(store_options));
    HTDP_RETURN_IF_ERROR(store.status());
    server->store_ = std::move(store).value();
    HTDP_RETURN_IF_ERROR(server->budgets_.AttachStore(server->store_.get()));
  }

  for (const TenantConfig& tenant : server->options_.tenants) {
    HTDP_RETURN_IF_ERROR(
        server->budgets_.RegisterTenant(tenant.name, tenant.budget));
  }

  StatusOr<net::UniqueFd> listener =
      net::ListenTcp(server->options_.host, server->options_.port);
  HTDP_RETURN_IF_ERROR(listener.status());
  server->listener_ = std::move(listener).value();
  StatusOr<std::uint16_t> port = net::LocalPort(server->listener_.get());
  HTDP_RETURN_IF_ERROR(port.status());
  server->port_ = port.value();

  Engine::Options engine_options;
  engine_options.workers = server->options_.engine_workers;
  engine_options.budgets = &server->budgets_;
  engine_options.max_queue_depth = server->options_.max_queue_depth;
  engine_options.queue_resume_depth = server->options_.queue_resume_depth;
  engine_options.max_inflight_per_tenant =
      server->options_.max_inflight_per_tenant;
  server->engine_ = std::make_unique<Engine>(engine_options);

  Server* raw = server.get();
  net::EventLoop::Callbacks callbacks;
  callbacks.on_accept = [raw](int fd) { raw->OnAccept(fd); };
  callbacks.on_data = [raw](int fd, const std::uint8_t* data, std::size_t n) {
    raw->OnData(fd, data, n);
  };
  callbacks.on_close = [raw](int fd, const Status& reason) {
    raw->OnConnClosed(fd, reason);
  };
  callbacks.on_wake = [raw] { raw->OnWake(); };
  net::EventLoop::Options loop_options;
  loop_options.idle_timeout_seconds = server->options_.idle_timeout_seconds;
  loop_options.max_write_buffer_bytes =
      server->options_.max_write_buffer_bytes > 0
          ? server->options_.max_write_buffer_bytes
          : 2 * server->options_.max_payload_bytes;
  loop_options.fault = server->options_.fault;
  server->loop_ = std::make_unique<net::EventLoop>(std::move(callbacks),
                                                   std::move(loop_options));
  HTDP_RETURN_IF_ERROR(server->loop_->Init());
  return server;
}

Server::~Server() {
  // Finish every job while all members are alive: a completion runs the
  // job's on_done, which touches completed_mu_ and loop_, and both die
  // before engine_ -- its destructor must find nothing left to complete.
  if (engine_ == nullptr) return;
  for (auto& [id, job] : jobs_) {
    if (!job.completed) job.handle.Cancel();
  }
  engine_->Shutdown();
}

Status Server::Run() {
  loop_->SetListener(std::move(listener_));
  return loop_->Run();
}

SignalAction Server::OnSignal() {
  // Async-signal-safe by construction: an atomic increment plus one
  // write(2) on the wake pipe. No locks, no allocation, no streams.
  const int count = signal_count_.fetch_add(1, std::memory_order_relaxed);
  if (count == 0) {
    drain_requested_.store(true, std::memory_order_release);
    loop_->Wake();
    return SignalAction::kDrain;
  }
  return SignalAction::kHardExit;
}

void Server::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  loop_->Wake();
}

// ---------------------------------------------------------------------------
// Loop-thread handlers

void Server::OnAccept(int fd) {
  if (options_.max_connections > 0 &&
      conns_.size() >= options_.max_connections) {
    const Status status = Status::Unavailable(
        "connection cap reached (" + std::to_string(options_.max_connections) +
        " open connections)");
    SendError(fd, status, 0);
    loop_->CloseAfterFlush(fd, status);
    return;
  }
  conns_.emplace(fd, Connection(options_.max_payload_bytes));
}

void Server::OnData(int fd, const std::uint8_t* data, std::size_t n) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  {
    HTDP_TRACE_SPAN("daemon.frame_decode");
    it->second.decoder.Feed(data, n);
  }
  while (true) {
    std::optional<net::Frame> frame;
    const Status status = it->second.decoder.Next(&frame);
    if (!status.ok()) {
      // Header corruption: a length-prefixed stream cannot re-synchronize,
      // so explain and hang up (best effort -- the peer may be gone).
      SendError(fd, status, 0);
      loop_->CloseAfterFlush(fd, status);
      return;
    }
    if (!frame.has_value()) break;
    HandleFrame(fd, *frame);
    // The handler may have closed the connection (protocol error path).
    it = conns_.find(fd);
    if (it == conns_.end()) return;
  }
  // A partial frame left buffered means the peer owes us bytes: arm the
  // read deadline so a mid-frame stall (half-open peer) is reaped even
  // though the connection looks recently-active to the idle sweep. A
  // clean frame boundary disarms it.
  loop_->SetReadDeadline(fd, it->second.decoder.buffered_bytes() > 0
                                 ? options_.read_deadline_seconds
                                 : 0.0);
}

void Server::OnConnClosed(int fd, const Status& reason) {
  (void)reason;
  conns_.erase(fd);
  for (auto& [id, job] : jobs_) {
    job.parked.erase(std::remove(job.parked.begin(), job.parked.end(), fd),
                     job.parked.end());
  }
  if (draining_) MaybeFinishDrain();
}

void Server::OnWake() {
  if (drain_requested_.exchange(false, std::memory_order_acq_rel)) {
    BeginDrain();
  }
  std::vector<std::uint64_t> done;
  {
    std::lock_guard<std::mutex> lock(completed_mu_);
    done.swap(completed_);
  }
  for (std::uint64_t id : done) FinishJob(id);
  if (draining_) MaybeFinishDrain();
}

void Server::HandleFrame(int fd, net::Frame& frame) {
  HTDP_TRACE_SPAN("daemon.dispatch");
  obs::MetricRegistry::Global()
      .GetCounter("htdp_daemon_frames_received_total",
                  "Request frames received, by frame type",
                  {{"type", net::FrameTypeName(frame.type)}})
      ->Increment();
  switch (frame.type) {
    case net::FrameType::kSubmit:
      HandleSubmit(fd, net::TakeSubmit(frame));
      return;
    case net::FrameType::kPoll:
      HandlePoll(fd, frame);
      return;
    case net::FrameType::kCancel:
      HandleCancel(fd, frame);
      return;
    case net::FrameType::kStats:
      HandleStats(fd);
      return;
    case net::FrameType::kListSolvers:
      HandleListSolvers(fd);
      return;
    case net::FrameType::kMetrics:
      HandleMetrics(fd, frame);
      return;
    case net::FrameType::kBudget:
      HandleBudget(fd);
      return;
    default: {
      // A known frame type that only ever flows server -> client.
      Status status = Status::InvalidProblem(
          std::string("frame type ") + net::FrameTypeName(frame.type) +
          " is not a request");
      SendError(fd, status, 0);
      loop_->CloseAfterFlush(fd, status);
      return;
    }
  }
}

void Server::HandleSubmit(int fd, StatusOr<net::SubmitRequest> decoded) {
  if (!decoded.ok()) {
    SendError(fd, decoded.status(), 0);
    return;
  }
  net::SubmitRequest request = std::move(decoded).value();
  if (draining_) {
    SendError(fd, Status::Cancelled("htdpd is draining; not accepting jobs"),
              0);
    return;
  }

  StatusOr<std::unique_ptr<net::ProblemHolder>> holder =
      net::ProblemHolder::Materialize(std::move(request.problem));
  if (!holder.ok()) {
    SendError(fd, holder.status(), 0);
    return;
  }

  // The id is taken before Submit so on_done can name the job; an inline
  // rejection's id is skipped (FinishJob ignores ids not in jobs_).
  const std::uint64_t id = next_job_id_++;
  FitJob fit;
  fit.solver_name = request.solver;
  fit.problem = holder.value()->problem();
  fit.spec = request.spec;
  fit.seed = request.seed;
  fit.deadline_seconds = request.deadline_seconds;
  fit.tag = request.tag;
  fit.tenant = request.tenant;
  fit.on_done = [this, id] {
    {
      std::lock_guard<std::mutex> lock(completed_mu_);
      completed_.push_back(id);
    }
    loop_->Wake();
  };
  JobHandle handle = engine_->Submit(std::move(fit));

  if (handle.done() && !handle.Wait().ok()) {
    // Inline rejection -- unknown solver, malformed spec, or the acceptance
    // contract's headline case: an over-budget tenant, refused at the
    // socket with the BUDGET_EXHAUSTED wire code before any worker or any
    // data was touched.
    SendError(fd, handle.Wait().status(), 0);
    return;
  }

  Job& job = jobs_[id];
  job.handle = handle;
  job.holder = std::move(holder).value();
  ++inflight_;
  if (request.stream) {
    // A streamed job is a deliver-poll parked at SUBMIT: parked first, so
    // the submitting connection is served first.
    job.parked.push_back(fd);
    loop_->MarkBusy(fd, true);
  }

  net::FrameWriter out(net::FrameType::kSubmitOk);
  EncodeSubmitOk(out.payload(), net::SubmitOk{id});
  SendFrame(fd, std::move(out));
}

void Server::HandlePoll(int fd, const net::Frame& frame) {
  net::WireReader reader(frame.payload);
  net::PollRequest request;
  Status decoded = DecodePoll(reader, &request);
  if (!decoded.ok()) {
    SendError(fd, decoded, 0);
    return;
  }
  auto it = jobs_.find(request.job_id);
  if (it == jobs_.end()) {
    SendError(fd,
              Status::InvalidProblem("unknown job id " +
                                     std::to_string(request.job_id) +
                                     " (evicted or never submitted)"),
              request.job_id);
    return;
  }
  Job& job = it->second;
  if (!job.completed) {
    if (request.deliver) {
      // Parked: the reply is sent by FinishJob, so waiting clients block on
      // the socket instead of spinning poll frames.
      job.parked.push_back(fd);
      loop_->MarkBusy(fd, true);
      return;
    }
    net::FrameWriter out(net::FrameType::kJobState);
    EncodeJobState(out.payload(),
                   net::JobStateMsg{request.job_id,
                                    net::WireJobState::kInFlight, 0,
                                    std::string()});
    SendFrame(fd, std::move(out));
    return;
  }
  SendJobState(fd, request.job_id, job);
  if (request.deliver && job.handle.Wait().ok()) {
    SendResultFrames(fd, request.job_id, job);
  }
}

void Server::HandleCancel(int fd, const net::Frame& frame) {
  net::WireReader reader(frame.payload);
  net::CancelRequest request;
  Status decoded = DecodeCancel(reader, &request);
  if (!decoded.ok()) {
    SendError(fd, decoded, 0);
    return;
  }
  auto it = jobs_.find(request.job_id);
  if (it == jobs_.end()) {
    SendError(fd,
              Status::InvalidProblem("unknown job id " +
                                     std::to_string(request.job_id)),
              request.job_id);
    return;
  }
  Job& job = it->second;
  job.handle.Cancel();
  if (job.completed) {
    SendJobState(fd, request.job_id, job);
    return;
  }
  // Queued jobs are already complete at this point but their completion
  // frame processing is still queued behind the wake; report in-flight and
  // let the caller poll for the terminal state.
  net::FrameWriter out(net::FrameType::kJobState);
  EncodeJobState(out.payload(),
                 net::JobStateMsg{request.job_id, net::WireJobState::kInFlight,
                                  0, "cancel requested"});
  SendFrame(fd, std::move(out));
}

void Server::HandleStats(int fd) {
  net::StatsReply reply;
  reply.engine = engine_->stats();
  // TenantNames(), as in HandleBudget: recovered tenants are listed too.
  for (const std::string& name : budgets_.TenantNames()) {
    StatusOr<BudgetManager::TenantStats> stats = budgets_.Stats(name);
    if (!stats.ok()) continue;
    net::StatsReply::TenantRow row;
    row.name = name;
    row.total = stats.value().total;
    row.spent = stats.value().spent;
    row.admitted = stats.value().admitted;
    row.rejected = stats.value().rejected;
    row.refunded = stats.value().refunded;
    reply.tenants.push_back(std::move(row));
  }
  reply.connections = loop_->connection_count();
  reply.retained_jobs = retained_order_.size();
  reply.draining = draining_;

  net::FrameWriter out(net::FrameType::kStatsOk);
  EncodeStats(out.payload(), reply);
  SendFrame(fd, std::move(out));
}

void Server::HandleListSolvers(int fd) {
  net::SolverListReply reply;
  const SolverRegistry& registry = SolverRegistry::Global();
  for (const std::string& name : registry.Names()) {
    StatusOr<const Solver*> solver = registry.Find(name);
    if (!solver.ok()) continue;
    reply.solvers.push_back({name, solver.value()->description()});
  }
  net::FrameWriter out(net::FrameType::kSolverList);
  EncodeSolverList(out.payload(), reply);
  SendFrame(fd, std::move(out));
}

void Server::HandleMetrics(int fd, const net::Frame& frame) {
  net::WireReader reader(frame.payload);
  net::MetricsRequest request;
  Status decoded = DecodeMetrics(reader, &request);
  if (!decoded.ok()) {
    SendError(fd, decoded, 0);
    return;
  }
  net::MetricsReply reply;
  reply.format = request.format;
  switch (request.format) {
    case net::MetricsFormat::kJson:
      reply.body = obs::MetricRegistry::Global().ToJson();
      break;
    case net::MetricsFormat::kPrometheus:
      reply.body = obs::MetricRegistry::Global().ToPrometheus();
      break;
    case net::MetricsFormat::kTraceChrome:
      // Snapshot, not drain: repeated trace pulls each see the current ring
      // window, and a pull never perturbs concurrent recording.
      reply.body = obs::DumpChromeTrace(engine_->workers());
      break;
  }
  net::FrameWriter out(net::FrameType::kMetricsOk);
  EncodeMetricsReply(out.payload(), reply);
  SendFrame(fd, std::move(out));
}

void Server::HandleBudget(int fd) {
  net::BudgetReply reply;
  // TenantNames() (not options_.tenants) so tenants known only from
  // recovery -- spend journaled by a previous life of the daemon under a
  // tenant this invocation was not configured with -- still show up.
  for (const std::string& name : budgets_.TenantNames()) {
    StatusOr<BudgetManager::TenantStats> stats = budgets_.Stats(name);
    if (!stats.ok()) continue;
    net::BudgetReply::TenantRow row;
    row.name = name;
    row.total = stats.value().total;
    row.spent = stats.value().spent;
    StatusOr<PrivacyBudget> remaining = budgets_.Remaining(name);
    if (remaining.ok()) row.remaining = remaining.value();
    row.recovered = stats.value().recovered;
    row.admitted = stats.value().admitted;
    row.rejected = stats.value().rejected;
    row.refunded = stats.value().refunded;
    row.open = stats.value().open;
    row.recovered_reserves = stats.value().recovered_reserves;
    reply.tenants.push_back(std::move(row));
  }
  reply.open_reservations = budgets_.OpenReservations();
  if (store_ != nullptr) {
    reply.durable = true;
    reply.state_dir = store_->dir();
    reply.fsync_policy = dp::FsyncPolicyName(store_->fsync_policy());
    reply.journal_records = store_->journal_records();
    reply.journal_bytes = store_->journal_bytes();
    reply.journal_lag_records = store_->lag_records();
    reply.snapshots = store_->snapshots_written();
    const dp::RecoveryStats& recovered = store_->recovery();
    reply.recovered_records = recovered.journal_records;
    reply.recovered_reserves = recovered.dangling_reserves;
    reply.torn_bytes_discarded = recovered.torn_bytes_discarded;
    reply.recovery_seconds = recovered.recovery_seconds;
  }
  net::FrameWriter out(net::FrameType::kBudgetOk);
  EncodeBudgetReply(out.payload(), reply);
  SendFrame(fd, std::move(out));
}

// ---------------------------------------------------------------------------
// Completion and shutdown

void Server::FinishJob(std::uint64_t id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  Job& job = it->second;
  if (job.completed) return;
  job.completed = true;
  --inflight_;

  // Iterate a detached copy: sending can trip the slow-client guard whose
  // deferred close mutates jobs_ bookkeeping via on_close at the iteration
  // boundary; detaching keeps this loop's footing either way.
  std::vector<int> parked;
  parked.swap(job.parked);
  for (int fd : parked) {
    SendJobState(fd, id, job);
    if (job.handle.Wait().ok()) SendResultFrames(fd, id, job);
    loop_->MarkBusy(fd, false);
  }

  // The dataset is no longer needed -- only the (small) result is retained
  // for late polls.
  job.holder.reset();
  retained_order_.push_back(id);
  while (retained_order_.size() > options_.max_retained_jobs) {
    jobs_.erase(retained_order_.front());
    retained_order_.pop_front();
  }
}

void Server::SendFrame(int fd, net::FrameWriter frame) {
  HTDP_TRACE_SPAN("daemon.write");
  const std::vector<std::uint8_t> bytes =
      std::move(frame).Finish(options_.max_payload_bytes);
  loop_->Send(fd, bytes.data(), bytes.size());
}

void Server::SendError(int fd, const Status& status, std::uint64_t job_id) {
  net::WireError error;
  error.wire_code = net::WireStatusFor(status.code());
  error.job_id = job_id;
  error.message = std::string(status.message());
  if (status.code() == StatusCode::kUnavailable) {
    // Stamp the backoff hint so shed clients spread their retries instead
    // of hammering the daemon in lockstep.
    error.retry_after_ms = engine_->SuggestedRetryAfterMs();
  }
  net::FrameWriter out(net::FrameType::kError);
  EncodeError(out.payload(), error);
  SendFrame(fd, std::move(out));
}

void Server::SendJobState(int fd, std::uint64_t id, const Job& job) {
  const StatusOr<FitResult>& outcome = job.handle.Wait();  // completed
  net::JobStateMsg msg;
  msg.job_id = id;
  if (outcome.ok()) {
    msg.state = net::WireJobState::kDoneOk;
  } else {
    msg.state = net::WireJobState::kDoneError;
    msg.wire_code = net::WireStatusFor(outcome.status().code());
    msg.message = std::string(outcome.status().message());
  }
  net::FrameWriter out(net::FrameType::kJobState);
  EncodeJobState(out.payload(), msg);
  SendFrame(fd, std::move(out));
}

void Server::SendResultFrames(int fd, std::uint64_t id, const Job& job) {
  net::WireWriter body;
  EncodeFitResult(body, job.handle.Wait().value());
  const std::vector<std::uint8_t>& bytes = body.bytes();
  std::size_t offset = 0;
  do {
    const std::size_t take =
        std::min(net::kResultChunkBytes, bytes.size() - offset);
    net::ResultChunk chunk;
    chunk.job_id = id;
    chunk.bytes.assign(bytes.begin() + static_cast<std::ptrdiff_t>(offset),
                       bytes.begin() +
                           static_cast<std::ptrdiff_t>(offset + take));
    net::FrameWriter out(net::FrameType::kResultChunk);
    EncodeResultChunk(out.payload(), chunk);
    SendFrame(fd, std::move(out));
    offset += take;
  } while (offset < bytes.size());

  net::FrameWriter out(net::FrameType::kResultEnd);
  EncodeResultEnd(out.payload(), net::ResultEnd{id, bytes.size()});
  SendFrame(fd, std::move(out));
}

void Server::BeginDrain() {
  if (draining_) return;
  draining_ = true;
  loop_->StopAccepting();
  MaybeFinishDrain();
}

void Server::MaybeFinishDrain() {
  if (inflight_ > 0) return;  // completions re-enter via OnWake
  // Every job is done; Drain() returns immediately and certifies it.
  engine_->Drain();
  if (loop_->connection_count() == 0) {
    loop_->Stop();
    return;
  }
  // Flush whatever is still buffered (e.g. final result frames), then close
  // each connection; the last on_close lands back here and stops the loop.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (int fd : fds) {
    loop_->CloseAfterFlush(fd, Status::Cancelled("htdpd shut down"));
  }
}

}  // namespace daemon
}  // namespace htdp
