#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "net/wire_status.h"

namespace htdp {
namespace net {
namespace {

constexpr std::size_t kClientReadChunk = 64 * 1024;

Status UnexpectedFrame(const Frame& frame) {
  return Status::InvalidProblem(std::string("unexpected ") +
                                FrameTypeName(frame.type) +
                                " frame from the server");
}

/// Decodes a unary reply's payload, passing its error through.
template <typename Reply>
StatusOr<Reply> DecodeReply(StatusOr<Frame> frame,
                            Status (*decode)(WireReader&, Reply*)) {
  HTDP_RETURN_IF_ERROR(frame.status());
  WireReader reader(frame.value().payload);
  Reply reply;
  HTDP_RETURN_IF_ERROR(decode(reader, &reply));
  return reply;
}

}  // namespace

double RetryBackoffMs(const RetryPolicy& policy, int attempt,
                      std::uint32_t server_hint_ms, FaultRng& jitter) {
  double base = policy.initial_backoff_ms;
  for (int i = 0; i < attempt && base < policy.max_backoff_ms; ++i) {
    base *= policy.backoff_multiplier;
  }
  base = std::min(base, policy.max_backoff_ms);
  // The server knows its backlog better than our exponent does; never come
  // back sooner than it asked.
  base = std::max(base, static_cast<double>(server_hint_ms));
  // Deterministic jitter to [50%, 100%]: spreads a thundering herd while
  // keeping every schedule replayable from its seed.
  return base * (0.5 + 0.5 * jitter.NextUniform());
}

StatusOr<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                  std::uint16_t port,
                                                  std::size_t max_payload) {
  return ConnectWith([host, port] { return DialStream(host, port); },
                     max_payload);
}

StatusOr<std::unique_ptr<Client>> Client::ConnectWith(
    StreamFactory factory, std::size_t max_payload) {
  IgnoreSigpipeOnce();
  StatusOr<std::unique_ptr<ByteStream>> stream = factory();
  HTDP_RETURN_IF_ERROR(stream.status());
  return std::unique_ptr<Client>(new Client(std::move(stream).value(),
                                            std::move(factory), max_payload));
}

Status Client::Reconnect() {
  StatusOr<std::unique_ptr<ByteStream>> stream = factory_();
  if (!stream.ok()) {
    // Still down; stay broken so the retry loop keeps trying.
    return Status::Unavailable("reconnect failed: " +
                               stream.status().ToString());
  }
  stream_ = std::move(stream).value();
  decoder_ = FrameDecoder(max_payload_);
  broken_ = false;
  // Per-connection protocol state is void on the new connection. Completed
  // results already collected stay collectable; half-assembled ones are
  // lost (their submits will be retried).
  streamed_.clear();
  assembling_.clear();
  pushed_states_.clear();
  return Status::Ok();
}

Status Client::MarkBroken(Status transport_error) {
  broken_ = true;
  if (transport_error.code() == StatusCode::kUnavailable) {
    return transport_error;
  }
  return Status::Unavailable("connection failure: " +
                             transport_error.ToString());
}

Status Client::ErrorFromFrame(const Frame& frame) {
  WireReader reader(frame.payload);
  WireError error;
  HTDP_RETURN_IF_ERROR(DecodeError(reader, &error));
  last_retry_after_ms_ = error.retry_after_ms;
  return StatusFromWire(error.wire_code, std::move(error.message));
}

Status Client::SendFrame(FrameWriter frame,
                         std::span<const ByteSpan> trailing) {
  if (broken_) {
    return Status::Unavailable("connection is broken; Reconnect() first");
  }
  std::size_t trailing_bytes = 0;
  for (ByteSpan part : trailing) trailing_bytes += part.size();
  const std::vector<std::uint8_t> head =
      std::move(frame).Finish(max_payload_, trailing_bytes);
  std::vector<ByteSpan> parts = {head};
  parts.insert(parts.end(), trailing.begin(), trailing.end());
  Status sent = stream_->Send(parts);
  if (!sent.ok()) return MarkBroken(std::move(sent));
  return Status::Ok();
}

StatusOr<Frame> Client::ReadFrame() {
  if (broken_) {
    return Status::Unavailable("connection is broken; Reconnect() first");
  }
  std::uint8_t buffer[kClientReadChunk];
  while (true) {
    std::optional<Frame> frame;
    HTDP_RETURN_IF_ERROR(decoder_.Next(&frame));
    if (frame.has_value()) return std::move(*frame);

    StatusOr<std::size_t> got = stream_->Recv(buffer, sizeof(buffer));
    if (!got.ok()) return MarkBroken(got.status());
    if (got.value() == 0) {
      // Retryable by the protocol's idempotence contract: whatever request
      // was in flight can be resubmitted verbatim on a fresh connection.
      return MarkBroken(Status::Unavailable(
          "server closed the connection mid-conversation"));
    }
    decoder_.Feed(buffer, got.value());
  }
}

Status Client::AbsorbPush(const Frame& frame) {
  WireReader reader(frame.payload);
  switch (frame.type) {
    case FrameType::kJobState: {
      JobStateMsg msg;
      HTDP_RETURN_IF_ERROR(DecodeJobState(reader, &msg));
      pushed_states_[msg.job_id] = std::move(msg);
      return Status::Ok();
    }
    case FrameType::kResultChunk: {
      ResultChunk chunk;
      HTDP_RETURN_IF_ERROR(DecodeResultChunk(reader, &chunk));
      std::vector<std::uint8_t>& bytes = assembling_[chunk.job_id];
      bytes.insert(bytes.end(), chunk.bytes.begin(), chunk.bytes.end());
      return Status::Ok();
    }
    case FrameType::kResultEnd: {
      ResultEnd end;
      HTDP_RETURN_IF_ERROR(DecodeResultEnd(reader, &end));
      std::vector<std::uint8_t> bytes = std::move(assembling_[end.job_id]);
      assembling_.erase(end.job_id);
      if (bytes.size() != end.total_bytes) {
        return Status::InvalidProblem(
            "result stream for job " + std::to_string(end.job_id) +
            " delivered " + std::to_string(bytes.size()) +
            " bytes but declared " + std::to_string(end.total_bytes));
      }
      finished_[end.job_id] = std::move(bytes);
      return Status::Ok();
    }
    default:
      return UnexpectedFrame(frame);
  }
}

StatusOr<Frame> Client::ReadReply(std::uint64_t expect_job) {
  while (true) {
    StatusOr<Frame> frame = ReadFrame();
    HTDP_RETURN_IF_ERROR(frame.status());
    switch (frame.value().type) {
      case FrameType::kResultChunk:
      case FrameType::kResultEnd:
        HTDP_RETURN_IF_ERROR(AbsorbPush(frame.value()));
        continue;
      case FrameType::kJobState: {
        // A JOB_STATE about some other job is a push for a streamed job;
        // about `expect_job` it is the reply we are waiting for.
        WireReader peek(frame.value().payload);
        JobStateMsg msg;
        HTDP_RETURN_IF_ERROR(DecodeJobState(peek, &msg));
        if (msg.job_id != expect_job) {
          pushed_states_[msg.job_id] = std::move(msg);
          continue;
        }
        return frame;
      }
      default:
        return frame;
    }
  }
}

StatusOr<Frame> Client::Unary(FrameWriter request, FrameType want,
                              std::uint64_t expect_job) {
  HTDP_RETURN_IF_ERROR(SendFrame(std::move(request)));
  StatusOr<Frame> reply = ReadReply(expect_job);
  HTDP_RETURN_IF_ERROR(reply.status());
  if (reply.value().type == FrameType::kError) {
    return ErrorFromFrame(reply.value());
  }
  if (reply.value().type != want) return UnexpectedFrame(reply.value());
  return reply;
}

StatusOr<std::uint64_t> Client::Submit(const SubmitRequest& request) {
  // Refused before any byte goes out, so the connection stays usable.
  const std::size_t payload_bytes = EncodedSubmitBytes(request);
  if (payload_bytes > max_payload_) {
    return Status::InvalidProblem(
        "SUBMIT payload of " + std::to_string(payload_bytes) +
        " bytes exceeds the frame limit of " + std::to_string(max_payload_) +
        " bytes (send a smaller dataset)");
  }
  // Only the head is encoded; the dataset goes out of the request's own
  // storage in the same gather write.
  FrameWriter frame(FrameType::kSubmit);
  EncodeSubmitHead(frame.payload(), request);
  HTDP_RETURN_IF_ERROR(
      SendFrame(std::move(frame), WireDatasetBlocks(request.problem.data)));

  StatusOr<Frame> reply = ReadReply(0);
  HTDP_RETURN_IF_ERROR(reply.status());
  WireReader reader(reply.value().payload);
  if (reply.value().type == FrameType::kError) {
    return ErrorFromFrame(reply.value());
  }
  if (reply.value().type != FrameType::kSubmitOk) {
    return UnexpectedFrame(reply.value());
  }
  SubmitOk ok;
  HTDP_RETURN_IF_ERROR(DecodeSubmitOk(reader, &ok));
  if (request.stream) streamed_.insert(ok.job_id);
  last_job_id_ = ok.job_id;
  return ok.job_id;
}

StatusOr<JobStateMsg> Client::Poll(std::uint64_t job_id, bool deliver) {
  FrameWriter frame(FrameType::kPoll);
  EncodePoll(frame.payload(), PollRequest{job_id, deliver});
  return DecodeReply(Unary(std::move(frame), FrameType::kJobState, job_id),
                     DecodeJobState);
}

StatusOr<FitResult> Client::CollectResult(std::uint64_t job_id) {
  while (finished_.find(job_id) == finished_.end()) {
    StatusOr<Frame> frame = ReadFrame();
    HTDP_RETURN_IF_ERROR(frame.status());
    HTDP_RETURN_IF_ERROR(AbsorbPush(frame.value()));
  }
  std::vector<std::uint8_t> bytes = std::move(finished_[job_id]);
  finished_.erase(job_id);
  WireReader reader(bytes.data(), bytes.size());
  FitResult result;
  HTDP_RETURN_IF_ERROR(DecodeFitResult(reader, &result));
  return result;
}

StatusOr<FitResult> Client::WaitResult(std::uint64_t job_id) {
  while (true) {
    StatusOr<JobStateMsg> state = Poll(job_id, /*deliver=*/true);
    HTDP_RETURN_IF_ERROR(state.status());
    switch (state.value().state) {
      case WireJobState::kInFlight:
        // The server parks deliver-polls until completion, so this loop
        // does not spin; a plain re-poll is just a retry after a spurious
        // in-flight report.
        continue;
      case WireJobState::kDoneError:
        return StatusFromWire(state.value().wire_code,
                              std::move(state.value().message));
      case WireJobState::kDoneOk:
        return CollectResult(job_id);
    }
  }
}

StatusOr<FitResult> Client::AwaitStreamed(std::uint64_t job_id) {
  while (true) {
    auto done = pushed_states_.find(job_id);
    if (done != pushed_states_.end() &&
        done->second.state != WireJobState::kInFlight) {
      JobStateMsg msg = std::move(done->second);
      pushed_states_.erase(done);
      if (msg.state == WireJobState::kDoneError) {
        return StatusFromWire(msg.wire_code, std::move(msg.message));
      }
      return CollectResult(job_id);
    }
    StatusOr<Frame> frame = ReadFrame();
    HTDP_RETURN_IF_ERROR(frame.status());
    HTDP_RETURN_IF_ERROR(AbsorbPush(frame.value()));
  }
}

StatusOr<JobStateMsg> Client::Cancel(std::uint64_t job_id) {
  FrameWriter frame(FrameType::kCancel);
  EncodeCancel(frame.payload(), CancelRequest{job_id});
  return DecodeReply(Unary(std::move(frame), FrameType::kJobState, job_id),
                     DecodeJobState);
}

StatusOr<StatsReply> Client::Stats() {
  return DecodeReply(Unary(FrameWriter(FrameType::kStats), FrameType::kStatsOk),
                     DecodeStats);
}

StatusOr<BudgetReply> Client::Budget() {
  return DecodeReply(
      Unary(FrameWriter(FrameType::kBudget), FrameType::kBudgetOk),
      DecodeBudgetReply);
}

StatusOr<MetricsReply> Client::Metrics(MetricsFormat format) {
  FrameWriter frame(FrameType::kMetrics);
  MetricsRequest request;
  request.format = format;
  EncodeMetrics(frame.payload(), request);
  return DecodeReply(Unary(std::move(frame), FrameType::kMetricsOk),
                     DecodeMetricsReply);
}

StatusOr<FitResult> Client::SubmitAndWaitWithRetry(
    const SubmitRequest& request, const RetryPolicy& policy) {
  const auto start = std::chrono::steady_clock::now();
  FaultRng jitter(policy.jitter_seed);
  Status last = Status::Unavailable("no attempts were made");
  for (int attempt = 0;
       policy.max_attempts <= 0 || attempt < policy.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++retries_used_;
      double wait_ms =
          RetryBackoffMs(policy, attempt - 1, last_retry_after_ms_, jitter);
      last_retry_after_ms_ = 0;  // the hint applies to exactly one retry
      if (policy.deadline_seconds > 0) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        const double budget_ms =
            (policy.deadline_seconds - elapsed) * 1000.0;
        if (budget_ms <= 0) break;  // out of time: report the last failure
        wait_ms = std::min(wait_ms, budget_ms);
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(wait_ms));
    }
    if (broken_) {
      Status reconnected = Reconnect();
      if (!reconnected.ok()) {
        last = std::move(reconnected);
        continue;
      }
    }
    StatusOr<std::uint64_t> id = Submit(request);
    if (!id.ok()) {
      if (!IsRetryable(id.status().code())) return id.status();
      last = id.status();
      continue;
    }
    StatusOr<FitResult> result = request.stream ? AwaitStreamed(id.value())
                                                : WaitResult(id.value());
    if (result.ok() || !IsRetryable(result.status().code())) return result;
    // The connection died between SUBMIT_OK and the result. The job may
    // still be running server-side; the retry resubmits, and determinism
    // at the fixed seed makes the re-run's bits identical.
    last = result.status();
  }
  return last;
}

StatusOr<SolverListReply> Client::ListSolvers() {
  return DecodeReply(
      Unary(FrameWriter(FrameType::kListSolvers), FrameType::kSolverList),
      DecodeSolverList);
}

}  // namespace net
}  // namespace htdp
