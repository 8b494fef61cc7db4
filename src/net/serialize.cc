#include "net/serialize.h"

#include <cstddef>
#include <cmath>
#include <utility>

#include "losses/biweight_loss.h"
#include "losses/huber_loss.h"
#include "losses/logistic_loss.h"
#include "losses/mean_loss.h"
#include "losses/squared_loss.h"

namespace htdp {
namespace net {
namespace {

Status DecodeEnumByte(WireReader& r, std::uint8_t max_value, std::uint8_t* out,
                      const char* what) {
  HTDP_RETURN_IF_ERROR(r.U8(out, what));
  if (*out > max_value) {
    return Status::InvalidProblem(std::string("out-of-range value for ") +
                                  what);
  }
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// WireProblem

void EncodeWireProblem(WireWriter& w, const WireProblem& problem) {
  w.Str(problem.loss);
  w.F64(problem.loss_param);
  w.U8(static_cast<std::uint8_t>(problem.constraint));
  w.F64(problem.constraint_radius);
  w.U64(problem.prefix);
  w.U64(problem.target_sparsity);
  w.F64Vec(problem.w0);
  // Dataset: dimensions first, then the row-major feature block and the
  // labels as raw doubles (the counts are implied by n and d; repeating them
  // would just create a second length field that could disagree).
  w.U64(static_cast<std::uint64_t>(problem.data.size()));
  w.U64(static_cast<std::uint64_t>(problem.data.dim()));
  w.F64Array(problem.data.x.data().data(), problem.data.x.data().size());
  w.F64Array(problem.data.y.data(), problem.data.y.size());
}

Status DecodeWireProblem(WireReader& r, WireProblem* out) {
  HTDP_RETURN_IF_ERROR(r.Str(&out->loss, "problem.loss"));
  HTDP_RETURN_IF_ERROR(r.F64(&out->loss_param, "problem.loss_param"));
  std::uint8_t constraint = 0;
  HTDP_RETURN_IF_ERROR(
      DecodeEnumByte(r, 2, &constraint, "problem.constraint"));
  out->constraint = static_cast<WireConstraint>(constraint);
  HTDP_RETURN_IF_ERROR(r.F64(&out->constraint_radius, "problem.radius"));
  HTDP_RETURN_IF_ERROR(r.U64(&out->prefix, "problem.prefix"));
  HTDP_RETURN_IF_ERROR(
      r.U64(&out->target_sparsity, "problem.target_sparsity"));
  HTDP_RETURN_IF_ERROR(r.F64Vec(&out->w0, "problem.w0"));

  std::uint64_t n = 0;
  std::uint64_t d = 0;
  HTDP_RETURN_IF_ERROR(r.U64(&n, "dataset.n"));
  HTDP_RETURN_IF_ERROR(r.U64(&d, "dataset.d"));
  // Validate the declared geometry against the bytes actually present
  // BEFORE allocating n*d doubles: a corrupted length cannot force a huge
  // allocation or an integer-overflowed one.
  const std::uint64_t budget = r.remaining() / 8;
  if (n > budget || d > budget || (n != 0 && d > budget / n) ||
      n * d + n > budget) {
    return Status::InvalidProblem("truncated payload reading dataset values");
  }
  out->data.x = Matrix(static_cast<std::size_t>(n),
                       static_cast<std::size_t>(d));
  HTDP_RETURN_IF_ERROR(r.F64Array(out->data.x.data().data(),
                                  out->data.x.data().size(), "dataset.x"));
  out->data.y.resize(static_cast<std::size_t>(n));
  return r.F64Array(out->data.y.data(), out->data.y.size(), "dataset.y");
}

StatusOr<std::unique_ptr<ProblemHolder>> ProblemHolder::Materialize(
    WireProblem wp) {
  std::unique_ptr<ProblemHolder> holder(new ProblemHolder());
  holder->data_ = std::move(wp.data);

  if (wp.loss == kWireLossSquared) {
    holder->loss_ = std::make_unique<SquaredLoss>();
  } else if (wp.loss == kWireLossLogistic) {
    holder->loss_ = std::make_unique<LogisticLoss>(wp.loss_param);
  } else if (wp.loss == kWireLossHuber) {
    holder->loss_ = std::make_unique<HuberLoss>(wp.loss_param);
  } else if (wp.loss == kWireLossBiweight) {
    holder->loss_ = std::make_unique<BiweightLoss>(wp.loss_param);
  } else if (wp.loss == kWireLossMean) {
    holder->loss_ = std::make_unique<MeanLoss>();
  } else if (!wp.loss.empty()) {
    return Status::InvalidProblem(
        "unknown wire loss \"" + wp.loss +
        "\" (known: squared, logistic, huber, biweight, mean)");
  }

  switch (wp.constraint) {
    case WireConstraint::kNone:
      break;
    case WireConstraint::kL1Ball:
      if (!(wp.constraint_radius > 0.0) ||
          !std::isfinite(wp.constraint_radius)) {
        return Status::InvalidProblem(
            "l1-ball constraint radius must be positive and finite");
      }
      holder->constraint_ =
          std::make_unique<L1Ball>(holder->data_.dim(), wp.constraint_radius);
      break;
    case WireConstraint::kSimplex:
      holder->constraint_ =
          std::make_unique<ProbabilitySimplex>(holder->data_.dim());
      break;
  }

  holder->problem_.loss = holder->loss_.get();
  holder->problem_.data = &holder->data_;
  holder->problem_.constraint = holder->constraint_.get();
  holder->problem_.prefix = static_cast<std::size_t>(wp.prefix);
  holder->problem_.target_sparsity =
      static_cast<std::size_t>(wp.target_sparsity);
  holder->problem_.w0 = std::move(wp.w0);
  return StatusOr<std::unique_ptr<ProblemHolder>>(std::move(holder));
}

// ---------------------------------------------------------------------------
// SolverSpec

void EncodeSpec(WireWriter& w, const SolverSpec& spec) {
  w.F64(spec.budget.epsilon);
  w.F64(spec.budget.delta);
  w.U8(static_cast<std::uint8_t>(spec.accounting));
  w.I32(spec.iterations);
  w.F64(spec.scale);
  w.F64(spec.shrinkage);
  w.U64(static_cast<std::uint64_t>(spec.sparsity));
  w.I32(spec.sparsity_multiplier);
  w.F64(spec.beta);
  w.F64(spec.tau);
  w.F64(spec.zeta);
  w.F64(spec.step);
  w.Bool(spec.diminishing_step);
  w.F64(spec.fixed_step);
  w.U8(static_cast<std::uint8_t>(spec.projection));
  w.F64(spec.radius);
  w.Bool(spec.vector_noise_fill);
  w.U8(static_cast<std::uint8_t>(spec.simd));
  w.Bool(spec.simd_select);
  w.Bool(spec.record_risk_trace);
}

Status DecodeSpec(WireReader& r, SolverSpec* out) {
  HTDP_RETURN_IF_ERROR(r.F64(&out->budget.epsilon, "spec.budget.epsilon"));
  HTDP_RETURN_IF_ERROR(r.F64(&out->budget.delta, "spec.budget.delta"));
  std::uint8_t accounting = 0;
  HTDP_RETURN_IF_ERROR(DecodeEnumByte(r, 2, &accounting, "spec.accounting"));
  out->accounting = static_cast<Accounting>(accounting);
  HTDP_RETURN_IF_ERROR(r.I32(&out->iterations, "spec.iterations"));
  HTDP_RETURN_IF_ERROR(r.F64(&out->scale, "spec.scale"));
  HTDP_RETURN_IF_ERROR(r.F64(&out->shrinkage, "spec.shrinkage"));
  std::uint64_t sparsity = 0;
  HTDP_RETURN_IF_ERROR(r.U64(&sparsity, "spec.sparsity"));
  out->sparsity = static_cast<std::size_t>(sparsity);
  HTDP_RETURN_IF_ERROR(
      r.I32(&out->sparsity_multiplier, "spec.sparsity_multiplier"));
  HTDP_RETURN_IF_ERROR(r.F64(&out->beta, "spec.beta"));
  HTDP_RETURN_IF_ERROR(r.F64(&out->tau, "spec.tau"));
  HTDP_RETURN_IF_ERROR(r.F64(&out->zeta, "spec.zeta"));
  HTDP_RETURN_IF_ERROR(r.F64(&out->step, "spec.step"));
  HTDP_RETURN_IF_ERROR(r.Bool(&out->diminishing_step, "spec.diminishing"));
  HTDP_RETURN_IF_ERROR(r.F64(&out->fixed_step, "spec.fixed_step"));
  std::uint8_t projection = 0;
  HTDP_RETURN_IF_ERROR(DecodeEnumByte(r, 2, &projection, "spec.projection"));
  out->projection = static_cast<PgdOptions::Projection>(projection);
  HTDP_RETURN_IF_ERROR(r.F64(&out->radius, "spec.radius"));
  HTDP_RETURN_IF_ERROR(
      r.Bool(&out->vector_noise_fill, "spec.vector_noise_fill"));
  std::uint8_t simd = 0;
  HTDP_RETURN_IF_ERROR(DecodeEnumByte(r, 2, &simd, "spec.simd"));
  out->simd = static_cast<SimdMode>(simd);
  HTDP_RETURN_IF_ERROR(r.Bool(&out->simd_select, "spec.simd_select"));
  HTDP_RETURN_IF_ERROR(
      r.Bool(&out->record_risk_trace, "spec.record_risk_trace"));
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// FitResult

void EncodeFitResult(WireWriter& w, const FitResult& result) {
  w.F64Vec(result.w);
  w.I32(result.iterations);
  w.F64(result.scale_used);
  w.F64(result.shrinkage_used);
  w.U64(static_cast<std::uint64_t>(result.sparsity_used));
  std::vector<std::uint64_t> selected;
  selected.reserve(result.selected.size());
  for (std::size_t index : result.selected) {
    selected.push_back(static_cast<std::uint64_t>(index));
  }
  w.U64Vec(selected);
  w.F64Vec(result.risk_trace);
  w.F64(result.seconds);
  // The ledger travels whole: the remote caller gets the same audit trail an
  // in-process TryFit would have handed back, composed by the same backend.
  w.U8(static_cast<std::uint8_t>(result.ledger.accounting()));
  w.F64(result.ledger.conversion_delta());
  w.U32(static_cast<std::uint32_t>(result.ledger.entries().size()));
  for (const PrivacyLedger::Entry& entry : result.ledger.entries()) {
    w.Str(entry.mechanism);
    w.F64(entry.epsilon);
    w.F64(entry.delta);
    w.F64(entry.sensitivity);
    w.I32(entry.fold);
    w.F64(entry.rho);
  }
}

Status DecodeFitResult(WireReader& r, FitResult* out) {
  HTDP_RETURN_IF_ERROR(r.F64Vec(&out->w, "result.w"));
  HTDP_RETURN_IF_ERROR(r.I32(&out->iterations, "result.iterations"));
  HTDP_RETURN_IF_ERROR(r.F64(&out->scale_used, "result.scale_used"));
  HTDP_RETURN_IF_ERROR(r.F64(&out->shrinkage_used, "result.shrinkage_used"));
  std::uint64_t sparsity_used = 0;
  HTDP_RETURN_IF_ERROR(r.U64(&sparsity_used, "result.sparsity_used"));
  out->sparsity_used = static_cast<std::size_t>(sparsity_used);
  std::vector<std::uint64_t> selected;
  HTDP_RETURN_IF_ERROR(r.U64Vec(&selected, "result.selected"));
  out->selected.assign(selected.begin(), selected.end());
  HTDP_RETURN_IF_ERROR(r.F64Vec(&out->risk_trace, "result.risk_trace"));
  HTDP_RETURN_IF_ERROR(r.F64(&out->seconds, "result.seconds"));

  std::uint8_t accounting = 0;
  HTDP_RETURN_IF_ERROR(
      DecodeEnumByte(r, 2, &accounting, "result.ledger.accounting"));
  double conversion_delta = 0.0;
  HTDP_RETURN_IF_ERROR(
      r.F64(&conversion_delta, "result.ledger.conversion_delta"));
  std::uint32_t entries = 0;
  HTDP_RETURN_IF_ERROR(r.U32(&entries, "result.ledger.entries"));
  out->ledger.Clear();
  // No reserve from the untrusted count: each loop iteration consumes at
  // least 40 payload bytes, so the loop -- and the growth of the log -- is
  // bounded by the bytes actually present.
  for (std::uint32_t i = 0; i < entries; ++i) {
    PrivacyLedger::Entry entry;
    HTDP_RETURN_IF_ERROR(r.Str(&entry.mechanism, "ledger.mechanism"));
    HTDP_RETURN_IF_ERROR(r.F64(&entry.epsilon, "ledger.epsilon"));
    HTDP_RETURN_IF_ERROR(r.F64(&entry.delta, "ledger.delta"));
    HTDP_RETURN_IF_ERROR(r.F64(&entry.sensitivity, "ledger.sensitivity"));
    HTDP_RETURN_IF_ERROR(r.I32(&entry.fold, "ledger.fold"));
    HTDP_RETURN_IF_ERROR(r.F64(&entry.rho, "ledger.rho"));
    out->ledger.Record(std::move(entry));
  }
  out->ledger.SetAccounting(static_cast<Accounting>(accounting),
                            conversion_delta);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Requests / replies

std::size_t EncodedSubmitBytes(const SubmitRequest& request) {
  // Every SolverSpec encodes to the same number of bytes.
  static const std::size_t spec_bytes = [] {
    WireWriter w;
    EncodeSpec(w, SolverSpec{});
    return w.bytes().size();
  }();
  const WireProblem& p = request.problem;
  const std::size_t strings = 4 * 4 + request.tenant.size() +
                              request.solver.size() + request.tag.size() +
                              p.loss.size();
  const std::size_t scalars = 8 + 8 + 1 +           // seed, deadline, stream
                              8 + 1 + 8 + 8 + 8 +   // problem scalars
                              8 + 8 + 8;            // w0 count, n, d
  const std::size_t doubles =
      p.w0.size() + p.data.x.data().size() + p.data.y.size();
  return strings + scalars + spec_bytes + 8 * doubles;
}

void EncodeSubmit(WireWriter& w, const SubmitRequest& request) {
  w.Reserve(EncodedSubmitBytes(request));
  w.Str(request.tenant);
  w.Str(request.solver);
  w.Str(request.tag);
  w.U64(request.seed);
  w.F64(request.deadline_seconds);
  w.Bool(request.stream);
  EncodeSpec(w, request.spec);
  EncodeWireProblem(w, request.problem);
}

Status DecodeSubmit(WireReader& r, SubmitRequest* out) {
  HTDP_RETURN_IF_ERROR(r.Str(&out->tenant, "submit.tenant"));
  HTDP_RETURN_IF_ERROR(r.Str(&out->solver, "submit.solver"));
  HTDP_RETURN_IF_ERROR(r.Str(&out->tag, "submit.tag"));
  HTDP_RETURN_IF_ERROR(r.U64(&out->seed, "submit.seed"));
  HTDP_RETURN_IF_ERROR(r.F64(&out->deadline_seconds, "submit.deadline"));
  HTDP_RETURN_IF_ERROR(r.Bool(&out->stream, "submit.stream"));
  HTDP_RETURN_IF_ERROR(DecodeSpec(r, &out->spec));
  HTDP_RETURN_IF_ERROR(DecodeWireProblem(r, &out->problem));
  return Status::Ok();
}

void EncodeSubmitOk(WireWriter& w, const SubmitOk& msg) { w.U64(msg.job_id); }

Status DecodeSubmitOk(WireReader& r, SubmitOk* out) {
  return r.U64(&out->job_id, "submit_ok.job_id");
}

void EncodePoll(WireWriter& w, const PollRequest& request) {
  w.U64(request.job_id);
  w.Bool(request.deliver);
}

Status DecodePoll(WireReader& r, PollRequest* out) {
  HTDP_RETURN_IF_ERROR(r.U64(&out->job_id, "poll.job_id"));
  HTDP_RETURN_IF_ERROR(r.Bool(&out->deliver, "poll.deliver"));
  return Status::Ok();
}

void EncodeJobState(WireWriter& w, const JobStateMsg& msg) {
  w.U64(msg.job_id);
  w.U8(static_cast<std::uint8_t>(msg.state));
  w.U16(msg.wire_code);
  w.Str(msg.message);
}

Status DecodeJobState(WireReader& r, JobStateMsg* out) {
  HTDP_RETURN_IF_ERROR(r.U64(&out->job_id, "job_state.job_id"));
  std::uint8_t state = 0;
  HTDP_RETURN_IF_ERROR(r.U8(&state, "job_state.state"));
  if (state != 0 && state != 2 && state != 3) {
    return Status::InvalidProblem("out-of-range value for job_state.state");
  }
  out->state = static_cast<WireJobState>(state);
  HTDP_RETURN_IF_ERROR(r.U16(&out->wire_code, "job_state.wire_code"));
  HTDP_RETURN_IF_ERROR(r.Str(&out->message, "job_state.message"));
  return Status::Ok();
}

void EncodeCancel(WireWriter& w, const CancelRequest& request) {
  w.U64(request.job_id);
}

Status DecodeCancel(WireReader& r, CancelRequest* out) {
  return r.U64(&out->job_id, "cancel.job_id");
}

void EncodeStats(WireWriter& w, const StatsReply& msg) {
  w.U64(msg.engine.submitted);
  w.U64(msg.engine.completed);
  w.U64(msg.engine.succeeded);
  w.U64(msg.engine.failed);
  w.U64(msg.engine.cancelled);
  w.U64(msg.engine.deadline_exceeded);
  w.U64(msg.engine.budget_rejected);
  w.U64(msg.engine.queue_depth);
  w.U64(msg.engine.running);
  w.F64(msg.engine.uptime_seconds);
  w.F64(msg.engine.jobs_per_second);
  w.U32(static_cast<std::uint32_t>(msg.tenants.size()));
  for (const StatsReply::TenantRow& row : msg.tenants) {
    w.Str(row.name);
    w.F64(row.total.epsilon);
    w.F64(row.total.delta);
    w.F64(row.spent.epsilon);
    w.F64(row.spent.delta);
    w.U64(row.admitted);
    w.U64(row.rejected);
    w.U64(row.refunded);
  }
  w.U64(msg.connections);
  w.U64(msg.retained_jobs);
  w.Bool(msg.draining);
  // Overload-protection counters, appended in a later revision (the codec's
  // trailing-bytes rule keeps older peers compatible).
  w.U64(msg.engine.unavailable_rejected);
  w.U64(msg.engine.shed_expired);
  w.Bool(msg.engine.overloaded);
}

Status DecodeStats(WireReader& r, StatsReply* out) {
  std::uint64_t counter = 0;
#define HTDP_NET_READ_COUNTER(field)                          \
  HTDP_RETURN_IF_ERROR(r.U64(&counter, "stats." #field));     \
  out->engine.field = static_cast<std::size_t>(counter)
  HTDP_NET_READ_COUNTER(submitted);
  HTDP_NET_READ_COUNTER(completed);
  HTDP_NET_READ_COUNTER(succeeded);
  HTDP_NET_READ_COUNTER(failed);
  HTDP_NET_READ_COUNTER(cancelled);
  HTDP_NET_READ_COUNTER(deadline_exceeded);
  HTDP_NET_READ_COUNTER(budget_rejected);
  HTDP_NET_READ_COUNTER(queue_depth);
  HTDP_NET_READ_COUNTER(running);
#undef HTDP_NET_READ_COUNTER
  HTDP_RETURN_IF_ERROR(r.F64(&out->engine.uptime_seconds, "stats.uptime"));
  HTDP_RETURN_IF_ERROR(
      r.F64(&out->engine.jobs_per_second, "stats.jobs_per_second"));
  std::uint32_t tenants = 0;
  HTDP_RETURN_IF_ERROR(r.U32(&tenants, "stats.tenants"));
  out->tenants.clear();
  for (std::uint32_t i = 0; i < tenants; ++i) {
    StatsReply::TenantRow row;
    HTDP_RETURN_IF_ERROR(r.Str(&row.name, "tenant.name"));
    HTDP_RETURN_IF_ERROR(r.F64(&row.total.epsilon, "tenant.total.epsilon"));
    HTDP_RETURN_IF_ERROR(r.F64(&row.total.delta, "tenant.total.delta"));
    HTDP_RETURN_IF_ERROR(r.F64(&row.spent.epsilon, "tenant.spent.epsilon"));
    HTDP_RETURN_IF_ERROR(r.F64(&row.spent.delta, "tenant.spent.delta"));
    HTDP_RETURN_IF_ERROR(r.U64(&row.admitted, "tenant.admitted"));
    HTDP_RETURN_IF_ERROR(r.U64(&row.rejected, "tenant.rejected"));
    HTDP_RETURN_IF_ERROR(r.U64(&row.refunded, "tenant.refunded"));
    out->tenants.push_back(std::move(row));
  }
  HTDP_RETURN_IF_ERROR(r.U64(&out->connections, "stats.connections"));
  HTDP_RETURN_IF_ERROR(r.U64(&out->retained_jobs, "stats.retained_jobs"));
  HTDP_RETURN_IF_ERROR(r.Bool(&out->draining, "stats.draining"));
  // Overload-protection counters from newer daemons; absent from older ones.
  out->engine.unavailable_rejected = 0;
  out->engine.shed_expired = 0;
  out->engine.overloaded = false;
  if (r.remaining() > 0) {
    HTDP_RETURN_IF_ERROR(
        r.U64(&counter, "stats.unavailable_rejected"));
    out->engine.unavailable_rejected = static_cast<std::size_t>(counter);
    HTDP_RETURN_IF_ERROR(r.U64(&counter, "stats.shed_expired"));
    out->engine.shed_expired = static_cast<std::size_t>(counter);
    HTDP_RETURN_IF_ERROR(r.Bool(&out->engine.overloaded, "stats.overloaded"));
  }
  // Older servers append a scheduler section here; it is left unread under
  // the trailing-bytes rule.
  return Status::Ok();
}

void EncodeSolverList(WireWriter& w, const SolverListReply& msg) {
  w.U32(static_cast<std::uint32_t>(msg.solvers.size()));
  for (const SolverListReply::Row& row : msg.solvers) {
    w.Str(row.name);
    w.Str(row.description);
  }
}

Status DecodeSolverList(WireReader& r, SolverListReply* out) {
  std::uint32_t count = 0;
  HTDP_RETURN_IF_ERROR(r.U32(&count, "solver_list.count"));
  out->solvers.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    SolverListReply::Row row;
    HTDP_RETURN_IF_ERROR(r.Str(&row.name, "solver_list.name"));
    HTDP_RETURN_IF_ERROR(r.Str(&row.description, "solver_list.description"));
    out->solvers.push_back(std::move(row));
  }
  return Status::Ok();
}

void EncodeResultChunk(WireWriter& w, const ResultChunk& msg) {
  w.U64(msg.job_id);
  w.U32(static_cast<std::uint32_t>(msg.bytes.size()));
  w.Raw(msg.bytes.data(), msg.bytes.size());
}

Status DecodeResultChunk(WireReader& r, ResultChunk* out) {
  HTDP_RETURN_IF_ERROR(r.U64(&out->job_id, "result_chunk.job_id"));
  std::uint32_t size = 0;
  HTDP_RETURN_IF_ERROR(r.U32(&size, "result_chunk.size"));
  if (size > r.remaining()) {
    return Status::InvalidProblem(
        "truncated payload reading result_chunk.bytes");
  }
  out->bytes.resize(size);
  if (size > 0) {
    HTDP_RETURN_IF_ERROR(r.Bytes(out->bytes.data(), size,
                                 "result_chunk.bytes"));
  }
  return Status::Ok();
}

void EncodeResultEnd(WireWriter& w, const ResultEnd& msg) {
  w.U64(msg.job_id);
  w.U64(msg.total_bytes);
}

Status DecodeResultEnd(WireReader& r, ResultEnd* out) {
  HTDP_RETURN_IF_ERROR(r.U64(&out->job_id, "result_end.job_id"));
  HTDP_RETURN_IF_ERROR(r.U64(&out->total_bytes, "result_end.total_bytes"));
  return Status::Ok();
}

void EncodeError(WireWriter& w, const WireError& msg) {
  w.U16(msg.wire_code);
  w.U64(msg.job_id);
  w.Str(msg.message);
  w.U32(msg.retry_after_ms);
}

Status DecodeError(WireReader& r, WireError* out) {
  HTDP_RETURN_IF_ERROR(r.U16(&out->wire_code, "error.wire_code"));
  HTDP_RETURN_IF_ERROR(r.U64(&out->job_id, "error.job_id"));
  HTDP_RETURN_IF_ERROR(r.Str(&out->message, "error.message"));
  // Appended in a later revision; an older peer's frame simply ends here.
  out->retry_after_ms = 0;
  if (r.remaining() >= 4) {
    HTDP_RETURN_IF_ERROR(r.U32(&out->retry_after_ms, "error.retry_after_ms"));
  }
  return Status::Ok();
}

void EncodeMetrics(WireWriter& w, const MetricsRequest& request) {
  w.U8(static_cast<std::uint8_t>(request.format));
}

Status DecodeMetrics(WireReader& r, MetricsRequest* out) {
  std::uint8_t format = 0;
  HTDP_RETURN_IF_ERROR(r.U8(&format, "metrics.format"));
  if (format > static_cast<std::uint8_t>(MetricsFormat::kTraceChrome)) {
    return Status::InvalidProblem("metrics.format " + std::to_string(format) +
                                  " is not a known export format");
  }
  out->format = static_cast<MetricsFormat>(format);
  return Status::Ok();
}

void EncodeMetricsReply(WireWriter& w, const MetricsReply& msg) {
  w.U8(static_cast<std::uint8_t>(msg.format));
  w.Str(msg.body);
}

Status DecodeMetricsReply(WireReader& r, MetricsReply* out) {
  std::uint8_t format = 0;
  HTDP_RETURN_IF_ERROR(r.U8(&format, "metrics_ok.format"));
  out->format = static_cast<MetricsFormat>(format);
  HTDP_RETURN_IF_ERROR(r.Str(&out->body, "metrics_ok.body"));
  return Status::Ok();
}

void EncodeBudgetReply(WireWriter& w, const BudgetReply& msg) {
  w.U32(static_cast<std::uint32_t>(msg.tenants.size()));
  for (const BudgetReply::TenantRow& row : msg.tenants) {
    w.Str(row.name);
    w.F64(row.total.epsilon);
    w.F64(row.total.delta);
    w.F64(row.spent.epsilon);
    w.F64(row.spent.delta);
    w.F64(row.remaining.epsilon);
    w.F64(row.remaining.delta);
    w.F64(row.recovered.epsilon);
    w.F64(row.recovered.delta);
    w.U64(row.admitted);
    w.U64(row.rejected);
    w.U64(row.refunded);
    w.U64(row.open);
    w.U64(row.recovered_reserves);
  }
  w.Bool(msg.durable);
  w.Str(msg.state_dir);
  w.Str(msg.fsync_policy);
  w.U64(msg.journal_records);
  w.U64(msg.journal_bytes);
  w.U64(msg.journal_lag_records);
  w.U64(msg.snapshots);
  w.U64(msg.open_reservations);
  w.U64(msg.recovered_records);
  w.U64(msg.recovered_reserves);
  w.U64(msg.torn_bytes_discarded);
  w.F64(msg.recovery_seconds);
}

Status DecodeBudgetReply(WireReader& r, BudgetReply* out) {
  std::uint32_t tenants = 0;
  HTDP_RETURN_IF_ERROR(r.U32(&tenants, "budget_ok.tenants"));
  out->tenants.clear();
  for (std::uint32_t i = 0; i < tenants; ++i) {
    BudgetReply::TenantRow row;
    HTDP_RETURN_IF_ERROR(r.Str(&row.name, "budget.name"));
    HTDP_RETURN_IF_ERROR(r.F64(&row.total.epsilon, "budget.total.epsilon"));
    HTDP_RETURN_IF_ERROR(r.F64(&row.total.delta, "budget.total.delta"));
    HTDP_RETURN_IF_ERROR(r.F64(&row.spent.epsilon, "budget.spent.epsilon"));
    HTDP_RETURN_IF_ERROR(r.F64(&row.spent.delta, "budget.spent.delta"));
    HTDP_RETURN_IF_ERROR(
        r.F64(&row.remaining.epsilon, "budget.remaining.epsilon"));
    HTDP_RETURN_IF_ERROR(
        r.F64(&row.remaining.delta, "budget.remaining.delta"));
    HTDP_RETURN_IF_ERROR(
        r.F64(&row.recovered.epsilon, "budget.recovered.epsilon"));
    HTDP_RETURN_IF_ERROR(
        r.F64(&row.recovered.delta, "budget.recovered.delta"));
    HTDP_RETURN_IF_ERROR(r.U64(&row.admitted, "budget.admitted"));
    HTDP_RETURN_IF_ERROR(r.U64(&row.rejected, "budget.rejected"));
    HTDP_RETURN_IF_ERROR(r.U64(&row.refunded, "budget.refunded"));
    HTDP_RETURN_IF_ERROR(r.U64(&row.open, "budget.open"));
    HTDP_RETURN_IF_ERROR(
        r.U64(&row.recovered_reserves, "budget.recovered_reserves"));
    out->tenants.push_back(std::move(row));
  }
  HTDP_RETURN_IF_ERROR(r.Bool(&out->durable, "budget_ok.durable"));
  HTDP_RETURN_IF_ERROR(r.Str(&out->state_dir, "budget_ok.state_dir"));
  HTDP_RETURN_IF_ERROR(r.Str(&out->fsync_policy, "budget_ok.fsync_policy"));
  HTDP_RETURN_IF_ERROR(
      r.U64(&out->journal_records, "budget_ok.journal_records"));
  HTDP_RETURN_IF_ERROR(r.U64(&out->journal_bytes, "budget_ok.journal_bytes"));
  HTDP_RETURN_IF_ERROR(
      r.U64(&out->journal_lag_records, "budget_ok.journal_lag_records"));
  HTDP_RETURN_IF_ERROR(r.U64(&out->snapshots, "budget_ok.snapshots"));
  HTDP_RETURN_IF_ERROR(
      r.U64(&out->open_reservations, "budget_ok.open_reservations"));
  HTDP_RETURN_IF_ERROR(
      r.U64(&out->recovered_records, "budget_ok.recovered_records"));
  HTDP_RETURN_IF_ERROR(
      r.U64(&out->recovered_reserves, "budget_ok.recovered_reserves"));
  HTDP_RETURN_IF_ERROR(
      r.U64(&out->torn_bytes_discarded, "budget_ok.torn_bytes_discarded"));
  HTDP_RETURN_IF_ERROR(
      r.F64(&out->recovery_seconds, "budget_ok.recovery_seconds"));
  return Status::Ok();
}

}  // namespace net
}  // namespace htdp
