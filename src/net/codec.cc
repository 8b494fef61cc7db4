#include "net/codec.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#include "util/check.h"

namespace htdp {
namespace net {
namespace {

// The bulk double-array copies below rely on a double's in-memory bytes
// being its little-endian wire encoding (see the format comment in codec.h).
static_assert(std::endian::native == std::endian::little,
              "the wire codec copies double arrays as little-endian bytes");

std::string TruncatedMessage(const char* what) {
  return std::string("truncated payload reading ") + what;
}

}  // namespace

bool KnownFrameType(std::uint8_t value) {
  switch (static_cast<FrameType>(value)) {
    case FrameType::kSubmit:
    case FrameType::kSubmitOk:
    case FrameType::kPoll:
    case FrameType::kJobState:
    case FrameType::kCancel:
    case FrameType::kStats:
    case FrameType::kStatsOk:
    case FrameType::kListSolvers:
    case FrameType::kSolverList:
    case FrameType::kResultChunk:
    case FrameType::kResultEnd:
    case FrameType::kError:
    case FrameType::kMetrics:
    case FrameType::kMetricsOk:
    case FrameType::kBudget:
    case FrameType::kBudgetOk:
      return true;
  }
  return false;
}

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kSubmit:
      return "submit";
    case FrameType::kSubmitOk:
      return "submit-ok";
    case FrameType::kPoll:
      return "poll";
    case FrameType::kJobState:
      return "job-state";
    case FrameType::kCancel:
      return "cancel";
    case FrameType::kStats:
      return "stats";
    case FrameType::kStatsOk:
      return "stats-ok";
    case FrameType::kListSolvers:
      return "list-solvers";
    case FrameType::kSolverList:
      return "solver-list";
    case FrameType::kResultChunk:
      return "result-chunk";
    case FrameType::kResultEnd:
      return "result-end";
    case FrameType::kError:
      return "error";
    case FrameType::kMetrics:
      return "metrics";
    case FrameType::kMetricsOk:
      return "metrics-ok";
    case FrameType::kBudget:
      return "budget";
    case FrameType::kBudgetOk:
      return "budget-ok";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// WireWriter

void WireWriter::U16(std::uint16_t v) {
  bytes_.push_back(static_cast<std::uint8_t>(v));
  bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::U32(std::uint32_t v) {
  bytes_.push_back(static_cast<std::uint8_t>(v));
  bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
  bytes_.push_back(static_cast<std::uint8_t>(v >> 16));
  bytes_.push_back(static_cast<std::uint8_t>(v >> 24));
}

void WireWriter::U64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void WireWriter::F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::Str(const std::string& v) {
  HTDP_CHECK(v.size() <= 0xffffffffu) << "string too long for the wire";
  U32(static_cast<std::uint32_t>(v.size()));
  Raw(v.data(), v.size());
}

void WireWriter::F64Array(const double* v, std::size_t count) {
  Raw(v, count * sizeof(double));
}

void WireWriter::F64Vec(const std::vector<double>& v) {
  U64(static_cast<std::uint64_t>(v.size()));
  F64Array(v.data(), v.size());
}

void WireWriter::U64Vec(const std::vector<std::uint64_t>& v) {
  U64(static_cast<std::uint64_t>(v.size()));
  for (std::uint64_t x : v) U64(x);
}

void WireWriter::Raw(const void* data, std::size_t n) {
  const std::uint8_t* bytes = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), bytes, bytes + n);
}

// ---------------------------------------------------------------------------
// WireReader

Status WireReader::Need(std::size_t n, const char* what) {
  if (size_ - offset_ < n) {
    return Status::InvalidProblem(TruncatedMessage(what));
  }
  if (available_ - offset_ < n) {
    needed_ = offset_ + n;
    return Status::Unavailable(std::string("payload still arriving at ") +
                               what);
  }
  return Status::Ok();
}

Status WireReader::U8(std::uint8_t* out, const char* what) {
  HTDP_RETURN_IF_ERROR(Need(1, what));
  *out = data_[offset_++];
  return Status::Ok();
}

Status WireReader::U16(std::uint16_t* out, const char* what) {
  HTDP_RETURN_IF_ERROR(Need(2, what));
  *out = static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(data_[offset_]) |
      static_cast<std::uint16_t>(data_[offset_ + 1]) << 8);
  offset_ += 2;
  return Status::Ok();
}

Status WireReader::U32(std::uint32_t* out, const char* what) {
  HTDP_RETURN_IF_ERROR(Need(4, what));
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[offset_ + i]) << (8 * i);
  }
  offset_ += 4;
  *out = v;
  return Status::Ok();
}

Status WireReader::U64(std::uint64_t* out, const char* what) {
  HTDP_RETURN_IF_ERROR(Need(8, what));
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[offset_ + i]) << (8 * i);
  }
  offset_ += 8;
  *out = v;
  return Status::Ok();
}

Status WireReader::I32(std::int32_t* out, const char* what) {
  std::uint32_t raw = 0;
  HTDP_RETURN_IF_ERROR(U32(&raw, what));
  *out = static_cast<std::int32_t>(raw);
  return Status::Ok();
}

Status WireReader::F64(double* out, const char* what) {
  std::uint64_t raw = 0;
  HTDP_RETURN_IF_ERROR(U64(&raw, what));
  *out = std::bit_cast<double>(raw);
  return Status::Ok();
}

Status WireReader::Bool(bool* out, const char* what) {
  std::uint8_t raw = 0;
  HTDP_RETURN_IF_ERROR(U8(&raw, what));
  if (raw > 1) {
    return Status::InvalidProblem(std::string("non-boolean byte reading ") +
                                  what);
  }
  *out = raw != 0;
  return Status::Ok();
}

Status WireReader::Str(std::string* out, const char* what) {
  std::uint32_t length = 0;
  HTDP_RETURN_IF_ERROR(U32(&length, what));
  HTDP_RETURN_IF_ERROR(Need(length, what));
  out->assign(reinterpret_cast<const char*>(data_ + offset_), length);
  offset_ += length;
  return Status::Ok();
}

Status WireReader::F64Vec(std::vector<double>* out, const char* what) {
  std::uint64_t count = 0;
  HTDP_RETURN_IF_ERROR(U64(&count, what));
  // Validate the declared count against the bytes actually present before
  // allocating, so a corrupted count cannot force a huge allocation.
  if (count > remaining() / 8) {
    return Status::InvalidProblem(TruncatedMessage(what));
  }
  // Present, not just declared, before the resize touches any memory.
  HTDP_RETURN_IF_ERROR(Need(static_cast<std::size_t>(count) * 8, what));
  out->resize(static_cast<std::size_t>(count));
  return F64Array(out->data(), out->size(), what);
}

Status WireReader::F64Array(double* out, std::size_t count, const char* what) {
  // Checked by division so a huge count cannot overflow the byte total.
  if (count > remaining() / sizeof(double)) {
    return Status::InvalidProblem(TruncatedMessage(what));
  }
  return Bytes(out, count * sizeof(double), what);
}

Status WireReader::U64Vec(std::vector<std::uint64_t>* out, const char* what) {
  std::uint64_t count = 0;
  HTDP_RETURN_IF_ERROR(U64(&count, what));
  if (count > remaining() / 8) {
    return Status::InvalidProblem(TruncatedMessage(what));
  }
  HTDP_RETURN_IF_ERROR(Need(static_cast<std::size_t>(count) * 8, what));
  out->resize(static_cast<std::size_t>(count));
  for (std::uint64_t& x : *out) HTDP_RETURN_IF_ERROR(U64(&x, what));
  return Status::Ok();
}

Status WireReader::Bytes(void* out, std::size_t n, const char* what) {
  HTDP_RETURN_IF_ERROR(Need(n, what));
  if (n > 0) std::memcpy(out, data_ + offset_, n);  // `out` may be null at 0
  offset_ += n;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Frames

FrameWriter::FrameWriter(FrameType type) {
  writer_.U32(kWireMagic);  // the bytes 'h' 't' 'd' 'p'
  writer_.U8(kWireVersion);
  writer_.U8(static_cast<std::uint8_t>(type));
  writer_.U16(0);  // reserved flags
  writer_.U32(0);  // payload length, patched by Finish
}

std::vector<std::uint8_t> FrameWriter::Finish(std::size_t max_payload,
                                              std::size_t trailing_bytes) && {
  std::vector<std::uint8_t> frame = writer_.Take();
  const std::size_t payload_size =
      frame.size() - kFrameHeaderBytes + trailing_bytes;
  HTDP_CHECK(payload_size <= max_payload)
      << "frame payload of " << payload_size
      << " bytes exceeds the limit of " << max_payload
      << " (chunk large messages)";
  for (std::size_t i = 0; i < 4; ++i) {
    frame[8 + i] = static_cast<std::uint8_t>(payload_size >> (8 * i));
  }
  return frame;
}

std::vector<std::uint8_t> EncodeFrame(FrameType type,
                                      const std::vector<std::uint8_t>& payload,
                                      std::size_t max_payload) {
  FrameWriter frame(type);
  frame.payload().Raw(payload.data(), payload.size());
  return std::move(frame).Finish(max_payload);
}

void FrameDecoder::Feed(const std::uint8_t* data, std::size_t n) {
  while (n > 0 && poisoned_.ok()) {
    if (!partial_.has_value()) {
      const std::size_t take = std::min(n, kFrameHeaderBytes - header_size_);
      std::memcpy(header_ + header_size_, data, take);
      header_size_ += take;
      data += take;
      n -= take;
      if (header_size_ < kFrameHeaderBytes) return;
      header_size_ = 0;
      poisoned_ = StartFrame();
      if (!poisoned_.ok()) return;
    }
    const std::size_t take = std::min(n, payload_size_ - payload_received_);
    if (partial_->sink != nullptr) {
      if (take > 0) partial_->sink->Append(data, take);
    } else {
      // Reserved to the declared length by StartFrame, so appending never
      // reallocates.
      partial_->payload.insert(partial_->payload.end(), data, data + take);
    }
    payload_received_ += take;
    data += take;
    n -= take;
    if (payload_received_ == payload_size_) {
      ready_.push_back(
          Ready{std::move(*partial_), kFrameHeaderBytes + payload_size_});
      partial_.reset();
    }
  }
}

Status FrameDecoder::StartFrame() {
  const std::uint8_t* h = header_;
  std::uint32_t magic = 0;
  for (int i = 0; i < 4; ++i) {
    magic |= static_cast<std::uint32_t>(h[i]) << (8 * i);
  }
  if (magic != kWireMagic) {
    return Status::InvalidProblem("bad frame magic (not an htdp peer?)");
  }
  if (h[4] != kWireVersion) {
    return Status::InvalidProblem(
        "unsupported wire version " + std::to_string(h[4]) +
        " (this build speaks version " + std::to_string(kWireVersion) + ")");
  }
  if (!KnownFrameType(h[5])) {
    return Status::InvalidProblem("unknown frame type " +
                                  std::to_string(h[5]));
  }
  if (h[6] != 0 || h[7] != 0) {
    return Status::InvalidProblem("reserved frame flag bits are not zero");
  }
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(h[8 + i]) << (8 * i);
  }
  if (length > max_payload_) {
    return Status::InvalidProblem(
        "oversized frame: " + std::to_string(length) +
        " payload bytes exceeds the limit of " + std::to_string(max_payload_));
  }
  partial_.emplace();
  partial_->type = static_cast<FrameType>(h[5]);
  if (sinks_) partial_->sink = sinks_(partial_->type, length);
  if (partial_->sink == nullptr) partial_->payload.reserve(length);
  payload_size_ = length;
  payload_received_ = 0;
  return Status::Ok();
}

Status FrameDecoder::Next(std::optional<Frame>* frame) {
  frame->reset();
  if (ready_.empty()) return poisoned_;
  frame->emplace(std::move(ready_.front().frame));
  ready_.pop_front();
  return Status::Ok();
}

std::size_t FrameDecoder::buffered_bytes() const {
  std::size_t bytes = header_size_;
  if (partial_.has_value()) bytes += kFrameHeaderBytes + payload_received_;
  for (const Ready& ready : ready_) bytes += ready.bytes;
  return bytes;
}

}  // namespace net
}  // namespace htdp
