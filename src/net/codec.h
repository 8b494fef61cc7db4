#ifndef HTDP_NET_CODEC_H_
#define HTDP_NET_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace htdp {
namespace net {

/// ## The htdpd wire codec: length-prefixed frames, explicit little-endian
///
/// Everything htdpd speaks is a FRAME:
///
///   offset  size  field
///   0       4     magic   'h' 't' 'd' 'p' (0x70647468 as little-endian u32)
///   4       1     version (kWireVersion)
///   5       1     type    (FrameType)
///   6       2     flags   reserved, must be zero
///   8       4     payload length in bytes (little-endian)
///   12      ...   payload
///
/// Integers are encoded little-endian BY BYTE SHIFTS -- never by casting a
/// struct or pointer onto the buffer -- so the format is identical on every
/// host and the readers have no alignment or aliasing hazards. Doubles
/// travel as their IEEE-754 bit pattern in a u64, which makes every numeric
/// payload bit-exact end to end: a dataset uploaded through the codec fits
/// to the same bits as the in-process original.
///
/// Double ARRAYS (F64Array, F64Vec, a dataset's x and y blocks) are the one
/// exception to the shifts: they move as raw bytes after the bounds check
/// -- one memcpy, or, for a SUBMIT's dataset, straight from and into the
/// Matrix storage at each end. On a little-endian host -- the only kind
/// this codec builds for, by static_assert -- a double's in-memory bytes
/// ARE its little-endian u64 encoding, so the bulk copy puts the same bytes
/// on the wire as the per-element shifts would (tests/codec_test.cc pins
/// them by checksum).
///
/// This is the daemon's trust boundary, so the decoding contract is strict:
/// a malformed, truncated, corrupted-length or oversized frame surfaces as a
/// typed error Status (util/status.h taxonomy, kInvalidProblem) and NEVER
/// crashes, allocates unboundedly, or aborts the process
/// (tests/codec_test.cc sweeps these cases under sanitizers).
inline constexpr std::uint32_t kWireMagic = 0x70647468u;  // "htdp"
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 12;

/// Hard ceiling on a single frame's payload, defending the daemon against a
/// hostile 4 GiB length prefix. Large enough for the biggest practical
/// dataset upload (64 MiB ~ a 1M x 8 or 16k x 512 double matrix); results
/// larger than one frame stream as RESULT_CHUNK frames instead.
inline constexpr std::size_t kDefaultMaxPayloadBytes = 64u << 20;

/// Streamed FitResult payloads are cut into chunks of at most this size so
/// one giant result cannot monopolize a connection's write buffer.
inline constexpr std::size_t kResultChunkBytes = 256u << 10;

/// Every message type of protocol version 1. Values are wire-stable: never
/// renumber, only append. (6 was reserved for a dedicated CANCEL_OK and is
/// intentionally unused -- CANCEL replies with a JOB_STATE frame.)
enum class FrameType : std::uint8_t {
  kSubmit = 1,       // client -> server: run a fit
  kSubmitOk = 2,     // server -> client: job accepted, carries the job id
  kPoll = 3,         // client -> server: query a job
  kJobState = 4,     // server -> client: job status (poll/cancel reply, or
                     //   pushed for streamed jobs)
  kCancel = 5,       // client -> server: cancel a job
  kStats = 7,        // client -> server: engine/tenant/daemon counters
  kStatsOk = 8,      // server -> client
  kListSolvers = 9,  // client -> server
  kSolverList = 10,  // server -> client
  kResultChunk = 11,  // server -> client: slice of a serialized FitResult
  kResultEnd = 12,    // server -> client: result complete, carries total size
  kError = 13,        // server -> client: typed request failure
  kMetrics = 14,      // client -> server: observability export request
  kMetricsOk = 15,    // server -> client: exported metrics/trace body
  kBudget = 16,       // client -> server: privacy-budget ledger snapshot
  kBudgetOk = 17,     // server -> client: per-tenant spend + durability info
};

/// True for the type values a version-1 peer understands.
bool KnownFrameType(std::uint8_t value);

/// Stable lower-case frame-type name for diagnostics, e.g. "submit".
const char* FrameTypeName(FrameType type);

/// Takes one frame's payload as it arrives, in place of Frame::payload --
/// how the daemon receives a SUBMIT's dataset straight into the job's
/// storage (OpenSubmitSink in net/serialize.h) instead of into a byte
/// buffer it would then have to decode.
class PayloadSink {
 public:
  virtual ~PayloadSink() = default;
  /// The frame's next `n` payload bytes. Over all calls, exactly the
  /// length the frame's header declared; none when that length is 0.
  virtual void Append(const std::uint8_t* data, std::size_t n) = 0;
};

/// Opens the sink for a frame of `type` whose header declares `length`
/// payload bytes, or returns null to keep that frame's bytes in
/// Frame::payload.
using PayloadSinkFactory = std::function<std::unique_ptr<PayloadSink>(
    FrameType type, std::size_t length)>;

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kError;
  /// The payload bytes, unless a PayloadSinkFactory took them into `sink`.
  std::vector<std::uint8_t> payload;
  std::unique_ptr<PayloadSink> sink;
};

/// Appends primitive values to a byte buffer in the wire encoding. All
/// multi-byte integers little-endian via shifts; see the format comment
/// above. The writer never fails: encoding is total.
class WireWriter {
 public:
  /// Makes room for `n` more bytes, so encoding them never regrows (and
  /// re-copies) the buffer.
  void Reserve(std::size_t n) { bytes_.reserve(bytes_.size() + n); }
  void U8(std::uint8_t v) { bytes_.push_back(v); }
  void U16(std::uint16_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  /// Two's-complement via the u32 carrier (well-defined both directions).
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  /// IEEE-754 bit pattern in a u64: bit-exact for every value including
  /// NaN payloads, infinities, -0.0 and denormals.
  void F64(double v);
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// u32 byte length + raw bytes (no terminator).
  void Str(const std::string& v);
  /// `count` doubles back to back with no length field: the bulk copy
  /// described in the format comment above.
  void F64Array(const double* v, std::size_t count);
  /// u64 element count + F64Array.
  void F64Vec(const std::vector<double>& v);
  /// u64 element count + per-element U64.
  void U64Vec(const std::vector<std::uint64_t>& v);
  void Raw(const void* data, std::size_t n);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Reads primitive values back out of a payload, with every read bounds-
/// checked: running past the end returns kInvalidProblem naming the field
/// ("truncated payload reading <what>") instead of touching out-of-range
/// memory. Container reads validate the declared element count against the
/// bytes actually remaining BEFORE allocating, so a corrupted count cannot
/// trigger a multi-gigabyte allocation.
///
/// Readers do not require payload exhaustion: trailing bytes they were not
/// asked to read are ignored, which is the protocol's forward-compatibility
/// rule (newer peers append fields at the end of existing payloads).
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : WireReader(data, size, size) {}
  explicit WireReader(const std::vector<std::uint8_t>& payload)
      : WireReader(payload.data(), payload.size()) {}

  /// Reads the first `available` bytes of a payload whose full length is
  /// `size` (>= available), the rest still to arrive. Reads are checked
  /// against `size`, so a field that does not fit the payload fails with
  /// the same error it would with every byte present. A read that fits
  /// but reaches past `available` instead fails with kUnavailable and
  /// records in needed() how many payload bytes it takes.
  WireReader(const std::uint8_t* data, std::size_t available, std::size_t size)
      : data_(data), size_(size), available_(available) {}

  Status U8(std::uint8_t* out, const char* what);
  Status U16(std::uint16_t* out, const char* what);
  Status U32(std::uint32_t* out, const char* what);
  Status U64(std::uint64_t* out, const char* what);
  Status I32(std::int32_t* out, const char* what);
  Status F64(double* out, const char* what);
  Status Bool(bool* out, const char* what);
  Status Str(std::string* out, const char* what);
  /// Reads `count` doubles written by WireWriter::F64Array into `out`,
  /// after checking that many bytes are present.
  Status F64Array(double* out, std::size_t count, const char* what);
  Status F64Vec(std::vector<double>* out, const char* what);
  Status U64Vec(std::vector<std::uint64_t>* out, const char* what);
  /// Copies exactly n raw bytes.
  Status Bytes(void* out, std::size_t n, const char* what);

  std::size_t remaining() const { return size_ - offset_; }
  std::size_t offset() const { return offset_; }
  /// 0, or the payload length the last read that ran past `available`
  /// needed to succeed.
  std::size_t needed() const { return needed_; }

 private:
  Status Need(std::size_t n, const char* what);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t available_;
  std::size_t offset_ = 0;
  std::size_t needed_ = 0;
};

/// Builds one frame in one buffer: the constructor writes the header with a
/// zero length, the payload encoders append behind it through payload(),
/// and Finish() patches the length in place, so the payload is never copied
/// into a second buffer.
///
/// A frame may also end in bytes the writer never holds: Client::Submit
/// encodes only a SUBMIT's head here, tells Finish how many dataset bytes
/// follow, and sends the head and the caller's Matrix storage in one gather
/// write (ByteStream::Send). The wire bytes are the same as when the whole
/// payload is encoded into the writer.
class FrameWriter {
 public:
  explicit FrameWriter(FrameType type);

  /// Where the payload goes; it already holds the header.
  WireWriter& payload() { return writer_; }

  /// The finished frame -- or its head, when `trailing_bytes` more payload
  /// bytes will be sent right behind it: the length field counts them.
  /// Aborts via HTDP_CHECK if the payload exceeds `max_payload` -- oversized
  /// frames are a programming error on the sending side (results are
  /// chunked, and Client::Submit refuses an oversized SUBMIT up front).
  std::vector<std::uint8_t> Finish(
      std::size_t max_payload = kDefaultMaxPayloadBytes,
      std::size_t trailing_bytes = 0) &&;

 private:
  WireWriter writer_;
};

/// Encodes a complete frame (header + a copy of `payload`) through
/// FrameWriter, with the same abort on an oversized payload.
std::vector<std::uint8_t> EncodeFrame(
    FrameType type, const std::vector<std::uint8_t>& payload,
    std::size_t max_payload = kDefaultMaxPayloadBytes);

/// Incremental frame extractor over a byte stream: feed it whatever the
/// socket produced, then pull complete frames out. Unlike the payload
/// readers it is stateful, because TCP has no message boundaries.
///
/// Each frame's payload is written once. Feed validates a header as soon as
/// its last byte arrives; only a header that passes opens the frame. Its
/// payload bytes are then copied straight from the socket chunk either into
/// Frame::payload, reserved from the declared length, or -- for a type the
/// PayloadSinkFactory claims -- into the sink it opened, which decodes them
/// as they arrive. Next hands the finished frame out by move. The daemon
/// streams SUBMIT this way, so a dataset block is written once, into the
/// job's own Matrix, and never sits in a payload buffer.
///
/// Error contract: Next() returning a non-ok Status means the STREAM is
/// poisoned (bad magic, unsupported version, reserved flag bits, unknown
/// type, oversized length) -- there is no way to re-synchronize a
/// length-prefixed stream after a corrupt header, so the connection must be
/// closed (after sending a best-effort ERROR frame). Frames completed before
/// the corrupt header are still handed out first. A truncated stream is NOT
/// an error: Next() just reports no-frame-yet until more bytes arrive.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kDefaultMaxPayloadBytes,
                        PayloadSinkFactory sinks = nullptr)
      : max_payload_(max_payload), sinks_(std::move(sinks)) {}

  /// Consumes raw socket bytes: validates each header once complete and
  /// hands payload bytes to their frame. After a corrupt header the rest of
  /// the stream is dropped.
  void Feed(const std::uint8_t* data, std::size_t n);

  /// Extracts the next complete frame:
  ///   ok,  frame set   -> one frame decoded, call again (more may be ready)
  ///   ok,  frame empty -> need more bytes
  ///   !ok              -> protocol violation; close the connection
  /// After an error the decoder stays poisoned and keeps returning it.
  Status Next(std::optional<Frame>* frame);

  /// Bytes fed but not yet handed out by Next (complete frames waiting plus
  /// the frame still arriving, whether its payload sits in Frame::payload
  /// or has gone to a sink). Nonzero between frames means the peer owes
  /// bytes: the daemon arms its read deadline on it.
  std::size_t buffered_bytes() const;

 private:
  struct Ready {
    Frame frame;
    std::size_t bytes = 0;  // header plus payload, as received
  };

  /// Validates the complete header_ and opens partial_ for its payload.
  Status StartFrame();

  std::size_t max_payload_;
  PayloadSinkFactory sinks_;      // null: every payload stays in bytes
  std::uint8_t header_[kFrameHeaderBytes] = {};
  std::size_t header_size_ = 0;   // bytes of header_ received so far
  std::optional<Frame> partial_;  // header accepted, payload still arriving
  std::size_t payload_size_ = 0;  // partial_'s declared payload length
  std::size_t payload_received_ = 0;  // partial_'s payload bytes so far
  std::deque<Ready> ready_;       // complete frames Next has not handed out
  Status poisoned_ = Status::Ok();
};

}  // namespace net
}  // namespace htdp

#endif  // HTDP_NET_CODEC_H_
