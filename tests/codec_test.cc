// Property tests for the htdpd wire codec (net/codec.h) and the message
// serializers (net/serialize.h): every message type round-trips bit-exactly,
// and -- this being the daemon's trust boundary -- every malformed,
// truncated, corrupted-length, wrong-magic or oversized frame surfaces as a
// typed Status and NEVER crashes. CI runs this suite under ASan and UBSan.

#include "net/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "dp/budget_store.h"
#include "net/serialize.h"
#include "net/wire_status.h"
#include "rng/rng.h"
#include "util/status.h"

namespace htdp {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// Primitive round-trips

TEST(WireCodec, PrimitivesRoundTrip) {
  WireWriter w;
  w.U8(0xab);
  w.U16(0xbeef);
  w.U32(0xdeadbeefu);
  w.U64(0x0123456789abcdefull);
  w.I32(-7);
  w.Bool(true);
  w.Bool(false);
  w.Str("heavy-tailed");
  w.Str("");
  w.F64Vec({1.0, -2.5, 3.25});
  w.U64Vec({5, 6});

  WireReader r(w.bytes());
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int32_t i32 = 0;
  bool yes = false, no = true;
  std::string str, empty;
  std::vector<double> doubles;
  std::vector<std::uint64_t> words;
  ASSERT_TRUE(r.U8(&u8, "u8").ok());
  ASSERT_TRUE(r.U16(&u16, "u16").ok());
  ASSERT_TRUE(r.U32(&u32, "u32").ok());
  ASSERT_TRUE(r.U64(&u64, "u64").ok());
  ASSERT_TRUE(r.I32(&i32, "i32").ok());
  ASSERT_TRUE(r.Bool(&yes, "yes").ok());
  ASSERT_TRUE(r.Bool(&no, "no").ok());
  ASSERT_TRUE(r.Str(&str, "str").ok());
  ASSERT_TRUE(r.Str(&empty, "empty").ok());
  ASSERT_TRUE(r.F64Vec(&doubles, "doubles").ok());
  ASSERT_TRUE(r.U64Vec(&words, "words").ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0xbeef);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i32, -7);
  EXPECT_TRUE(yes);
  EXPECT_FALSE(no);
  EXPECT_EQ(str, "heavy-tailed");
  EXPECT_EQ(empty, "");
  EXPECT_EQ(doubles, (std::vector<double>{1.0, -2.5, 3.25}));
  EXPECT_EQ(words, (std::vector<std::uint64_t>{5, 6}));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireCodec, DoublesAreBitExactIncludingSpecials) {
  const double specials[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::min(),
      1.0 / 3.0,
  };
  for (double value : specials) {
    WireWriter w;
    w.F64(value);
    WireReader r(w.bytes());
    double back = 0.0;
    ASSERT_TRUE(r.F64(&back, "value").ok());
    std::uint64_t value_bits, back_bits;
    std::memcpy(&value_bits, &value, 8);
    std::memcpy(&back_bits, &back, 8);
    EXPECT_EQ(value_bits, back_bits);  // bitwise, so NaN and -0.0 count
  }
}

TEST(WireCodec, LittleEndianLayoutIsPinned) {
  WireWriter w;
  w.U32(0x04030201u);
  ASSERT_EQ(w.bytes().size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x01);
  EXPECT_EQ(w.bytes()[1], 0x02);
  EXPECT_EQ(w.bytes()[2], 0x03);
  EXPECT_EQ(w.bytes()[3], 0x04);
}

// ---------------------------------------------------------------------------
// Wire byte pins: the exact bytes of a SUBMIT and a FitResult, specials
// included. The checksums were taken from the per-element shift codec, so
// they prove any faster encoding still puts the same bytes on the wire.

double FromBits(std::uint64_t bits) { return std::bit_cast<double>(bits); }

// Every IEEE-754 class whose bits a careless codec could alter: NaNs with
// payloads (quiet and signalling, both signs), -0.0, denormals, infinities.
std::vector<double> SpecialDoubles() {
  return {
      FromBits(0x7ff8000000000123ull),  // quiet NaN, payload 0x123
      FromBits(0xfff80000deadbeefull),  // negative quiet NaN with payload
      FromBits(0x7ff0000000000001ull),  // signalling NaN
      -0.0,
      0.0,
      std::numeric_limits<double>::denorm_min(),
      -FromBits(0x000fffffffffffffull),  // largest negative denormal
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::max(),
      1.0 / 3.0,
      -2.5e-300,
  };
}

SubmitRequest PinnedSubmit() {
  SubmitRequest request;
  request.tenant = "acme";
  request.solver = "alg1_dp_fw";
  request.tag = "pin";
  request.seed = 0x0123456789abcdefull;
  request.deadline_seconds = 2.5;
  request.stream = true;
  request.spec.budget = PrivacyBudget::Approx(0.75, 1e-6);
  request.spec.accounting = Accounting::kZcdp;
  request.spec.iterations = 17;
  request.spec.sparsity = 3;
  request.spec.tau = -0.0;
  request.problem.loss = kWireLossHuber;
  request.problem.loss_param = 1.345;
  request.problem.constraint = WireConstraint::kL1Ball;
  request.problem.constraint_radius = 2.0;
  request.problem.prefix = 5;
  request.problem.target_sparsity = 2;
  const std::vector<double> specials = SpecialDoubles();
  request.problem.w0 = specials;
  request.problem.data.x = Matrix(4, 3);
  for (std::size_t i = 0; i < 12; ++i) {
    request.problem.data.x.data()[i] = specials[(i * 5) % specials.size()];
  }
  request.problem.data.y = {specials[0], specials[3], specials[5], specials[8]};
  return request;
}

FitResult PinnedFitResult() {
  FitResult result;
  result.w = SpecialDoubles();
  result.iterations = 9;
  result.scale_used = -0.0;
  result.shrinkage_used = std::numeric_limits<double>::denorm_min();
  result.sparsity_used = 2;
  result.selected = {7, 0, 3};
  result.risk_trace = {FromBits(0x7ff8000000000042ull), 0.5,
                       std::numeric_limits<double>::infinity()};
  result.seconds = 0.125;
  result.ledger.SetAccounting(Accounting::kAdvanced, 1e-7);
  result.ledger.Record({"gaussian", 0.2, 1e-7, 1.0, -1, 0.02});
  return result;
}

TEST(WireBytePin, SubmitBytesAreUnchanged) {
  WireWriter writer;
  EncodeSubmit(writer, PinnedSubmit());
  const std::vector<std::uint8_t>& bytes = writer.bytes();
  EXPECT_EQ(bytes.size(), 439u);
  EXPECT_EQ(dp::Crc32(bytes.data(), bytes.size()), 0x37236eabu);
  const std::vector<std::uint8_t> frame =
      EncodeFrame(FrameType::kSubmit, bytes);
  EXPECT_EQ(dp::Crc32(frame.data(), frame.size()), 0x6df14e29u);
}

TEST(WireBytePin, FitResultBytesAreUnchanged) {
  WireWriter writer;
  EncodeFitResult(writer, PinnedFitResult());
  const std::vector<std::uint8_t>& bytes = writer.bytes();
  EXPECT_EQ(bytes.size(), 265u);
  EXPECT_EQ(dp::Crc32(bytes.data(), bytes.size()), 0x01743ab6u);
}

TEST(WireBytePin, SpecialsRoundTripBitExactly) {
  WireWriter writer;
  EncodeSubmit(writer, PinnedSubmit());
  WireReader reader(writer.bytes());
  SubmitRequest out;
  ASSERT_TRUE(DecodeSubmit(reader, &out).ok());
  const SubmitRequest in = PinnedSubmit();
  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), 8 * a.size()) == 0;
  };
  EXPECT_TRUE(same_bits(out.problem.w0, in.problem.w0));
  EXPECT_TRUE(same_bits(out.problem.data.x.data(), in.problem.data.x.data()));
  EXPECT_TRUE(same_bits(out.problem.data.y, in.problem.data.y));
}

TEST(WireBytePin, InPlaceSubmitFrameMatchesTheCopiedOne) {
  // The client frames a SUBMIT in one buffer; its bytes must equal the
  // payload-then-EncodeFrame route pinned above, and EncodedSubmitBytes
  // must be exact (it sizes that buffer).
  const SubmitRequest request = PinnedSubmit();
  EXPECT_EQ(EncodedSubmitBytes(request), 439u);
  FrameWriter frame(FrameType::kSubmit);
  EncodeSubmit(frame.payload(), request);
  const std::vector<std::uint8_t> bytes = std::move(frame).Finish();
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + 439u);
  EXPECT_EQ(dp::Crc32(bytes.data(), bytes.size()), 0x6df14e29u);
}

TEST(WireCodec, BulkDoubleArrayTruncationIsATypedError) {
  WireWriter w;
  const double values[3] = {1.0, -0.0, 2.0};
  w.F64Array(values, 3);
  WireReader r(w.bytes());
  double out[4] = {};
  const Status status = r.F64Array(out, 4, "dataset.x");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidProblem);
  EXPECT_NE(status.message().find("dataset.x"), std::string::npos);
  EXPECT_EQ(r.remaining(), 24u);  // nothing consumed
  // A count whose byte total would overflow is rejected the same way.
  EXPECT_FALSE(r.F64Array(out, ~std::size_t{0} / 4, "dataset.y").ok());
  ASSERT_TRUE(r.F64Array(out, 3, "dataset.x").ok());
  EXPECT_EQ(std::memcmp(out, values, sizeof(values)), 0);
}

// ---------------------------------------------------------------------------
// Reader error paths: typed, named, never out-of-bounds

TEST(WireCodec, TruncatedReadsNameTheField) {
  WireWriter w;
  w.U16(7);
  WireReader r(w.bytes());
  std::uint64_t u64 = 0;
  const Status status = r.U64(&u64, "stats.submitted");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidProblem);
  EXPECT_NE(status.message().find("stats.submitted"), std::string::npos);
}

TEST(WireCodec, CorruptedVectorCountCannotForceAllocation) {
  // A count claiming ~2^61 elements with 8 bytes of payload behind it must
  // be rejected before any resize happens.
  WireWriter w;
  w.U64(0x2000000000000000ull);
  w.F64(1.0);
  WireReader r(w.bytes());
  std::vector<double> out;
  const Status status = r.F64Vec(&out, "w");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidProblem);
  EXPECT_TRUE(out.empty());
}

TEST(WireCodec, CorruptedStringLengthIsATypedError) {
  WireWriter w;
  w.U32(0xffffffffu);  // length prefix with no bytes behind it
  WireReader r(w.bytes());
  std::string out;
  EXPECT_EQ(r.Str(&out, "solver").code(), StatusCode::kInvalidProblem);
}

TEST(WireCodec, NonBooleanByteIsATypedError) {
  WireWriter w;
  w.U8(2);
  WireReader r(w.bytes());
  bool out = false;
  EXPECT_EQ(r.Bool(&out, "stream").code(), StatusCode::kInvalidProblem);
}

TEST(WireCodec, TrailingBytesAreForwardCompatible) {
  // A newer peer appends fields; an older reader must ignore them.
  WireWriter w;
  w.U32(11);
  w.Str("future-field");
  WireReader r(w.bytes());
  std::uint32_t known = 0;
  ASSERT_TRUE(r.U32(&known, "known").ok());
  EXPECT_EQ(known, 11u);
  EXPECT_GT(r.remaining(), 0u);  // tolerated, not an error
}

// ---------------------------------------------------------------------------
// Frame round-trips

Frame MustDecodeOne(const std::vector<std::uint8_t>& wire) {
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  std::optional<Frame> frame;
  EXPECT_TRUE(decoder.Next(&frame).ok());
  EXPECT_TRUE(frame.has_value());
  return std::move(*frame);
}

TEST(FrameCodec, RoundTripsEveryFrameType) {
  const FrameType all[] = {
      FrameType::kSubmit,      FrameType::kSubmitOk,
      FrameType::kPoll,        FrameType::kJobState,
      FrameType::kCancel,      FrameType::kStats,
      FrameType::kStatsOk,     FrameType::kListSolvers,
      FrameType::kSolverList,  FrameType::kResultChunk,
      FrameType::kResultEnd,   FrameType::kError,
  };
  for (FrameType type : all) {
    const std::vector<std::uint8_t> payload = {1, 2, 3, 0xff, 0};
    const Frame frame = MustDecodeOne(EncodeFrame(type, payload));
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.payload, payload);
  }
}

TEST(FrameCodec, ByteAtATimeFeedingFindsEveryFrame) {
  // TCP has no message boundaries: the decoder must reassemble frames fed
  // one byte at a time, including several frames back to back.
  std::vector<std::uint8_t> wire = EncodeFrame(FrameType::kStats, {});
  const std::vector<std::uint8_t> second =
      EncodeFrame(FrameType::kPoll, {9, 9, 9});
  wire.insert(wire.end(), second.begin(), second.end());

  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (std::uint8_t byte : wire) {
    decoder.Feed(&byte, 1);
    while (true) {
      std::optional<Frame> frame;
      ASSERT_TRUE(decoder.Next(&frame).ok());
      if (!frame.has_value()) break;
      frames.push_back(std::move(*frame));
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kStats);
  EXPECT_EQ(frames[1].type, FrameType::kPoll);
  EXPECT_EQ(frames[1].payload, (std::vector<std::uint8_t>{9, 9, 9}));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

// Feeds `wire` to a fresh decoder in the given chunk sizes (the last one
// repeats), draining after every chunk.
std::vector<Frame> FeedInChunks(const std::vector<std::uint8_t>& wire,
                                const std::vector<std::size_t>& chunks) {
  FrameDecoder decoder;
  std::vector<Frame> frames;
  std::size_t offset = 0;
  for (std::size_t i = 0; offset < wire.size(); ++i) {
    const std::size_t take =
        std::min(chunks[std::min(i, chunks.size() - 1)], wire.size() - offset);
    decoder.Feed(wire.data() + offset, take);
    offset += take;
    while (true) {
      std::optional<Frame> frame;
      EXPECT_TRUE(decoder.Next(&frame).ok());
      if (!frame.has_value()) break;
      frames.push_back(std::move(*frame));
    }
  }
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  return frames;
}

TEST(FrameCodec, MultiMegabyteFrameReassemblesFromSocketChunks) {
  // A 3 MB SUBMIT-sized payload arrives in 64 KiB reads, as the daemon's
  // event loop delivers it, and a small POLL is pipelined behind it so it
  // lands in the same read as the big frame's last bytes.
  std::vector<std::uint8_t> big(3u << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 131 + (i >> 16));
  }
  const std::vector<std::uint8_t> small = {7, 0, 0, 0, 0, 0, 0, 0, 1};
  std::vector<std::uint8_t> wire = EncodeFrame(FrameType::kSubmit, big);
  const std::vector<std::uint8_t> tail = EncodeFrame(FrameType::kPoll, small);
  wire.insert(wire.end(), tail.begin(), tail.end());
  const std::size_t chunk = 64u << 10;
  ASSERT_EQ((kFrameHeaderBytes + big.size() - 1) / chunk,
            (wire.size() - 1) / chunk);  // both frames end in one chunk

  const std::vector<Frame> frames = FeedInChunks(wire, {chunk});
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kSubmit);
  EXPECT_TRUE(frames[0].payload == big);
  EXPECT_EQ(frames[1].type, FrameType::kPoll);
  EXPECT_EQ(frames[1].payload, small);
}

TEST(FrameCodec, HeaderSplitAtEveryOffsetReassembles) {
  // Two frames back to back, the stream cut once at every offset inside
  // the first header and inside the second one.
  const std::vector<std::uint8_t> first_payload(1000, 0x5a);
  std::vector<std::uint8_t> wire =
      EncodeFrame(FrameType::kResultChunk, first_payload);
  const std::size_t second_at = wire.size();
  const std::vector<std::uint8_t> second =
      EncodeFrame(FrameType::kJobState, {3, 1, 4});
  wire.insert(wire.end(), second.begin(), second.end());
  for (std::size_t base : {std::size_t{0}, second_at}) {
    for (std::size_t cut = 1; cut < kFrameHeaderBytes; ++cut) {
      SCOPED_TRACE("cut at byte " + std::to_string(base + cut));
      const std::vector<Frame> frames =
          FeedInChunks(wire, {base + cut, wire.size()});
      ASSERT_EQ(frames.size(), 2u);
      EXPECT_EQ(frames[0].type, FrameType::kResultChunk);
      EXPECT_EQ(frames[0].payload, first_payload);
      EXPECT_EQ(frames[1].type, FrameType::kJobState);
      EXPECT_EQ(frames[1].payload, (std::vector<std::uint8_t>{3, 1, 4}));
    }
  }
}

TEST(FrameCodec, FramesBeforeACorruptHeaderAreStillDelivered) {
  std::vector<std::uint8_t> wire = EncodeFrame(FrameType::kPoll, {1, 2});
  std::vector<std::uint8_t> bad = EncodeFrame(FrameType::kPoll, {3});
  bad[0] = 'X';
  wire.insert(wire.end(), bad.begin(), bad.end());
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  std::optional<Frame> frame;
  ASSERT_TRUE(decoder.Next(&frame).ok());
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, (std::vector<std::uint8_t>{1, 2}));
  EXPECT_FALSE(decoder.Next(&frame).ok());
  EXPECT_FALSE(frame.has_value());
}

// ---------------------------------------------------------------------------
// Hostile frames: every corruption is a typed error, never a crash

std::vector<std::uint8_t> GoodFrame() {
  return EncodeFrame(FrameType::kPoll, {1, 2, 3, 4});
}

Status DecodeError(std::vector<std::uint8_t> wire) {
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  std::optional<Frame> frame;
  Status status = Status::Ok();
  // Drain until the decoder errors or runs dry.
  while (status.ok()) {
    status = decoder.Next(&frame);
    if (status.ok() && !frame.has_value()) break;
  }
  return status;
}

TEST(FrameCodec, WrongMagicPoisonsTheStream) {
  std::vector<std::uint8_t> wire = GoodFrame();
  wire[0] = 'X';
  const Status status = DecodeError(wire);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidProblem);
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST(FrameCodec, UnsupportedVersionIsRejectedWithBothVersions) {
  std::vector<std::uint8_t> wire = GoodFrame();
  wire[4] = 9;
  const Status status = DecodeError(wire);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find('9'), std::string::npos);
  EXPECT_NE(status.message().find(std::to_string(kWireVersion)),
            std::string::npos);
}

TEST(FrameCodec, UnknownFrameTypeIsRejected) {
  std::vector<std::uint8_t> wire = GoodFrame();
  wire[5] = 200;
  EXPECT_FALSE(DecodeError(wire).ok());
  wire = GoodFrame();
  wire[5] = 0;  // 0 was never assigned
  EXPECT_FALSE(DecodeError(wire).ok());
  wire = GoodFrame();
  wire[5] = 6;  // reserved, intentionally unused
  EXPECT_FALSE(DecodeError(wire).ok());
}

TEST(FrameCodec, ReservedFlagBitsMustBeZero) {
  std::vector<std::uint8_t> wire = GoodFrame();
  wire[6] = 1;
  EXPECT_FALSE(DecodeError(wire).ok());
  wire = GoodFrame();
  wire[7] = 0x80;
  EXPECT_FALSE(DecodeError(wire).ok());
}

TEST(FrameCodec, OversizedLengthIsRejectedBeforeBuffering) {
  // Header declares a 4 GiB payload; the decoder must refuse at the header,
  // with only 12 bytes in hand.
  std::vector<std::uint8_t> wire = GoodFrame();
  wire[8] = 0xff;
  wire[9] = 0xff;
  wire[10] = 0xff;
  wire[11] = 0xff;
  wire.resize(kFrameHeaderBytes);
  const Status status = DecodeError(wire);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("oversized"), std::string::npos);
}

TEST(FrameCodec, SmallerMaxPayloadIsEnforced) {
  FrameDecoder decoder(/*max_payload=*/8);
  std::vector<std::uint8_t> wire =
      EncodeFrame(FrameType::kPoll, std::vector<std::uint8_t>(9, 0));
  decoder.Feed(wire.data(), wire.size());
  std::optional<Frame> frame;
  EXPECT_FALSE(decoder.Next(&frame).ok());
}

TEST(FrameCodec, PoisonedDecoderStaysPoisoned) {
  std::vector<std::uint8_t> wire = GoodFrame();
  wire[0] = 'X';
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  std::optional<Frame> frame;
  EXPECT_FALSE(decoder.Next(&frame).ok());
  // Feeding perfectly good bytes afterwards cannot revive the stream.
  const std::vector<std::uint8_t> good = GoodFrame();
  decoder.Feed(good.data(), good.size());
  EXPECT_FALSE(decoder.Next(&frame).ok());
  EXPECT_FALSE(frame.has_value());
}

TEST(FrameCodec, EveryTruncationPrefixIsJustIncomplete) {
  // A truncated stream is not corruption: every strict prefix of a valid
  // frame must report "no frame yet" with no error.
  const std::vector<std::uint8_t> wire = GoodFrame();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Feed(wire.data(), cut);
    std::optional<Frame> frame;
    ASSERT_TRUE(decoder.Next(&frame).ok()) << "prefix length " << cut;
    EXPECT_FALSE(frame.has_value()) << "prefix length " << cut;
  }
}

TEST(FrameCodec, RandomSingleByteFlipsNeverCrash) {
  // Deterministic fuzz sweep: flip one byte anywhere in a frame carrying a
  // real SUBMIT payload and decode. Any outcome is fine except a crash or a
  // sanitizer report; if a frame comes out, its payload decode must also
  // only ever produce typed errors.
  Rng rng(20260807);
  SubmitRequest request;
  request.tenant = "acme";
  request.solver = "alg1_dp_fw";
  request.seed = 17;
  request.problem.loss = kWireLossSquared;
  request.problem.constraint = WireConstraint::kL1Ball;
  request.problem.constraint_radius = 1.0;
  request.problem.data.x = Matrix(4, 3);
  request.problem.data.y = {1.0, -1.0, 0.5, 0.25};
  WireWriter writer;
  EncodeSubmit(writer, request);
  const std::vector<std::uint8_t> wire =
      EncodeFrame(FrameType::kSubmit, writer.bytes());

  for (std::size_t pos = 0; pos < wire.size(); ++pos) {
    for (int trial = 0; trial < 2; ++trial) {
      std::vector<std::uint8_t> corrupt = wire;
      corrupt[pos] ^= static_cast<std::uint8_t>(1 + rng.Next() % 255);
      FrameDecoder decoder;
      decoder.Feed(corrupt.data(), corrupt.size());
      while (true) {
        std::optional<Frame> frame;
        if (!decoder.Next(&frame).ok() || !frame.has_value()) break;
        WireReader reader(frame->payload);
        SubmitRequest out;
        (void)DecodeSubmit(reader, &out);  // typed error or success; no crash
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Message-level round-trips (serialize.h)

TEST(Serialize, SubmitRequestRoundTripsBitExactly) {
  Rng rng(99);
  SubmitRequest request;
  request.tenant = "acme";
  request.solver = "alg5_sparse_opt";
  request.tag = "trial-7";
  request.seed = 0xfeedfacecafebeefull;
  request.deadline_seconds = 12.5;
  request.stream = true;
  request.spec.budget = PrivacyBudget::Approx(0.7, 1e-5);
  request.spec.accounting = Accounting::kZcdp;
  request.spec.iterations = 42;
  request.spec.sparsity = 5;
  request.spec.beta = 2.25;
  request.spec.record_risk_trace = true;
  request.problem.loss = kWireLossHuber;
  request.problem.loss_param = 1.345;
  request.problem.constraint = WireConstraint::kSimplex;
  request.problem.prefix = 3;
  request.problem.target_sparsity = 2;
  request.problem.w0 = {0.5, 0.25, 0.125, 0.0625};
  request.problem.data.x = Matrix(3, 4);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      request.problem.data.x(i, j) = rng.UniformUnit() * 1e6 - 5e5;
    }
  }
  request.problem.data.y = {rng.UniformUnit(), -rng.UniformUnit(), 1e-308};

  WireWriter writer;
  EncodeSubmit(writer, request);
  WireReader reader(writer.bytes());
  SubmitRequest out;
  ASSERT_TRUE(DecodeSubmit(reader, &out).ok());

  EXPECT_EQ(out.tenant, request.tenant);
  EXPECT_EQ(out.solver, request.solver);
  EXPECT_EQ(out.tag, request.tag);
  EXPECT_EQ(out.seed, request.seed);
  EXPECT_EQ(out.deadline_seconds, request.deadline_seconds);
  EXPECT_EQ(out.stream, request.stream);
  EXPECT_EQ(out.spec.budget.epsilon, request.spec.budget.epsilon);
  EXPECT_EQ(out.spec.budget.delta, request.spec.budget.delta);
  EXPECT_EQ(out.spec.accounting, request.spec.accounting);
  EXPECT_EQ(out.spec.iterations, request.spec.iterations);
  EXPECT_EQ(out.spec.sparsity, request.spec.sparsity);
  EXPECT_EQ(out.spec.beta, request.spec.beta);
  EXPECT_EQ(out.spec.record_risk_trace, request.spec.record_risk_trace);
  EXPECT_EQ(out.problem.loss, request.problem.loss);
  EXPECT_EQ(out.problem.loss_param, request.problem.loss_param);
  EXPECT_EQ(out.problem.constraint, request.problem.constraint);
  EXPECT_EQ(out.problem.prefix, request.problem.prefix);
  EXPECT_EQ(out.problem.target_sparsity, request.problem.target_sparsity);
  EXPECT_EQ(out.problem.w0, request.problem.w0);
  EXPECT_EQ(out.problem.data.x.data(), request.problem.data.x.data());
  EXPECT_EQ(out.problem.data.y, request.problem.data.y);
}

TEST(Serialize, FitResultRoundTripsLedgerAndTrace) {
  FitResult result;
  result.w = {1.0 / 3.0, -2.0 / 7.0, 0.0};
  result.iterations = 23;
  result.scale_used = 3.75;
  result.shrinkage_used = 1.5;
  result.sparsity_used = 2;
  result.selected = {4, 1};
  result.risk_trace = {0.9, 0.5, 0.25};
  result.seconds = 0.0125;
  result.ledger.SetAccounting(Accounting::kAdvanced, 1e-6);
  result.ledger.Record({"exponential", 0.1, 0.0, 2.0, 3, 0.0});
  result.ledger.Record({"gaussian", 0.2, 1e-7, 1.0, -1, 0.02});

  WireWriter writer;
  EncodeFitResult(writer, result);
  WireReader reader(writer.bytes());
  FitResult out;
  ASSERT_TRUE(DecodeFitResult(reader, &out).ok());

  EXPECT_EQ(out.w, result.w);
  EXPECT_EQ(out.iterations, result.iterations);
  EXPECT_EQ(out.scale_used, result.scale_used);
  EXPECT_EQ(out.shrinkage_used, result.shrinkage_used);
  EXPECT_EQ(out.sparsity_used, result.sparsity_used);
  EXPECT_EQ(out.selected, result.selected);
  EXPECT_EQ(out.risk_trace, result.risk_trace);
  EXPECT_EQ(out.seconds, result.seconds);
  EXPECT_EQ(out.ledger.accounting(), Accounting::kAdvanced);
  EXPECT_EQ(out.ledger.conversion_delta(), 1e-6);
  ASSERT_EQ(out.ledger.entries().size(), 2u);
  EXPECT_EQ(out.ledger.entries()[0].mechanism, "exponential");
  EXPECT_EQ(out.ledger.entries()[0].fold, 3);
  EXPECT_EQ(out.ledger.entries()[1].rho, 0.02);
}

TEST(Serialize, StatsAndSolverListAndErrorRoundTrip) {
  StatsReply stats;
  stats.engine.submitted = 10;
  stats.engine.completed = 9;
  stats.engine.succeeded = 8;
  stats.engine.failed = 1;
  stats.engine.cancelled = 2;
  stats.engine.deadline_exceeded = 3;
  stats.engine.budget_rejected = 4;
  stats.engine.queue_depth = 5;
  stats.engine.running = 6;
  stats.engine.uptime_seconds = 7.25;
  stats.engine.jobs_per_second = 123.5;
  stats.engine.unavailable_rejected = 11;
  stats.engine.shed_expired = 12;
  stats.engine.overloaded = true;
  stats.tenants.push_back(
      {"acme", PrivacyBudget::Approx(2.0, 0.1), PrivacyBudget::Approx(1.5, 0.05),
       3, 1, 0});
  stats.connections = 4;
  stats.retained_jobs = 7;
  stats.draining = true;
  const auto expect_decoded = [&](const std::vector<std::uint8_t>& bytes) {
    WireReader r(bytes);
    StatsReply out;
    ASSERT_TRUE(DecodeStats(r, &out).ok());
    EXPECT_EQ(out.engine.submitted, 10u);
    EXPECT_EQ(out.engine.completed, 9u);
    EXPECT_EQ(out.engine.succeeded, 8u);
    EXPECT_EQ(out.engine.failed, 1u);
    EXPECT_EQ(out.engine.cancelled, 2u);
    EXPECT_EQ(out.engine.deadline_exceeded, 3u);
    EXPECT_EQ(out.engine.budget_rejected, 4u);
    EXPECT_EQ(out.engine.queue_depth, 5u);
    EXPECT_EQ(out.engine.running, 6u);
    EXPECT_EQ(out.engine.uptime_seconds, 7.25);
    EXPECT_EQ(out.engine.jobs_per_second, 123.5);
    EXPECT_EQ(out.engine.unavailable_rejected, 11u);
    EXPECT_EQ(out.engine.shed_expired, 12u);
    EXPECT_TRUE(out.engine.overloaded);
    EXPECT_EQ(out.engine.steals, 0u);
    ASSERT_EQ(out.tenants.size(), 1u);
    EXPECT_EQ(out.tenants[0].name, "acme");
    EXPECT_EQ(out.tenants[0].total.epsilon, 2.0);
    EXPECT_EQ(out.tenants[0].total.delta, 0.1);
    EXPECT_EQ(out.tenants[0].spent.epsilon, 1.5);
    EXPECT_EQ(out.tenants[0].spent.delta, 0.05);
    EXPECT_EQ(out.tenants[0].admitted, 3u);
    EXPECT_EQ(out.tenants[0].rejected, 1u);
    EXPECT_EQ(out.tenants[0].refunded, 0u);
    EXPECT_EQ(out.connections, 4u);
    EXPECT_EQ(out.retained_jobs, 7u);
    EXPECT_TRUE(out.draining);
  };
  WireWriter w1;
  EncodeStats(w1, stats);
  expect_decoded(w1.bytes());

  // An older daemon appends a scheduler section: u64 steal count, u64
  // failed steal sweeps, u32 worker count and one u64 queue depth per
  // worker. Current clients leave it unread.
  WireWriter old_daemon;
  EncodeStats(old_daemon, stats);
  old_daemon.U64(13);
  old_daemon.U64(14);
  old_daemon.U32(2);
  old_daemon.U64(15);
  old_daemon.U64(16);
  expect_decoded(old_daemon.bytes());

  SolverListReply list;
  list.solvers.push_back({"alg1_dp_fw", "Frank-Wolfe"});
  list.solvers.push_back({"alg4_peeling", "Peeling"});
  WireWriter w2;
  EncodeSolverList(w2, list);
  WireReader r2(w2.bytes());
  SolverListReply list_out;
  ASSERT_TRUE(DecodeSolverList(r2, &list_out).ok());
  ASSERT_EQ(list_out.solvers.size(), 2u);
  EXPECT_EQ(list_out.solvers[1].name, "alg4_peeling");

  WireError error{kWireBudgetExhausted, 55, "tenant over budget"};
  WireWriter w3;
  EncodeError(w3, error);
  WireReader r3(w3.bytes());
  WireError error_out;
  ASSERT_TRUE(DecodeError(r3, &error_out).ok());
  EXPECT_EQ(error_out.wire_code, kWireBudgetExhausted);
  EXPECT_EQ(error_out.job_id, 55u);
  EXPECT_EQ(error_out.message, "tenant over budget");
}

TEST(Serialize, DatasetGeometryOverflowIsATypedError) {
  // Hand-craft a WireProblem payload whose declared n*d overflows 64 bits;
  // the decoder must reject it before any allocation.
  WireWriter w;
  w.Str("squared");
  w.F64(0.0);                         // loss_param
  w.U8(0);                            // constraint
  w.F64(1.0);                         // radius
  w.U64(0);                           // prefix
  w.U64(0);                           // target_sparsity
  w.F64Vec({});                       // w0
  w.U64(0xffffffffffffffffull);       // n
  w.U64(0xffffffffffffffffull);       // d
  WireReader r(w.bytes());
  WireProblem out;
  const Status status = DecodeWireProblem(r, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidProblem);
}

TEST(Serialize, UnknownLossAndBadEnumAreTypedErrors) {
  WireProblem problem;
  problem.loss = "cauchy";  // not a wire loss
  problem.data.x = Matrix(2, 2);
  problem.data.y = {0.0, 1.0};
  const auto holder = ProblemHolder::Materialize(problem);
  ASSERT_FALSE(holder.ok());
  EXPECT_EQ(holder.status().code(), StatusCode::kInvalidProblem);
  EXPECT_NE(holder.status().message().find("cauchy"), std::string::npos);

  // An out-of-range constraint byte fails in DecodeWireProblem.
  WireWriter w;
  w.Str("squared");
  w.F64(0.0);
  w.U8(9);  // constraint out of range
  WireReader r(w.bytes());
  WireProblem out;
  EXPECT_EQ(DecodeWireProblem(r, &out).code(), StatusCode::kInvalidProblem);
}

}  // namespace
}  // namespace net
}  // namespace htdp
