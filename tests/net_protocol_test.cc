// Codec tests for the wire protocol (net/wire.h, net/frame.h,
// net/protocol.h): primitive bounds behavior, frame-header validation,
// randomized round-trip property tests over every message type, payload
// edge cases (zero-length, maximum-size), and a deterministic frame
// fuzzer — bit flips, truncations, oversized lengths, and random garbage
// must always produce a clean Status, never a crash or an over-read
// (this suite runs under ASan/UBSan in CI, which is what turns "never
// over-reads" from a comment into a checked property).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/protocol.h"
#include "net/wire.h"
#include "util/rng.h"

namespace tcf {
namespace {

// -------------------------------------------------------------- WireReader

TEST(Wire, IntegerRoundTrip) {
  WireWriter w;
  w.PutU8(0xab);
  w.PutU16(0x1234);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutF64(-1.5);
  WireReader r(w.buffer());
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 0;
  ASSERT_TRUE(r.ReadU8(&u8));
  ASSERT_TRUE(r.ReadU16(&u16));
  ASSERT_TRUE(r.ReadU32(&u32));
  ASSERT_TRUE(r.ReadU64(&u64));
  ASSERT_TRUE(r.ReadF64(&f64));
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(f64, -1.5);
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, LittleEndianLayout) {
  WireWriter w;
  w.PutU32(0x04030201);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(w.buffer()[0]), 1);
  EXPECT_EQ(static_cast<uint8_t>(w.buffer()[3]), 4);
}

TEST(Wire, SpecialDoublesSurvive) {
  for (double v : {kInfinity, -kInfinity, 0.0, -0.0,
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::max()}) {
    WireWriter w;
    w.PutF64(v);
    WireReader r(w.buffer());
    double back = 0;
    ASSERT_TRUE(r.ReadF64(&back));
    EXPECT_EQ(std::memcmp(&v, &back, sizeof(v)), 0);
  }
}

TEST(Wire, ReaderNeverOverReads) {
  // Every Read* on a too-short buffer fails and consumes nothing.
  const uint8_t bytes[3] = {1, 2, 3};
  WireReader r(bytes, 3);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 0;
  std::string s;
  EXPECT_FALSE(r.ReadU32(&u32));
  EXPECT_FALSE(r.ReadU64(&u64));
  EXPECT_FALSE(r.ReadF64(&f64));
  EXPECT_FALSE(r.ReadBytes(4, &s));
  EXPECT_EQ(r.remaining(), 3u);  // failures consumed nothing
  uint8_t u8 = 0;
  EXPECT_TRUE(r.ReadU8(&u8));
  uint16_t u16 = 0;
  EXPECT_TRUE(r.ReadU16(&u16));
  EXPECT_TRUE(r.exhausted());
  EXPECT_FALSE(r.ReadU8(&u8));
}

TEST(Wire, EmptyBuffer) {
  WireReader r(nullptr, 0);
  uint8_t u8 = 0;
  EXPECT_TRUE(r.exhausted());
  EXPECT_FALSE(r.ReadU8(&u8));
  std::string s;
  EXPECT_TRUE(r.ReadBytes(0, &s));  // zero bytes from nothing is fine
  EXPECT_TRUE(s.empty());
}

// ------------------------------------------------------------ frame header

TEST(Frame, HeaderRoundTrip) {
  const std::string payload = "hello";
  const std::string frame =
      EncodeFrame(MessageType::kQueryRequest, 0x1122334455667788ULL, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderSize + payload.size());
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(
                  reinterpret_cast<const uint8_t*>(frame.data()), frame.size(),
                  kMaxPayloadBytes, &header)
                  .ok());
  EXPECT_EQ(header.version, kProtocolVersion);
  EXPECT_EQ(header.type, MessageType::kQueryRequest);
  EXPECT_EQ(header.request_id, 0x1122334455667788ULL);
  EXPECT_EQ(header.payload_size, payload.size());
}

TEST(Frame, ZeroLengthPayload) {
  const std::string frame = EncodeFrame(MessageType::kPing, 1, "");
  ASSERT_EQ(frame.size(), kFrameHeaderSize);
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(
                  reinterpret_cast<const uint8_t*>(frame.data()), frame.size(),
                  kMaxPayloadBytes, &header)
                  .ok());
  EXPECT_EQ(header.payload_size, 0u);
}

TEST(Frame, ShortBufferRejected) {
  const std::string frame = EncodeFrame(MessageType::kPing, 1, "");
  for (size_t n = 0; n < kFrameHeaderSize; ++n) {
    FrameHeader header;
    const Status s = DecodeFrameHeader(
        reinterpret_cast<const uint8_t*>(frame.data()), n, kMaxPayloadBytes,
        &header);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "prefix " << n;
  }
}

TEST(Frame, BadMagicRejected) {
  std::string frame = EncodeFrame(MessageType::kPing, 1, "");
  frame[0] ^= 0xff;
  FrameHeader header;
  const Status s = DecodeFrameHeader(
      reinterpret_cast<const uint8_t*>(frame.data()), frame.size(),
      kMaxPayloadBytes, &header);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(Frame, VersionMismatchRejected) {
  std::string frame = EncodeFrame(MessageType::kPing, 1, "");
  frame[4] = static_cast<char>(kProtocolVersion + 1);
  FrameHeader header;
  const Status s = DecodeFrameHeader(
      reinterpret_cast<const uint8_t*>(frame.data()), frame.size(),
      kMaxPayloadBytes, &header);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(Frame, NonzeroFlagsRejected) {
  std::string frame = EncodeFrame(MessageType::kPing, 1, "");
  frame[6] = 1;
  FrameHeader header;
  const Status s = DecodeFrameHeader(
      reinterpret_cast<const uint8_t*>(frame.data()), frame.size(),
      kMaxPayloadBytes, &header);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(Frame, OversizedPayloadRejected) {
  std::string frame = EncodeFrame(MessageType::kPing, 1, "");
  const uint32_t huge = 1u << 30;
  std::memcpy(frame.data() + 16, &huge, sizeof(huge));
  FrameHeader header;
  const Status s = DecodeFrameHeader(
      reinterpret_cast<const uint8_t*>(frame.data()), frame.size(),
      /*max_payload=*/1 << 20, &header);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

TEST(Frame, MaxSizePayloadAccepted) {
  // A length field exactly at the cap parses (the payload itself is not
  // part of header validation).
  std::string frame = EncodeFrame(MessageType::kQueryRequest, 9, "");
  const uint32_t max = 1u << 20;
  std::memcpy(frame.data() + 16, &max, sizeof(max));
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(
                  reinterpret_cast<const uint8_t*>(frame.data()), frame.size(),
                  /*max_payload=*/1 << 20, &header)
                  .ok());
  EXPECT_EQ(header.payload_size, max);
}

TEST(Frame, UnknownTypeParses) {
  // Unknown message types frame correctly — the endpoint fails the
  // request, not the connection (the type byte is data, not framing).
  std::string frame = EncodeFrame(MessageType::kPing, 1, "");
  frame[5] = static_cast<char>(0x7f);
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(
                  reinterpret_cast<const uint8_t*>(frame.data()), frame.size(),
                  kMaxPayloadBytes, &header)
                  .ok());
  EXPECT_EQ(static_cast<uint8_t>(header.type), 0x7f);
}

// ------------------------------------------------- message round trips

TEST(Protocol, QueryRequestRoundTrip) {
  Rng rng(41);
  for (int i = 0; i < 200; ++i) {
    QueryRequestMsg msg;
    msg.from = static_cast<NodeId>(rng.NextBounded(1u << 30));
    msg.to = static_cast<NodeId>(rng.NextBounded(1u << 30));
    msg.kind = static_cast<QueryKind>(rng.NextBounded(3));
    QueryRequestMsg back;
    ASSERT_TRUE(DecodeQueryRequest(EncodeQueryRequest(msg), &back).ok());
    EXPECT_EQ(back, msg);
  }
}

TEST(Protocol, QueryResponseRoundTrip) {
  for (Weight cost : {0.0, 1.25, kInfinity, 1e300}) {
    QueryResponseMsg msg{cost};
    QueryResponseMsg back;
    ASSERT_TRUE(DecodeQueryResponse(EncodeQueryResponse(msg), &back).ok());
    EXPECT_EQ(back, msg);
  }
}

TEST(Protocol, UpdateRequestRoundTrip) {
  Rng rng(43);
  for (int i = 0; i < 200; ++i) {
    UpdateRequestMsg msg;
    msg.update.kind = static_cast<EdgeUpdate::Kind>(rng.NextBounded(3));
    msg.update.src = static_cast<NodeId>(rng.NextBounded(1u << 20));
    msg.update.dst = static_cast<NodeId>(rng.NextBounded(1u << 20));
    msg.update.weight = static_cast<double>(rng.NextBounded(1000)) / 8.0;
    if (rng.NextBounded(2) == 1) {
      msg.update.target = static_cast<FragmentId>(rng.NextBounded(16));
    }
    UpdateRequestMsg back;
    ASSERT_TRUE(DecodeUpdateRequest(EncodeUpdateRequest(msg), &back).ok());
    EXPECT_EQ(back.update.kind, msg.update.kind);
    EXPECT_EQ(back.update.src, msg.update.src);
    EXPECT_EQ(back.update.dst, msg.update.dst);
    EXPECT_DOUBLE_EQ(back.update.weight, msg.update.weight);
    EXPECT_EQ(back.update.target, msg.update.target);
  }
}

TEST(Protocol, UpdateResponseRoundTrip) {
  for (uint64_t epoch : {0ull, 1ull, 0xffffffffffffffffull}) {
    UpdateResponseMsg back;
    ASSERT_TRUE(
        DecodeUpdateResponse(EncodeUpdateResponse({epoch}), &back).ok());
    EXPECT_EQ(back.epoch, epoch);
  }
}

TEST(Protocol, ErrorResponseRoundTrip) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kInternal}) {
    ErrorResponseMsg msg;
    msg.code = code;
    msg.message = "something failed: detail #42";
    ErrorResponseMsg back;
    ASSERT_TRUE(DecodeErrorResponse(EncodeErrorResponse(msg), &back).ok());
    EXPECT_EQ(back, msg);
    EXPECT_EQ(back.ToStatus().code(), code);
  }
  // Empty message round-trips too.
  ErrorResponseMsg back;
  ASSERT_TRUE(DecodeErrorResponse(
                  EncodeErrorResponse({StatusCode::kInternal, ""}), &back)
                  .ok());
  EXPECT_TRUE(back.message.empty());
}

TEST(Protocol, TrailingBytesRejected) {
  // A payload with ANY suffix after its message is malformed — a frame
  // frames exactly one message.
  const std::string query = EncodeQueryRequest({1, 2, QueryKind::kCost});
  QueryRequestMsg qm;
  EXPECT_FALSE(DecodeQueryRequest(query + "x", &qm).ok());
  const std::string update =
      EncodeUpdateRequest({EdgeUpdate::Insert(1, 2, 1.0)});
  UpdateRequestMsg um;
  EXPECT_FALSE(DecodeUpdateRequest(update + std::string(1, '\0'), &um).ok());
}

TEST(Protocol, BadEnumsRejected) {
  {
    WireWriter w;
    w.PutU32(1);
    w.PutU32(2);
    w.PutU8(17);  // no such QueryKind
    QueryRequestMsg out;
    EXPECT_FALSE(DecodeQueryRequest(w.buffer(), &out).ok());
  }
  {
    std::string enc = EncodeUpdateRequest({EdgeUpdate::Insert(1, 2, 1.0)});
    enc[0] = 9;  // no such EdgeUpdate::Kind
    UpdateRequestMsg out;
    EXPECT_FALSE(DecodeUpdateRequest(enc, &out).ok());
  }
  {
    // Unknown error code degrades to kInternal but still decodes.
    WireWriter w;
    w.PutU8(250);
    w.PutU32(2);
    w.PutBytes("hi");
    ErrorResponseMsg out;
    ASSERT_TRUE(DecodeErrorResponse(w.buffer(), &out).ok());
    EXPECT_EQ(out.code, StatusCode::kInternal);
    EXPECT_EQ(out.message, "hi");
  }
}

// ----------------------------------------------------------------- fuzzer

/// Runs `bytes` through the exact pipeline a connection uses: header
/// decode, then (if the header parses and the buffer holds the payload)
/// the payload decoder for the claimed type. The assertion is implicit:
/// no crash, no sanitizer report — every failure is a clean return.
void DecodeDispatch(const std::vector<uint8_t>& bytes) {
  FrameHeader header;
  const Status s = DecodeFrameHeader(bytes.data(), bytes.size(),
                                     /*max_payload=*/1 << 20, &header);
  if (!s.ok()) return;
  if (bytes.size() < kFrameHeaderSize + header.payload_size) return;
  const std::string_view payload(
      reinterpret_cast<const char*>(bytes.data()) + kFrameHeaderSize,
      header.payload_size);
  switch (header.type) {
    case MessageType::kQueryRequest: {
      QueryRequestMsg m;
      (void)DecodeQueryRequest(payload, &m);
      break;
    }
    case MessageType::kQueryResponse: {
      QueryResponseMsg m;
      (void)DecodeQueryResponse(payload, &m);
      break;
    }
    case MessageType::kUpdateRequest: {
      UpdateRequestMsg m;
      (void)DecodeUpdateRequest(payload, &m);
      break;
    }
    case MessageType::kUpdateResponse: {
      UpdateResponseMsg m;
      (void)DecodeUpdateResponse(payload, &m);
      break;
    }
    case MessageType::kError: {
      ErrorResponseMsg m;
      (void)DecodeErrorResponse(payload, &m);
      break;
    }
    default:
      break;
  }
}

std::vector<uint8_t> AsBytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

/// A corpus of well-formed frames covering every message type, which the
/// fuzzer then mutates — mutations of valid frames explore much deeper
/// decoder paths than pure noise.
std::vector<std::vector<uint8_t>> SeedCorpus() {
  std::vector<std::vector<uint8_t>> corpus;
  corpus.push_back(AsBytes(EncodeFrame(MessageType::kPing, 1, "")));
  corpus.push_back(AsBytes(
      EncodeFrame(MessageType::kQueryRequest, 2,
                  EncodeQueryRequest({7, 9, QueryKind::kCost}))));
  corpus.push_back(AsBytes(EncodeFrame(MessageType::kQueryResponse, 3,
                                       EncodeQueryResponse({1.5}))));
  corpus.push_back(AsBytes(
      EncodeFrame(MessageType::kUpdateRequest, 4,
                  EncodeUpdateRequest({EdgeUpdate::Reweight(3, 4, 2.0)}))));
  corpus.push_back(AsBytes(EncodeFrame(MessageType::kUpdateResponse, 5,
                                       EncodeUpdateResponse({99}))));
  corpus.push_back(AsBytes(EncodeFrame(
      MessageType::kError, 6,
      EncodeErrorResponse({StatusCode::kInvalidArgument, "bad request"}))));
  return corpus;
}

TEST(FrameFuzz, EveryPrefixOfEverySeed) {
  // Truncation at every boundary: header cut short, payload cut short.
  for (const auto& seed : SeedCorpus()) {
    for (size_t n = 0; n <= seed.size(); ++n) {
      DecodeDispatch({seed.begin(), seed.begin() + n});
    }
  }
}

TEST(FrameFuzz, SingleBitFlips) {
  // Every single-bit corruption of every seed frame decodes cleanly or
  // fails cleanly — bad magic, bad version, hostile length fields, enum
  // garbage, count corruption, all of it.
  for (const auto& seed : SeedCorpus()) {
    for (size_t byte = 0; byte < seed.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<uint8_t> mutated = seed;
        mutated[byte] ^= static_cast<uint8_t>(1u << bit);
        DecodeDispatch(mutated);
      }
    }
  }
}

TEST(FrameFuzz, LengthFieldLies) {
  // The payload_length claims more or less than the buffer holds.
  for (const auto& seed : SeedCorpus()) {
    for (uint32_t lie :
         {0u, 1u, 19u, 21u, 0xffffu, 0xfffffffu, 0xffffffffu}) {
      std::vector<uint8_t> mutated = seed;
      std::memcpy(mutated.data() + 16, &lie, sizeof(lie));
      DecodeDispatch(mutated);
    }
  }
}

TEST(FrameFuzz, RandomGarbage) {
  // Pure noise buffers of many sizes (deterministic seed).
  Rng rng(0xf22);
  for (int round = 0; round < 2000; ++round) {
    const size_t n = rng.NextBounded(64);
    std::vector<uint8_t> bytes(n);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.NextBounded(256));
    DecodeDispatch(bytes);
  }
  // Noise that starts with valid magic+version, so it reaches deeper.
  for (int round = 0; round < 2000; ++round) {
    const size_t n = kFrameHeaderSize + rng.NextBounded(64);
    std::vector<uint8_t> bytes(n);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.NextBounded(256));
    const std::string valid = EncodeFrame(MessageType::kPing, 0, "");
    std::memcpy(bytes.data(), valid.data(), 6);  // magic + version + type
    // Keep flags zero and make the length honest half the time.
    bytes[6] = bytes[7] = 0;
    if (rng.NextBounded(2) == 0) {
      const uint32_t honest = static_cast<uint32_t>(n - kFrameHeaderSize);
      std::memcpy(bytes.data() + 16, &honest, sizeof(honest));
    }
    bytes[5] = static_cast<uint8_t>(rng.NextBounded(12));  // type sweep
    DecodeDispatch(bytes);
  }
}

TEST(FrameFuzz, MutatedPayloadsOfEveryType) {
  // Random byte mutations (not just single bits) inside the payload
  // region of each seed, with the header kept honest — drives the payload
  // decoders through their whole error lattice.
  Rng rng(59);
  for (const auto& seed : SeedCorpus()) {
    if (seed.size() <= kFrameHeaderSize) continue;
    for (int round = 0; round < 500; ++round) {
      std::vector<uint8_t> mutated = seed;
      const size_t mutations = 1 + rng.NextBounded(4);
      for (size_t m = 0; m < mutations; ++m) {
        const size_t pos =
            kFrameHeaderSize +
            rng.NextBounded(mutated.size() - kFrameHeaderSize);
        mutated[pos] = static_cast<uint8_t>(rng.NextBounded(256));
      }
      DecodeDispatch(mutated);
    }
  }
}

}  // namespace
}  // namespace tcf
