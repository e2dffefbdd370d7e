// Property suite for the wire protocol (src/net/wire.h): every message
// kind round-trips bit-identically — max-length queries with hostile
// float bit patterns, every StatusCode — and every truncation or corruption of a valid frame is rejected with
// a typed Status, never a crash or an out-of-bounds read. The codec is
// the trust boundary of the serving front-end; this suite is the
// contract the server's keep-serving-on-garbage policy rests on.

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "common/status.h"
#include "gtest/gtest.h"
#include "net/wire.h"

namespace hydra {
namespace {

// Payload view of an encoded frame (EncodeX emits header + payload).
std::span<const char> PayloadOf(const std::string& frame) {
  EXPECT_GE(frame.size(), kFrameHeaderBytes);
  return std::span<const char>(frame.data() + kFrameHeaderBytes,
                               frame.size() - kFrameHeaderBytes);
}

FrameHeader HeaderOf(const std::string& frame) {
  FrameHeader header;
  EXPECT_TRUE(DecodeFrameHeader(
                  std::span<const char>(frame.data(), kFrameHeaderBytes),
                  &header)
                  .ok());
  return header;
}

// Bit-identical float/double vector comparison: NaNs compare equal to
// themselves iff the bit patterns match, which is exactly the wire
// contract (floats are moved as IEEE-754 bits, never reinterpreted).
template <typename T>
bool BitIdentical(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

const StatusCode kAllCodes[] = {
    StatusCode::kOk,           StatusCode::kInvalidArgument,
    StatusCode::kNotFound,     StatusCode::kIoError,
    StatusCode::kFailedPrecondition, StatusCode::kOutOfRange,
    StatusCode::kUnimplemented, StatusCode::kInternal,
    StatusCode::kUnavailable,  StatusCode::kDataCorruption,
    StatusCode::kDeadlineExceeded, StatusCode::kCancelled,
};

Status MakeStatus(StatusCode code, bool with_context) {
  Status st(code, code == StatusCode::kOk
                      ? ""
                      : std::string("detail for ") + StatusCodeName(code));
  if (with_context && code != StatusCode::kOk) {
    IoContext ctx;
    ctx.path = "/data/shard-3/series.hsf";
    ctx.offset = 0xDEADBEEFCAFEull;
    ctx.sys_errno = 5;  // EIO
    st.WithIoContext(std::move(ctx));
  }
  return st;
}

bool StatusesEqual(const Status& a, const Status& b) {
  if (a.code() != b.code() || a.message() != b.message()) return false;
  if (a.has_io_context() != b.has_io_context()) return false;
  return !a.has_io_context() || a.io_context() == b.io_context();
}

TEST(NetWireTest, FrameHeaderRoundTrip) {
  FrameHeader header;
  header.kind = MessageKind::kSubmit;
  header.length = 12345;
  std::string bytes;
  EncodeFrameHeader(header, &bytes);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes);
  FrameHeader back;
  ASSERT_TRUE(
      DecodeFrameHeader(std::span<const char>(bytes.data(), bytes.size()),
                        &back)
          .ok());
  EXPECT_EQ(back.magic, kWireMagic);
  EXPECT_EQ(back.version, kProtocolVersion);
  EXPECT_EQ(back.kind, MessageKind::kSubmit);
  EXPECT_EQ(back.length, 12345u);
}

TEST(NetWireTest, FrameHeaderRejectsBadMagic) {
  FrameHeader header;
  std::string bytes;
  EncodeFrameHeader(header, &bytes);
  bytes[0] = 'X';
  FrameHeader back;
  Status st = DecodeFrameHeader(
      std::span<const char>(bytes.data(), bytes.size()), &back);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(NetWireTest, FrameHeaderRejectsOversizedDeclaredLength) {
  FrameHeader header;
  header.length = kMaxFramePayload + 1;
  std::string bytes;
  EncodeFrameHeader(header, &bytes);
  FrameHeader back;
  Status st = DecodeFrameHeader(
      std::span<const char>(bytes.data(), bytes.size()), &back);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(NetWireTest, HelloAndAckRoundTrip) {
  HelloFrame hello;
  hello.min_version = 1;
  hello.max_version = 7;
  std::string frame;
  EncodeHello(hello, &frame);
  EXPECT_EQ(HeaderOf(frame).kind, MessageKind::kHello);
  HelloFrame hello_back;
  ASSERT_TRUE(DecodeHello(PayloadOf(frame), &hello_back).ok());
  EXPECT_EQ(hello_back.min_version, 1);
  EXPECT_EQ(hello_back.max_version, 7);

  HelloAckFrame ack;
  ack.version = 3;
  std::string ack_frame;
  EncodeHelloAck(ack, &ack_frame);
  HelloAckFrame ack_back;
  ASSERT_TRUE(DecodeHelloAck(PayloadOf(ack_frame), &ack_back).ok());
  EXPECT_EQ(ack_back.version, 3);
}

// A max-length query full of hostile bit patterns (NaN, infinities,
// denormals, negative zero), and every SearchParams field at a
// non-default value — all must come back bit for bit.
TEST(NetWireTest, SubmitRoundTripExhaustive) {
  // Max-length in the paper's terms: a long series of adversarial
  // floats. 16384 floats ≈ 64 KiB payload, well formed but large.
  std::vector<float> query(16384);
  Rng rng(20260808);
  for (size_t i = 0; i < query.size(); ++i) {
    const uint32_t bits = static_cast<uint32_t>(rng.NextUint64(1ull << 32));
    std::memcpy(&query[i], &bits, sizeof(float));
  }
  query[0] = std::numeric_limits<float>::quiet_NaN();
  query[1] = std::numeric_limits<float>::infinity();
  query[2] = -std::numeric_limits<float>::infinity();
  query[3] = std::numeric_limits<float>::denorm_min();
  query[4] = -0.0f;

  SubmitFrame msg;
  msg.request_id = 0x123456789ABCDEFull;
  msg.query = query;
  msg.params.mode = SearchMode::kDeltaEpsilon;
  msg.params.k = 17;
  msg.params.nprobe = 33;
  msg.params.efs = 65;
  msg.params.epsilon = 0.125;
  msg.params.delta = 0.875;
  msg.params.num_threads = 6;
  msg.params.pin_budget = 42;
  msg.params.prefetch_depth = SearchParams::kPrefetchOff;  // sentinel
  msg.params.deadline_ms = 1234.5;

  std::string frame;
  EncodeSubmit(msg, &frame);
  EXPECT_EQ(HeaderOf(frame).kind, MessageKind::kSubmit);
  SubmitFrame back;
  ASSERT_TRUE(DecodeSubmit(PayloadOf(frame), &back).ok());
  EXPECT_EQ(back.request_id, msg.request_id);
  EXPECT_TRUE(BitIdentical(back.query, query));
  EXPECT_EQ(back.params.mode, SearchMode::kDeltaEpsilon);
  EXPECT_EQ(back.params.k, 17u);
  EXPECT_EQ(back.params.nprobe, 33u);
  EXPECT_EQ(back.params.efs, 65u);
  EXPECT_EQ(back.params.epsilon, 0.125);
  EXPECT_EQ(back.params.delta, 0.875);
  EXPECT_EQ(back.params.num_threads, 6u);
  EXPECT_EQ(back.params.pin_budget, 42u);
  EXPECT_EQ(back.params.prefetch_depth, SearchParams::kPrefetchOff);
  EXPECT_EQ(back.params.deadline_ms, 1234.5);
  EXPECT_EQ(back.params.cancel, nullptr);  // tokens never cross
}

TEST(NetWireTest, SubmitRejectsUnknownMode) {
  SubmitFrame msg;
  msg.request_id = 1;
  msg.query = {1.0f};
  std::string frame;
  EncodeSubmit(msg, &frame);
  // Payload layout starts with request_id (8), then the mode byte.
  std::string payload(PayloadOf(frame).begin(), PayloadOf(frame).end());
  payload[8] = 99;
  SubmitFrame back;
  Status st = DecodeSubmit(
      std::span<const char>(payload.data(), payload.size()), &back);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// Every StatusCode (with and without IoContext), hostile double bit
// patterns in distances, and a fully populated counter block.
TEST(NetWireTest, ResultRoundTripEveryStatusCode) {
  for (StatusCode code : kAllCodes) {
    for (bool with_ctx : {false, true}) {
      ResultFrame msg;
      msg.request_id = 7;
      msg.status = MakeStatus(code, with_ctx);
      msg.seconds = 0.03125;
      if (code == StatusCode::kOk) {
        msg.answer.ids = {5, -1, 0, std::numeric_limits<int64_t>::max(),
                          std::numeric_limits<int64_t>::min()};
        msg.answer.distances = {0.0, -0.0,
                                std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::denorm_min()};
      }
      msg.counters.full_distances = 1;
      msg.counters.abandoned_distances = 2;
      msg.counters.lb_distances = 3;
      msg.counters.series_accessed = 4;
      msg.counters.bytes_read = 5;
      msg.counters.random_ios = 6;
      msg.counters.leaves_visited = 7;
      msg.counters.nodes_pushed = 8;
      msg.counters.cache_hits = 9;
      msg.counters.cache_misses = 10;
      msg.counters.prefetch_issued = 11;
      msg.counters.prefetch_useful = 12;
      msg.counters.io_retries = 13;
      msg.counters.io_giveups = 14;

      std::string frame;
      EncodeResult(msg, &frame);
      EXPECT_EQ(HeaderOf(frame).kind, MessageKind::kResult);
      ResultFrame back;
      ASSERT_TRUE(DecodeResult(PayloadOf(frame), &back).ok())
          << StatusCodeName(code);
      EXPECT_EQ(back.request_id, 7u);
      EXPECT_TRUE(StatusesEqual(back.status, msg.status))
          << StatusCodeName(code);
      EXPECT_TRUE(BitIdentical(back.answer.ids, msg.answer.ids));
      EXPECT_TRUE(BitIdentical(back.answer.distances, msg.answer.distances));
      EXPECT_EQ(back.seconds, 0.03125);
      EXPECT_EQ(back.counters.full_distances, 1u);
      EXPECT_EQ(back.counters.abandoned_distances, 2u);
      EXPECT_EQ(back.counters.lb_distances, 3u);
      EXPECT_EQ(back.counters.series_accessed, 4u);
      EXPECT_EQ(back.counters.bytes_read, 5u);
      EXPECT_EQ(back.counters.random_ios, 6u);
      EXPECT_EQ(back.counters.leaves_visited, 7u);
      EXPECT_EQ(back.counters.nodes_pushed, 8u);
      EXPECT_EQ(back.counters.cache_hits, 9u);
      EXPECT_EQ(back.counters.cache_misses, 10u);
      EXPECT_EQ(back.counters.prefetch_issued, 11u);
      EXPECT_EQ(back.counters.prefetch_useful, 12u);
      EXPECT_EQ(back.counters.io_retries, 13u);
      EXPECT_EQ(back.counters.io_giveups, 14u);
    }
  }
}

TEST(NetWireTest, StatusFrameRoundTripEveryCode) {
  for (StatusCode code : kAllCodes) {
    for (bool with_ctx : {false, true}) {
      StatusFrame msg;
      msg.request_id = code == StatusCode::kOk ? 0 : 99;
      msg.status = MakeStatus(code, with_ctx);
      std::string frame;
      EncodeStatusFrame(msg, &frame);
      EXPECT_EQ(HeaderOf(frame).kind, MessageKind::kStatus);
      StatusFrame back;
      ASSERT_TRUE(DecodeStatusFrame(PayloadOf(frame), &back).ok());
      EXPECT_EQ(back.request_id, msg.request_id);
      EXPECT_TRUE(StatusesEqual(back.status, msg.status))
          << StatusCodeName(code);
    }
  }
}

TEST(NetWireTest, CancelStatsFinishRoundTrip) {
  CancelFrame cancel;
  cancel.request_id = 0xFFFFFFFFFFFFFFFFull;
  std::string frame;
  EncodeCancel(cancel, &frame);
  EXPECT_EQ(HeaderOf(frame).kind, MessageKind::kCancel);
  CancelFrame cancel_back;
  ASSERT_TRUE(DecodeCancel(PayloadOf(frame), &cancel_back).ok());
  EXPECT_EQ(cancel_back.request_id, cancel.request_id);

  StatsReplyFrame stats;
  stats.stats.concurrency = 1;
  stats.stats.queue_capacity = 2;
  stats.stats.batch_window = 3;
  stats.stats.batches_served = 4;
  stats.stats.coalesced_queries = 5;
  stats.stats.per_query_pin_budget = 6;
  stats.stats.per_query_prefetch_budget = 7;
  stats.stats.in_flight = 8;
  stats.stats.connections_accepted = 9;
  stats.stats.frames_rejected = 10;
  stats.stats.retries = 11;
  stats.stats.failovers = 12;
  stats.stats.hedges = 13;
  std::string stats_frame;
  EncodeStatsReply(stats, &stats_frame);
  EXPECT_EQ(HeaderOf(stats_frame).kind, MessageKind::kStatsReply);
  StatsReplyFrame stats_back;
  ASSERT_TRUE(DecodeStatsReply(PayloadOf(stats_frame), &stats_back).ok());
  EXPECT_EQ(stats_back.stats.concurrency, 1u);
  EXPECT_EQ(stats_back.stats.queue_capacity, 2u);
  EXPECT_EQ(stats_back.stats.batch_window, 3u);
  EXPECT_EQ(stats_back.stats.batches_served, 4u);
  EXPECT_EQ(stats_back.stats.coalesced_queries, 5u);
  EXPECT_EQ(stats_back.stats.per_query_pin_budget, 6u);
  EXPECT_EQ(stats_back.stats.per_query_prefetch_budget, 7u);
  EXPECT_EQ(stats_back.stats.in_flight, 8u);
  EXPECT_EQ(stats_back.stats.connections_accepted, 9u);
  EXPECT_EQ(stats_back.stats.frames_rejected, 10u);
  EXPECT_EQ(stats_back.stats.retries, 11u);
  EXPECT_EQ(stats_back.stats.failovers, 12u);
  EXPECT_EQ(stats_back.stats.hedges, 13u);

  std::string request_frame;
  EncodeStatsRequest(&request_frame);
  EXPECT_EQ(HeaderOf(request_frame).kind, MessageKind::kStatsRequest);
  EXPECT_EQ(HeaderOf(request_frame).length, 0u);

  std::string finish_frame;
  EncodeFinish(&finish_frame);
  EXPECT_EQ(HeaderOf(finish_frame).kind, MessageKind::kFinish);
  EXPECT_EQ(HeaderOf(finish_frame).length, 0u);
}

TEST(NetWireTest, EncodeDecodeStatusLossless) {
  for (StatusCode code : kAllCodes) {
    for (bool with_ctx : {false, true}) {
      const Status original = MakeStatus(code, with_ctx);
      std::string bytes;
      ByteWriter writer(&bytes);
      EncodeStatus(original, &writer);
      ByteReader reader(std::span<const char>(bytes.data(), bytes.size()));
      Status decoded;
      ASSERT_TRUE(DecodeStatus(&reader, &decoded).ok());
      EXPECT_TRUE(reader.exhausted());
      EXPECT_TRUE(StatusesEqual(original, decoded)) << StatusCodeName(code);
      EXPECT_EQ(original.ToString(), decoded.ToString());
    }
  }
}

TEST(NetWireTest, DecodeStatusRejectsUnknownCode) {
  std::string bytes;
  ByteWriter writer(&bytes);
  writer.U16(999);  // beyond kCancelled
  writer.Str("bogus");
  writer.U8(0);
  ByteReader reader(std::span<const char>(bytes.data(), bytes.size()));
  Status decoded;
  Status st = DecodeStatus(&reader, &decoded);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(NetWireTest, KnownMessageKindBounds) {
  for (uint16_t kind = 1; kind <= 9; ++kind) {
    EXPECT_TRUE(KnownMessageKind(kind)) << kind;
  }
  EXPECT_FALSE(KnownMessageKind(0));
  EXPECT_FALSE(KnownMessageKind(10));
  EXPECT_FALSE(KnownMessageKind(0xFFFF));
}

// Every truncation of every message's payload must yield a typed
// rejection — and never a crash, hang, or out-of-bounds read (ASan/TSan
// lanes re-run this suite instrumented).
TEST(NetWireTest, EveryTruncationRejectedTyped) {
  SubmitFrame submit;
  submit.request_id = 3;
  submit.query = {1.0f, 2.0f, 3.0f};
  submit.params.deadline_ms = 10;
  ResultFrame result;
  result.request_id = 3;
  result.status = MakeStatus(StatusCode::kIoError, true);
  result.answer.ids = {1, 2};
  result.answer.distances = {0.5, 1.5};
  StatusFrame status_frame;
  status_frame.request_id = 3;
  status_frame.status = MakeStatus(StatusCode::kUnavailable, true);
  StatsReplyFrame stats;
  stats.stats.in_flight = 2;
  CancelFrame cancel;
  cancel.request_id = 3;
  HelloFrame hello;

  struct Case {
    std::string frame;
    std::function<Status(std::span<const char>)> decode;
  };
  std::vector<Case> cases;
  {
    Case c;
    EncodeSubmit(submit, &c.frame);
    c.decode = [](std::span<const char> p) {
      SubmitFrame out;
      return DecodeSubmit(p, &out);
    };
    cases.push_back(std::move(c));
  }
  {
    Case c;
    EncodeResult(result, &c.frame);
    c.decode = [](std::span<const char> p) {
      ResultFrame out;
      return DecodeResult(p, &out);
    };
    cases.push_back(std::move(c));
  }
  {
    Case c;
    EncodeStatusFrame(status_frame, &c.frame);
    c.decode = [](std::span<const char> p) {
      StatusFrame out;
      return DecodeStatusFrame(p, &out);
    };
    cases.push_back(std::move(c));
  }
  {
    Case c;
    EncodeStatsReply(stats, &c.frame);
    c.decode = [](std::span<const char> p) {
      StatsReplyFrame out;
      return DecodeStatsReply(p, &out);
    };
    cases.push_back(std::move(c));
  }
  {
    Case c;
    EncodeCancel(cancel, &c.frame);
    c.decode = [](std::span<const char> p) {
      CancelFrame out;
      return DecodeCancel(p, &out);
    };
    cases.push_back(std::move(c));
  }
  {
    Case c;
    EncodeHello(hello, &c.frame);
    c.decode = [](std::span<const char> p) {
      HelloFrame out;
      return DecodeHello(p, &out);
    };
    cases.push_back(std::move(c));
  }

  for (const Case& c : cases) {
    const std::span<const char> payload = PayloadOf(c.frame);
    ASSERT_TRUE(c.decode(payload).ok());  // the untruncated baseline
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      Status st = c.decode(payload.subspan(0, cut));
      EXPECT_FALSE(st.ok()) << "cut=" << cut;
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "cut=" << cut;
    }
    // Trailing garbage is equally a protocol violation: a frame is
    // exactly its message.
    std::string padded(payload.begin(), payload.end());
    padded.push_back('\x7f');
    Status st = c.decode(std::span<const char>(padded.data(), padded.size()));
    EXPECT_FALSE(st.ok());
  }
}

// Deterministic corruption fuzz: flip random bytes of valid payloads.
// The decode must either succeed (the flip hit a don't-care byte, e.g.
// a float payload bit) or fail typed; it must never crash or read out
// of bounds. Also: a corrupted COUNT field must not cause a giant
// allocation (the reader validates counts against bytes present).
TEST(NetWireTest, CorruptionFuzzNeverCrashes) {
  SubmitFrame submit;
  submit.request_id = 11;
  submit.query.assign(256, 1.5f);
  std::string frame;
  EncodeSubmit(submit, &frame);
  std::string payload(PayloadOf(frame).begin(), PayloadOf(frame).end());

  Rng rng(0xF00D);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = payload;
    const size_t flips = 1 + rng.NextUint64(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.NextUint64(mutated.size())] =
          static_cast<char>(rng.NextUint64(256));
    }
    SubmitFrame out;
    Status st = DecodeSubmit(
        std::span<const char>(mutated.data(), mutated.size()), &out);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    }
  }
}

}  // namespace
}  // namespace hydra
