#ifndef HYDRA_NET_WIRE_H_
#define HYDRA_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/counters.h"
#include "common/status.h"
#include "core/metrics.h"
#include "exec/serving_backend.h"
#include "index/index.h"

namespace hydra {

// ---------------------------------------------------------------------------
// Hydra wire protocol, version 2.
//
// Every message on the socket is one length-prefixed frame:
//
//   offset  size  field
//   0       4     magic   0x48594452 ("HYDR"), little-endian
//   4       2     version protocol version of the sender
//   6       2     kind    MessageKind
//   8       8     length  payload bytes that follow the 16-byte header
//
// followed by `length` payload bytes encoded with the common/codec.h
// little-endian primitives. The declared length is capped at
// kMaxFramePayload (64 MiB): an oversized declaration is rejected
// BEFORE any allocation, with a typed error frame, and the connection
// is closed (the stream can no longer be trusted to be in sync). A
// payload that fails to decode — truncated, trailing garbage, unknown
// enum value — costs only that request: the server answers with a
// typed kStatus frame and keeps the connection.
//
// Version negotiation: the client opens with kHello carrying the
// [min, max] protocol range it speaks. The server speaks version 2
// only: it answers kHelloAck(2) when the range contains 2 and a
// connection-level kFailedPrecondition kStatus frame otherwise, so a
// client of another version is refused rather than misread. All
// subsequent frames carry the negotiated version in their header.
//
// Version 2's kSubmit payload is request_id (u64), then SearchParams
// field by field — mode (u8), k, nprobe, efs (u64), epsilon, delta
// (f64), num_threads, pin_budget, prefetch_depth (u64), deadline_ms
// (f64) — then the query (u64 count + f32 each).
//
// The response stream needs no sequencing of its own: each connection
// is served by its own ServingSession, whose completion stream is
// already ordered by submission — kResult frames simply come back in
// the order the client's kSubmit frames arrived (the client matches
// them up by the echoed request_id).
// ---------------------------------------------------------------------------

inline constexpr uint32_t kWireMagic = 0x48594452;  // "HYDR"
inline constexpr uint16_t kProtocolVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 16;
inline constexpr uint64_t kMaxFramePayload = 64ull << 20;  // 64 MiB

enum class MessageKind : uint16_t {
  kHello = 1,         // client → server: version range
  kHelloAck = 2,      // server → client: chosen version
  kSubmit = 3,        // client → server: one query
  kResult = 4,        // server → client: one completed query
  kCancel = 5,        // client → server: cancel an in-flight request
  kStatus = 6,        // server → client: typed error (request or connection)
  kStatsRequest = 7,  // client → server
  kStatsReply = 8,    // server → client: ServingStats snapshot
  kFinish = 9,        // both ways: submission stream closed / stream end
};

// True for the kinds this version defines (a frame with any other kind
// field gets a typed rejection, not a crash).
bool KnownMessageKind(uint16_t kind);

struct FrameHeader {
  uint32_t magic = kWireMagic;
  uint16_t version = kProtocolVersion;
  MessageKind kind = MessageKind::kStatus;
  uint64_t length = 0;
};

void EncodeFrameHeader(const FrameHeader& header, std::string* out);
// Validates magic and the payload-length cap (the two failures that
// poison the STREAM and force a disconnect). Kind and version are
// returned as-is for the caller to police per its negotiation state.
Status DecodeFrameHeader(std::span<const char> bytes, FrameHeader* out);

// --- Payloads --------------------------------------------------------------

struct HelloFrame {
  uint16_t min_version = kProtocolVersion;
  uint16_t max_version = kProtocolVersion;
};

struct HelloAckFrame {
  uint16_t version = kProtocolVersion;
};

// One query submission. SearchParams travels field-by-field (the cancel
// token does NOT cross the wire: deadline_ms does, and the server
// re-arms a fresh CancellationToken from it at frame receipt, so the
// deadline clock starts server-side and a disconnect can still fire the
// token).
struct SubmitFrame {
  uint64_t request_id = 0;  // client-chosen; echoed in the kResult frame
  SearchParams params;      // .cancel is never encoded
  std::vector<float> query;
};

// One completed query. `status` is the query's terminal Status (OK for
// a served answer); `answer` is meaningful only when status.ok().
struct ResultFrame {
  uint64_t request_id = 0;
  Status status;
  KnnAnswer answer;
  QueryCounters counters;
  double seconds = 0.0;  // submit-to-completion as the server measured it
};

struct CancelFrame {
  uint64_t request_id = 0;
};

// Typed error frame. request_id 0 = about the connection as a whole
// (protocol violation, refused hello); nonzero = about that request.
struct StatusFrame {
  uint64_t request_id = 0;
  Status status;
};

struct StatsReplyFrame {
  ServingStats stats;
};

// kStatsRequest and kFinish carry empty payloads.

// --- Encode/Decode ---------------------------------------------------------
// EncodeX appends a COMPLETE frame (header + payload) to `out`, ready
// to write to the socket. DecodeX parses the payload bytes of a frame
// whose header already identified the kind; every decoder rejects
// trailing bytes so a frame is exactly its message, nothing more.

void EncodeHello(const HelloFrame& msg, std::string* out);
Status DecodeHello(std::span<const char> payload, HelloFrame* out);

void EncodeHelloAck(const HelloAckFrame& msg, std::string* out);
Status DecodeHelloAck(std::span<const char> payload, HelloAckFrame* out);

void EncodeSubmit(const SubmitFrame& msg, std::string* out);
Status DecodeSubmit(std::span<const char> payload, SubmitFrame* out);

void EncodeResult(const ResultFrame& msg, std::string* out);
Status DecodeResult(std::span<const char> payload, ResultFrame* out);

void EncodeCancel(const CancelFrame& msg, std::string* out);
Status DecodeCancel(std::span<const char> payload, CancelFrame* out);

void EncodeStatusFrame(const StatusFrame& msg, std::string* out);
Status DecodeStatusFrame(std::span<const char> payload, StatusFrame* out);

void EncodeStatsRequest(std::string* out);
void EncodeStatsReply(const StatsReplyFrame& msg, std::string* out);
Status DecodeStatsReply(std::span<const char> payload, StatsReplyFrame* out);

void EncodeFinish(std::string* out);

}  // namespace hydra

#endif  // HYDRA_NET_WIRE_H_
