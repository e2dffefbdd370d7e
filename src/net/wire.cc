#include "net/wire.h"

namespace hydra {
namespace {

// Wraps an encoded payload into a complete frame on `out`.
void AppendFrame(MessageKind kind, const std::string& payload,
                 std::string* out) {
  FrameHeader header;
  header.kind = kind;
  header.length = payload.size();
  EncodeFrameHeader(header, out);
  out->append(payload);
}

// Every decoder ends with this: a frame is exactly its message, so
// trailing bytes mean the sender and receiver disagree about the format
// — typed rejection, not silent acceptance.
Status ExpectExhausted(const ByteReader& reader, const char* what) {
  if (!reader.exhausted()) {
    return Status::InvalidArgument(std::string("trailing bytes after ") +
                                   what + " payload");
  }
  return Status::OK();
}

void EncodeParams(const SearchParams& params, ByteWriter* w) {
  w->U8(static_cast<uint8_t>(params.mode));
  w->U64(params.k);
  w->U64(params.nprobe);
  w->U64(params.efs);
  w->F64(params.epsilon);
  w->F64(params.delta);
  w->U64(params.num_threads);
  w->U64(params.pin_budget);
  // kPrefetchOff is size_t(-1) == UINT64_MAX: the sentinel survives the
  // u64 round-trip unchanged.
  w->U64(params.prefetch_depth);
  w->F64(params.deadline_ms);
}

Status DecodeParams(ByteReader* r, SearchParams* params) {
  uint8_t mode = 0;
  HYDRA_RETURN_IF_ERROR(r->U8(&mode));
  if (mode > static_cast<uint8_t>(SearchMode::kDeltaEpsilon)) {
    return Status::InvalidArgument("unknown SearchMode on wire: " +
                                   std::to_string(mode));
  }
  params->mode = static_cast<SearchMode>(mode);
  uint64_t v = 0;
  HYDRA_RETURN_IF_ERROR(r->U64(&v));
  params->k = static_cast<size_t>(v);
  HYDRA_RETURN_IF_ERROR(r->U64(&v));
  params->nprobe = static_cast<size_t>(v);
  HYDRA_RETURN_IF_ERROR(r->U64(&v));
  params->efs = static_cast<size_t>(v);
  HYDRA_RETURN_IF_ERROR(r->F64(&params->epsilon));
  HYDRA_RETURN_IF_ERROR(r->F64(&params->delta));
  HYDRA_RETURN_IF_ERROR(r->U64(&v));
  params->num_threads = static_cast<size_t>(v);
  HYDRA_RETURN_IF_ERROR(r->U64(&params->pin_budget));
  HYDRA_RETURN_IF_ERROR(r->U64(&v));
  params->prefetch_depth = static_cast<size_t>(v);
  HYDRA_RETURN_IF_ERROR(r->F64(&params->deadline_ms));
  params->cancel = nullptr;  // never crosses the wire
  return Status::OK();
}

void EncodeCounters(const QueryCounters& c, ByteWriter* w) {
  w->U64(c.full_distances);
  w->U64(c.abandoned_distances);
  w->U64(c.lb_distances);
  w->U64(c.series_accessed);
  w->U64(c.bytes_read);
  w->U64(c.random_ios);
  w->U64(c.leaves_visited);
  w->U64(c.nodes_pushed);
  w->U64(c.cache_hits);
  w->U64(c.cache_misses);
  w->U64(c.prefetch_issued);
  w->U64(c.prefetch_useful);
  w->U64(c.io_retries);
  w->U64(c.io_giveups);
}

Status DecodeCounters(ByteReader* r, QueryCounters* c) {
  HYDRA_RETURN_IF_ERROR(r->U64(&c->full_distances));
  HYDRA_RETURN_IF_ERROR(r->U64(&c->abandoned_distances));
  HYDRA_RETURN_IF_ERROR(r->U64(&c->lb_distances));
  HYDRA_RETURN_IF_ERROR(r->U64(&c->series_accessed));
  HYDRA_RETURN_IF_ERROR(r->U64(&c->bytes_read));
  HYDRA_RETURN_IF_ERROR(r->U64(&c->random_ios));
  HYDRA_RETURN_IF_ERROR(r->U64(&c->leaves_visited));
  HYDRA_RETURN_IF_ERROR(r->U64(&c->nodes_pushed));
  HYDRA_RETURN_IF_ERROR(r->U64(&c->cache_hits));
  HYDRA_RETURN_IF_ERROR(r->U64(&c->cache_misses));
  HYDRA_RETURN_IF_ERROR(r->U64(&c->prefetch_issued));
  HYDRA_RETURN_IF_ERROR(r->U64(&c->prefetch_useful));
  HYDRA_RETURN_IF_ERROR(r->U64(&c->io_retries));
  HYDRA_RETURN_IF_ERROR(r->U64(&c->io_giveups));
  return Status::OK();
}

}  // namespace

bool KnownMessageKind(uint16_t kind) {
  return kind >= static_cast<uint16_t>(MessageKind::kHello) &&
         kind <= static_cast<uint16_t>(MessageKind::kFinish);
}

void EncodeFrameHeader(const FrameHeader& header, std::string* out) {
  ByteWriter w(out);
  w.U32(header.magic);
  w.U16(header.version);
  w.U16(static_cast<uint16_t>(header.kind));
  w.U64(header.length);
}

Status DecodeFrameHeader(std::span<const char> bytes, FrameHeader* out) {
  ByteReader r(bytes);
  uint16_t kind = 0;
  HYDRA_RETURN_IF_ERROR(r.U32(&out->magic));
  HYDRA_RETURN_IF_ERROR(r.U16(&out->version));
  HYDRA_RETURN_IF_ERROR(r.U16(&kind));
  HYDRA_RETURN_IF_ERROR(r.U64(&out->length));
  out->kind = static_cast<MessageKind>(kind);
  if (out->magic != kWireMagic) {
    return Status::InvalidArgument("bad frame magic: got " +
                                   std::to_string(out->magic));
  }
  if (out->length > kMaxFramePayload) {
    // Rejected on the DECLARED length, before anyone allocates or reads
    // the payload — a hostile 2^60-byte declaration costs nothing.
    return Status::InvalidArgument(
        "oversized frame: declared " + std::to_string(out->length) +
        " bytes, cap " + std::to_string(kMaxFramePayload));
  }
  return Status::OK();
}

Status RecvFrame(const TcpSocket& socket, FrameHeader* header,
                 std::string* payload) {
  char bytes[kFrameHeaderBytes];
  HYDRA_RETURN_IF_ERROR(socket.RecvAll(bytes, sizeof(bytes)));
  HYDRA_RETURN_IF_ERROR(DecodeFrameHeader(
      std::span<const char>(bytes, sizeof(bytes)), header));
  payload->resize(static_cast<size_t>(header->length));
  if (header->length > 0) {
    HYDRA_RETURN_IF_ERROR(socket.RecvAll(payload->data(), payload->size()));
  }
  return Status::OK();
}

void EncodeHello(const HelloFrame& msg, std::string* out) {
  std::string payload;
  ByteWriter w(&payload);
  w.U16(msg.min_version);
  w.U16(msg.max_version);
  AppendFrame(MessageKind::kHello, payload, out);
}

Status DecodeHello(std::span<const char> payload, HelloFrame* out) {
  ByteReader r(payload);
  HYDRA_RETURN_IF_ERROR(r.U16(&out->min_version));
  HYDRA_RETURN_IF_ERROR(r.U16(&out->max_version));
  return ExpectExhausted(r, "hello");
}

void EncodeHelloAck(const HelloAckFrame& msg, std::string* out) {
  std::string payload;
  ByteWriter w(&payload);
  w.U16(msg.version);
  AppendFrame(MessageKind::kHelloAck, payload, out);
}

Status DecodeHelloAck(std::span<const char> payload, HelloAckFrame* out) {
  ByteReader r(payload);
  HYDRA_RETURN_IF_ERROR(r.U16(&out->version));
  return ExpectExhausted(r, "hello-ack");
}

void EncodeSubmit(const SubmitFrame& msg, std::string* out) {
  std::string payload;
  ByteWriter w(&payload);
  w.U64(msg.request_id);
  EncodeParams(msg.params, &w);
  w.FloatSpan(msg.query);
  AppendFrame(MessageKind::kSubmit, payload, out);
}

Status DecodeSubmit(std::span<const char> payload, SubmitFrame* out) {
  ByteReader r(payload);
  HYDRA_RETURN_IF_ERROR(r.U64(&out->request_id));
  HYDRA_RETURN_IF_ERROR(DecodeParams(&r, &out->params));
  HYDRA_RETURN_IF_ERROR(r.FloatVec(&out->query));
  return ExpectExhausted(r, "submit");
}

void EncodeResult(const ResultFrame& msg, std::string* out) {
  std::string payload;
  ByteWriter w(&payload);
  w.U64(msg.request_id);
  EncodeStatus(msg.status, &w);
  w.I64Span(msg.answer.ids);
  w.DoubleSpan(msg.answer.distances);
  EncodeCounters(msg.counters, &w);
  w.F64(msg.seconds);
  AppendFrame(MessageKind::kResult, payload, out);
}

Status DecodeResult(std::span<const char> payload, ResultFrame* out) {
  ByteReader r(payload);
  HYDRA_RETURN_IF_ERROR(r.U64(&out->request_id));
  HYDRA_RETURN_IF_ERROR(DecodeStatus(&r, &out->status));
  HYDRA_RETURN_IF_ERROR(r.I64Vec(&out->answer.ids));
  HYDRA_RETURN_IF_ERROR(r.DoubleVec(&out->answer.distances));
  HYDRA_RETURN_IF_ERROR(DecodeCounters(&r, &out->counters));
  HYDRA_RETURN_IF_ERROR(r.F64(&out->seconds));
  return ExpectExhausted(r, "result");
}

void EncodeCancel(const CancelFrame& msg, std::string* out) {
  std::string payload;
  ByteWriter w(&payload);
  w.U64(msg.request_id);
  AppendFrame(MessageKind::kCancel, payload, out);
}

Status DecodeCancel(std::span<const char> payload, CancelFrame* out) {
  ByteReader r(payload);
  HYDRA_RETURN_IF_ERROR(r.U64(&out->request_id));
  return ExpectExhausted(r, "cancel");
}

void EncodeStatusFrame(const StatusFrame& msg, std::string* out) {
  std::string payload;
  ByteWriter w(&payload);
  w.U64(msg.request_id);
  EncodeStatus(msg.status, &w);
  AppendFrame(MessageKind::kStatus, payload, out);
}

Status DecodeStatusFrame(std::span<const char> payload, StatusFrame* out) {
  ByteReader r(payload);
  HYDRA_RETURN_IF_ERROR(r.U64(&out->request_id));
  HYDRA_RETURN_IF_ERROR(DecodeStatus(&r, &out->status));
  return ExpectExhausted(r, "status");
}

void EncodeStatsRequest(std::string* out) {
  AppendFrame(MessageKind::kStatsRequest, std::string(), out);
}

void EncodeStatsReply(const StatsReplyFrame& msg, std::string* out) {
  std::string payload;
  ByteWriter w(&payload);
  w.U64(msg.stats.concurrency);
  w.U64(msg.stats.queue_capacity);
  w.U64(msg.stats.batch_window);
  w.U64(msg.stats.batches_served);
  w.U64(msg.stats.coalesced_queries);
  w.U64(msg.stats.per_query_pin_budget);
  w.U64(msg.stats.per_query_prefetch_budget);
  w.U64(msg.stats.in_flight);
  w.U64(msg.stats.connections_accepted);
  w.U64(msg.stats.frames_rejected);
  w.U64(msg.stats.retries);
  w.U64(msg.stats.failovers);
  w.U64(msg.stats.hedges);
  AppendFrame(MessageKind::kStatsReply, payload, out);
}

Status DecodeStatsReply(std::span<const char> payload, StatsReplyFrame* out) {
  ByteReader r(payload);
  HYDRA_RETURN_IF_ERROR(r.U64(&out->stats.concurrency));
  HYDRA_RETURN_IF_ERROR(r.U64(&out->stats.queue_capacity));
  HYDRA_RETURN_IF_ERROR(r.U64(&out->stats.batch_window));
  HYDRA_RETURN_IF_ERROR(r.U64(&out->stats.batches_served));
  HYDRA_RETURN_IF_ERROR(r.U64(&out->stats.coalesced_queries));
  HYDRA_RETURN_IF_ERROR(r.U64(&out->stats.per_query_pin_budget));
  HYDRA_RETURN_IF_ERROR(r.U64(&out->stats.per_query_prefetch_budget));
  HYDRA_RETURN_IF_ERROR(r.U64(&out->stats.in_flight));
  HYDRA_RETURN_IF_ERROR(r.U64(&out->stats.connections_accepted));
  HYDRA_RETURN_IF_ERROR(r.U64(&out->stats.frames_rejected));
  HYDRA_RETURN_IF_ERROR(r.U64(&out->stats.retries));
  HYDRA_RETURN_IF_ERROR(r.U64(&out->stats.failovers));
  HYDRA_RETURN_IF_ERROR(r.U64(&out->stats.hedges));
  return ExpectExhausted(r, "stats-reply");
}

void EncodeFinish(std::string* out) {
  AppendFrame(MessageKind::kFinish, std::string(), out);
}

}  // namespace hydra
