#include "net/server.h"

#include <algorithm>
#include <utility>

#include "storage/buffer_manager.h"

namespace hydra {

// Per-connection state. Threads: the reader owns the receive side of
// the socket; the pump owns the session's completion stream; both send
// (under send_mu). The token map is the cancellation rendezvous between
// the reader (insert on submit, fire on kCancel/disconnect) and the
// pump (erase as results retire).
struct HydraServer::Connection {
  TcpSocket socket;
  std::unique_ptr<ServingSession> session;

  std::mutex send_mu;

  std::mutex mu;
  // request_id → cancellation token of the in-flight query; `order` is
  // the FIFO of request_ids awaiting results (the session's Next()
  // order is the submission order, so the front of this queue names the
  // next result's request_id).
  std::map<uint64_t, std::shared_ptr<CancellationToken>> tokens;
  std::deque<uint64_t> order;

  std::atomic<bool> disconnecting{false};

  std::thread reader;
  std::thread pump;
};

Result<std::unique_ptr<HydraServer>> HydraServer::Start(
    const Index& index, SeriesProvider* provider,
    const ServerOptions& options) {
  HYDRA_ASSIGN_OR_RETURN(TcpListener listener,
                         TcpListener::Listen(options.port));
  std::unique_ptr<HydraServer> server(
      new HydraServer(index, provider, options, std::move(listener)));
  server->acceptor_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

HydraServer::HydraServer(const Index& index, SeriesProvider* provider,
                         ServerOptions options, TcpListener listener)
    : index_(index),
      provider_(provider),
      options_(std::move(options)),
      listener_(std::move(listener)) {}

HydraServer::~HydraServer() { Stop(); }

void HydraServer::Stop() {
  if (stopping_.exchange(true)) {
    // Second caller (or the destructor after an explicit Stop): the
    // teardown below already ran; acceptor_ is joined exactly once.
    return;
  }
  listener_.Shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();
  // Disconnect every connection: shutting the socket down unblocks its
  // reader, whose exit path cancels in-flight queries, finishes the
  // session and sees the pump out.
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    conn->socket.ShutdownBoth();
  }
  for (auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->pump.joinable()) conn->pump.join();
  }
}

void HydraServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Result<TcpSocket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      // Listener shut down (Stop) or hard error: stop accepting. Either
      // way existing connections keep being served until Stop.
      return;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Connection>();
    conn->socket = std::move(accepted).value();
    conn->session = std::make_unique<ServingSession>(index_, provider_,
                                                     options_.serving);
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->reader = std::thread([this, raw] { ReaderLoop(raw); });
    raw->pump = std::thread([this, raw] { PumpLoop(raw); });
  }
}

void HydraServer::SendFrame(Connection* conn, const std::string& frame) {
  std::lock_guard<std::mutex> lock(conn->send_mu);
  (void)conn->socket.SendAll(frame.data(), frame.size());
}

void HydraServer::BeginDisconnect(Connection* conn) {
  if (conn->disconnecting.exchange(true)) return;
  // Fire every outstanding query's token: the scan layers abandon at
  // their next cancellation point, releasing pins and skipping queued
  // prefetches — a vanished client cannot strand buffer-pool capacity.
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    for (auto& [id, token] : conn->tokens) token->Cancel();
  }
  // Close the submission side; the pump drains the (now cancelled)
  // remainder of the completion stream and exits. Results it sends
  // toward a dead socket are dropped by SendFrame.
  conn->session->Finish();
  conn->socket.ShutdownBoth();
}

bool HydraServer::HandleSubmit(Connection* conn,
                               std::span<const char> payload) {
  SubmitFrame submit;
  const Status decoded = DecodeSubmit(payload, &submit);
  if (!decoded.ok()) {
    frames_rejected_.fetch_add(1, std::memory_order_relaxed);
    StatusFrame err;
    err.request_id = 0;  // the id cannot be trusted out of a bad payload
    err.status = decoded;
    std::string frame;
    EncodeStatusFrame(err, &frame);
    SendFrame(conn, frame);
    return true;  // payload-level failure: the connection survives
  }
  if (submit.request_id == 0) {
    StatusFrame err;
    err.status = Status::InvalidArgument(
        "request_id 0 is reserved for connection-level status");
    std::string frame;
    EncodeStatusFrame(err, &frame);
    SendFrame(conn, frame);
    return true;
  }
  // Deadline re-arming happens HERE, at frame receipt: the token carries
  // the budget from this moment (network transfer already spent some of
  // the client's patience; that is the client library's concern). The
  // same token is the disconnect-cancellation handle, and because
  // params.cancel != nullptr the session arms no second deadline.
  auto token = submit.params.deadline_ms > 0
                   ? CancellationToken::WithDeadline(submit.params.deadline_ms)
                   : std::make_shared<CancellationToken>();
  submit.params.cancel = token;
  bool duplicate = false;
  {
    // One critical section: the token insert and the order push must be
    // atomic with respect to the pump retiring results, and a duplicate
    // in-flight id must not disturb the original's bookkeeping.
    std::lock_guard<std::mutex> lock(conn->mu);
    duplicate = !conn->tokens.emplace(submit.request_id, token).second;
    if (!duplicate) conn->order.push_back(submit.request_id);
  }
  if (duplicate) {
    frames_rejected_.fetch_add(1, std::memory_order_relaxed);
    StatusFrame err;
    err.request_id = submit.request_id;
    err.status = Status::InvalidArgument("request_id already in flight");
    std::string frame;
    EncodeStatusFrame(err, &frame);
    SendFrame(conn, frame);
    return true;
  }
  QueryTicket ticket = conn->session->Submit(
      std::span<const float>(submit.query.data(), submit.query.size()),
      submit.params);
  if (!ticket.valid()) {
    // The session was finished under us (server stopping / racing
    // disconnect): the submission was refused, typed. Undo the
    // bookkeeping and tell the client.
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->tokens.erase(submit.request_id);
      auto it = std::find(conn->order.begin(), conn->order.end(),
                          submit.request_id);
      if (it != conn->order.end()) conn->order.erase(it);
    }
    ResultFrame result;
    result.request_id = submit.request_id;
    result.status = ticket.status();
    std::string frame;
    EncodeResult(result, &frame);
    SendFrame(conn, frame);
  }
  return true;
}

void HydraServer::ReaderLoop(Connection* conn) {
  // --- Version negotiation: the first frame must be kHello. -------------
  bool negotiated = false;
  char header_bytes[kFrameHeaderBytes];
  std::string payload;
  while (true) {
    if (!conn->socket.RecvAll(header_bytes, sizeof(header_bytes)).ok()) {
      break;  // peer gone (or Stop shut the socket down)
    }
    FrameHeader header;
    const Status header_ok = DecodeFrameHeader(
        std::span<const char>(header_bytes, sizeof(header_bytes)), &header);
    if (!header_ok.ok()) {
      // Bad magic / oversized length: the byte stream is out of sync and
      // nothing after this point can be trusted — typed error frame,
      // then disconnect.
      frames_rejected_.fetch_add(1, std::memory_order_relaxed);
      StatusFrame err;
      err.status = header_ok;
      std::string frame;
      EncodeStatusFrame(err, &frame);
      SendFrame(conn, frame);
      break;
    }
    payload.resize(static_cast<size_t>(header.length));
    if (header.length > 0 &&
        !conn->socket.RecvAll(payload.data(), payload.size()).ok()) {
      break;
    }
    const std::span<const char> body(payload.data(), payload.size());
    if (!negotiated) {
      if (header.kind != MessageKind::kHello) {
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        StatusFrame err;
        err.status = Status::FailedPrecondition(
            "protocol violation: first frame must be Hello");
        std::string frame;
        EncodeStatusFrame(err, &frame);
        SendFrame(conn, frame);
        break;
      }
      HelloFrame hello;
      const Status decoded = DecodeHello(body, &hello);
      // This server speaks exactly kProtocolVersion: a range without it
      // (an older client's {1, 1} included) is refused typed.
      if (!decoded.ok() || hello.min_version > kProtocolVersion ||
          hello.max_version < kProtocolVersion) {
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        StatusFrame err;
        err.status =
            decoded.ok()
                ? Status::FailedPrecondition(
                      "no common protocol version: server speaks " +
                      std::to_string(kProtocolVersion) + ", client offered [" +
                      std::to_string(hello.min_version) + ", " +
                      std::to_string(hello.max_version) + "]")
                : decoded;
        std::string frame;
        EncodeStatusFrame(err, &frame);
        SendFrame(conn, frame);
        break;
      }
      HelloAckFrame ack;
      std::string frame;
      EncodeHelloAck(ack, &frame);
      SendFrame(conn, frame);
      negotiated = true;
      continue;
    }
    if (!KnownMessageKind(static_cast<uint16_t>(header.kind))) {
      // Unknown kind: this version doesn't speak it, but the frame was
      // well-formed and fully consumed — reject typed, keep the
      // connection.
      frames_rejected_.fetch_add(1, std::memory_order_relaxed);
      StatusFrame err;
      err.status = Status::Unimplemented(
          "unknown message kind: " +
          std::to_string(static_cast<uint16_t>(header.kind)));
      std::string frame;
      EncodeStatusFrame(err, &frame);
      SendFrame(conn, frame);
      continue;
    }
    switch (header.kind) {
      case MessageKind::kSubmit:
        HandleSubmit(conn, body);
        break;
      case MessageKind::kCancel: {
        CancelFrame cancel;
        if (DecodeCancel(body, &cancel).ok()) {
          std::lock_guard<std::mutex> lock(conn->mu);
          auto it = conn->tokens.find(cancel.request_id);
          // Unknown id = already completed (or never existed): cancel is
          // inherently racy, so that is simply a no-op, not an error.
          if (it != conn->tokens.end()) it->second->Cancel();
        }
        break;
      }
      case MessageKind::kStatsRequest: {
        StatsReplyFrame reply;
        reply.stats = conn->session->stats();
        // Server-level policing counters ride along with the session
        // snapshot: one round-trip tells an operator both how the
        // session is configured and what the listener has been doing.
        reply.stats.connections_accepted =
            connections_accepted_.load(std::memory_order_relaxed);
        reply.stats.frames_rejected =
            frames_rejected_.load(std::memory_order_relaxed);
        std::string frame;
        EncodeStatsReply(reply, &frame);
        SendFrame(conn, frame);
        break;
      }
      case MessageKind::kFinish:
        // Client is done submitting. The pump drains the remaining
        // results and answers with its own kFinish; the reader keeps
        // serving kCancel/kStatsRequest until the client closes.
        conn->session->Finish();
        break;
      default: {
        // Known kind that only flows server → client (Result, HelloAck,
        // ...): a client sending it is confused but not fatal.
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        StatusFrame err;
        err.status = Status::InvalidArgument(
            "unexpected client-bound message kind: " +
            std::to_string(static_cast<uint16_t>(header.kind)));
        std::string frame;
        EncodeStatusFrame(err, &frame);
        SendFrame(conn, frame);
        break;
      }
    }
  }
  BeginDisconnect(conn);
}

void HydraServer::PumpLoop(Connection* conn) {
  while (true) {
    std::optional<ServedQuery> served = conn->session->Next();
    if (!served.has_value()) break;
    ResultFrame result;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      // The session's completion stream is in submission order, so the
      // oldest unanswered request_id is this result's.
      if (!conn->order.empty()) {
        result.request_id = conn->order.front();
        conn->order.pop_front();
        conn->tokens.erase(result.request_id);
      }
    }
    result.status = served->answer.ok() ? Status::OK()
                                        : served->answer.status();
    if (served->answer.ok()) result.answer = std::move(served->answer).value();
    result.counters = served->counters;
    result.seconds = served->seconds;
    std::string frame;
    EncodeResult(result, &frame);
    SendFrame(conn, frame);
  }
  // End-of-stream marker: the client's Next() drains to nullopt on this.
  std::string frame;
  EncodeFinish(&frame);
  SendFrame(conn, frame);
}

}  // namespace hydra
