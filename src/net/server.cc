#include "net/server.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <map>
#include <string>
#include <utility>

#include "common/cancellation.h"

namespace hydra {

// Per-connection state, shared by the connection thread and the sinks
// of the connection's queries (on pool workers). `mu` guards the token
// map — the cancellation rendezvous — and the outbound bytes, which keep
// frames whole and in order.
struct HydraServer::Connection {
  TcpSocket socket;
  int wake_fd = -1;  // eventfd: outbound bytes wait for the thread

  std::mutex mu;
  std::map<uint64_t, std::shared_ptr<CancellationToken>> tokens;
  std::string outbound;    // frames the socket has not taken yet
  bool finishing = false;  // the client sent kFinish
  bool closed = false;     // disconnected: later frames are dropped

  std::atomic<bool> exited{false};  // the thread returned; reapable
  std::thread thread;

  // Appends `frame` to the outbound bytes. If they were empty, hands the
  // socket what it takes without blocking, and wakes the connection
  // thread to send what is left. Called with mu held.
  void QueueLocked(const std::string& frame) {
    if (closed) return;
    const bool was_empty = outbound.empty();
    outbound += frame;
    if (!was_empty) return;  // the connection thread is sending
    FlushLocked();
    const uint64_t one = 1;
    if (!outbound.empty()) (void)!::write(wake_fd, &one, sizeof(one));
  }

  // A failed send means the peer is gone: this and every later frame is
  // dropped, and the shutdown wakes the thread, which disconnects.
  void FlushLocked() {
    Result<size_t> sent = socket.SendSome(outbound.data(), outbound.size());
    if (sent.ok()) {
      outbound.erase(0, sent.value());
      return;
    }
    closed = true;
    outbound.clear();
    socket.ShutdownBoth();
  }

  // The kResult frame of one finished or refused query.
  static std::string ResultFrameOf(uint64_t request_id, ServedQuery served) {
    ResultFrame result;
    result.request_id = request_id;
    result.status =
        served.answer.ok() ? Status::OK() : served.answer.status();
    if (served.answer.ok()) result.answer = std::move(served.answer).value();
    result.counters = served.counters;
    result.seconds = served.seconds;
    std::string frame;
    EncodeResult(result, &frame);
    return frame;
  }

  // The sink of one of the connection's queries, on the pool worker that
  // finished it.
  void Deliver(uint64_t request_id, ServedQuery served) {
    std::string frame = ResultFrameOf(request_id, std::move(served));
    std::lock_guard<std::mutex> lock(mu);
    tokens.erase(request_id);
    if (finishing && tokens.empty()) EncodeFinish(&frame);
    QueueLocked(frame);
  }

  void QueueFrame(const std::string& frame) {
    std::lock_guard<std::mutex> lock(mu);
    QueueLocked(frame);
  }
};

Result<std::unique_ptr<HydraServer>> HydraServer::Start(
    const Index& index, SeriesProvider* provider,
    const ServerOptions& options) {
  HYDRA_ASSIGN_OR_RETURN(TcpListener listener,
                         TcpListener::Listen(options.port));
  std::unique_ptr<HydraServer> server(new HydraServer(
      index, provider, options.serving, std::move(listener)));
  server->acceptor_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

HydraServer::HydraServer(const Index& index, SeriesProvider* provider,
                         const ServingOptions& serving, TcpListener listener)
    : listener_(std::move(listener)),
      session_(std::make_unique<ServingSession>(index, provider, serving)) {}

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
  session_->Finish();  // refuses submitters parked on a full queue
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  // Shutting a socket down ends its thread's wait; the thread's
  // disconnect cancels the connection's in-flight queries.
  for (auto& conn : conns) {
    std::lock_guard<std::mutex> lock(conn->mu);  // the thread closes it
    conn->socket.ShutdownBoth();
  }
  for (auto& conn : conns) conn->thread.join();
  session_.reset();  // waits for every admitted query and its delivery
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
    auto conn = std::make_shared<Connection>();
    conn->socket = std::move(accepted).value();
    conn->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (conn->wake_fd < 0) continue;  // out of descriptors: dropped
    std::lock_guard<std::mutex> lock(conns_mu_);
    // Reap closed connections, so a long-running server keeps its
    // thread stacks.
    std::erase_if(conns_, [](const std::shared_ptr<Connection>& c) {
      if (!c->exited.load(std::memory_order_acquire)) return false;
      c->thread.join();
      return true;
    });
    conn->thread = std::thread([this, conn] { Serve(conn); });
    conns_.push_back(std::move(conn));
  }
}

size_t HydraServer::open_connections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return static_cast<size_t>(std::count_if(
      conns_.begin(), conns_.end(), [](const std::shared_ptr<Connection>& c) {
        return !c->exited.load(std::memory_order_acquire);
      }));
}

void HydraServer::Reject(Connection& conn, uint64_t request_id,
                         const Status& why) {
  frames_rejected_.fetch_add(1, std::memory_order_relaxed);
  std::string frame;
  EncodeStatusFrame(StatusFrame{request_id, why}, &frame);
  conn.QueueFrame(frame);
}

bool HydraServer::Negotiate(Connection& conn, const FrameHeader& header,
                            std::span<const char> body) {
  if (header.kind != MessageKind::kHello) {
    Reject(conn, 0,
           Status::FailedPrecondition(
               "protocol violation: first frame must be Hello"));
    return false;
  }
  HelloFrame hello;
  const Status decoded = DecodeHello(body, &hello);
  // This server speaks exactly kProtocolVersion: a range without it (an
  // older client's {2, 2} included) is refused typed.
  if (!decoded.ok() || hello.min_version > kProtocolVersion ||
      hello.max_version < kProtocolVersion) {
    Reject(conn, 0,
           decoded.ok() ? Status::FailedPrecondition(
                              "no common protocol version: server speaks " +
                              std::to_string(kProtocolVersion) +
                              ", client offered [" +
                              std::to_string(hello.min_version) + ", " +
                              std::to_string(hello.max_version) + "]")
                        : decoded);
    return false;
  }
  std::string frame;
  EncodeHelloAck(HelloAckFrame{}, &frame);
  conn.QueueFrame(frame);
  return true;
}

void HydraServer::Serve(const std::shared_ptr<Connection>& conn) {
  FrameHeader header;
  std::string payload;
  bool negotiated = false;
  bool open = true;
  while (open) {
    bool sending = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      sending = !conn->outbound.empty();
    }
    // Reading goes on while results wait to be sent: a client may stop
    // reading until its own blocked send completes (a replica set sends
    // under the lock its receive thread takes).
    pollfd fds[2] = {
        {conn->socket.fd(),
         static_cast<short>(POLLIN | (sending ? POLLOUT : 0)), 0},
        {conn->wake_fd, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      open = errno == EINTR;
      continue;
    }
    if (fds[1].revents != 0) {
      uint64_t wakes = 0;
      (void)!::read(conn->wake_fd, &wakes, sizeof(wakes));
    }
    if ((fds[0].revents & POLLOUT) != 0) {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->FlushLocked();
    }
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const Status read = RecvFrame(conn->socket, &header, &payload);
    if (!read.ok()) {
      // Bad magic / oversized length: the byte stream is out of sync and
      // nothing after this point can be trusted — typed error frame,
      // then disconnect. Any other failure: the peer is gone (or Stop
      // shut the socket down).
      if (read.code() == StatusCode::kInvalidArgument) {
        Reject(*conn, 0, read);
      }
      break;
    }
    const std::span<const char> body(payload.data(), payload.size());
    if (negotiated) {
      HandleFrame(conn, header, body);
    } else {
      open = negotiated = Negotiate(*conn, header, body);
    }
  }
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->closed = true;
  conn->outbound.clear();
  // Fire every outstanding query's token: the scan layers abandon at
  // their next cancellation point, releasing pins and skipping queued
  // prefetches — a vanished client cannot strand buffer-pool capacity.
  for (auto& [id, token] : conn->tokens) token->Cancel();
  // Nothing touches a closed connection's descriptors again.
  conn->socket.Close();
  ::close(conn->wake_fd);
  conn->exited.store(true, std::memory_order_release);
}

void HydraServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                              const FrameHeader& header,
                              std::span<const char> body) {
  if (!KnownMessageKind(static_cast<uint16_t>(header.kind))) {
    // Unknown kind: this version doesn't speak it, but the frame was
    // well-formed and fully consumed — reject typed, keep the
    // connection.
    Reject(*conn, 0,
           Status::Unimplemented(
               "unknown message kind: " +
               std::to_string(static_cast<uint16_t>(header.kind))));
    return;
  }
  switch (header.kind) {
    case MessageKind::kSubmit:
      HandleSubmit(conn, body);
      return;
    case MessageKind::kCancel: {
      CancelFrame cancel;
      if (DecodeCancel(body, &cancel).ok()) {
        std::lock_guard<std::mutex> lock(conn->mu);
        auto it = conn->tokens.find(cancel.request_id);
        // Unknown id = already completed (or never existed): cancel is
        // inherently racy, so that is simply a no-op, not an error.
        if (it != conn->tokens.end()) it->second->Cancel();
      }
      return;
    }
    case MessageKind::kStatsRequest: {
      StatsReplyFrame reply;
      reply.stats = session_->stats();
      // Server-level policing counters ride along with the session
      // snapshot: one round-trip tells an operator both how the
      // session is configured and what the listener has been doing.
      reply.stats.connections_accepted =
          connections_accepted_.load(std::memory_order_relaxed);
      reply.stats.frames_rejected =
          frames_rejected_.load(std::memory_order_relaxed);
      std::string frame;
      EncodeStatsReply(reply, &frame);
      conn->QueueFrame(frame);
      return;
    }
    case MessageKind::kFinish: {
      // Client is done submitting. Our kFinish follows its last result
      // (see Deliver); kCancel/kStatsRequest are still served until the
      // client closes.
      std::lock_guard<std::mutex> lock(conn->mu);
      std::string frame;
      if (!conn->finishing && conn->tokens.empty()) EncodeFinish(&frame);
      conn->finishing = true;
      if (!frame.empty()) conn->QueueLocked(frame);
      return;
    }
    default:
      // Known kind that only flows server → client (Result, HelloAck,
      // ...): a client sending it is confused but not fatal.
      Reject(*conn, 0,
             Status::InvalidArgument(
                 "unexpected client-bound message kind: " +
                 std::to_string(static_cast<uint16_t>(header.kind))));
      return;
  }
}

void HydraServer::HandleSubmit(const std::shared_ptr<Connection>& conn,
                               std::span<const char> payload) {
  SubmitFrame submit;
  Status decoded = DecodeSubmit(payload, &submit);
  if (decoded.ok() && submit.request_id == 0) {
    decoded = Status::InvalidArgument(
        "request_id 0 is reserved for connection-level status");
  }
  if (!decoded.ok()) {
    // Payload-level failure: the connection survives. The id cannot be
    // trusted out of a bad payload.
    Reject(*conn, 0, decoded);
    return;
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
  const uint64_t id = submit.request_id;
  Status refused;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->finishing) {
      refused = Status::Unavailable("submission after Finish");
    } else if (!conn->tokens.emplace(id, token).second) {
      refused = Status::InvalidArgument("request_id already in flight");
    }
  }
  if (refused.code() == StatusCode::kInvalidArgument) {
    // A duplicate must not disturb the original's bookkeeping.
    Reject(*conn, id, refused);
    return;
  }
  if (refused.ok()) {
    // The sink may run before Submit returns: it needs only the
    // connection and the request id, never the ticket.
    QueryTicket ticket = session_->Submit(
        std::span<const float>(submit.query.data(), submit.query.size()),
        submit.params, [conn, id](ServedQuery served) {
          conn->Deliver(id, std::move(served));
        });
    if (ticket.valid()) return;
    // The session was finished under us (server stopping): the
    // submission was refused, typed.
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->tokens.erase(id);
    refused = ticket.status();
  }
  ServedQuery refusal;
  refusal.answer = refused;
  conn->QueueFrame(Connection::ResultFrameOf(id, std::move(refusal)));
}

}  // namespace hydra
