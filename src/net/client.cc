#include "net/client.h"

#include <cassert>
#include <utility>
#include <vector>

namespace hydra {

Result<std::unique_ptr<HydraClient>> HydraClient::Connect(
    const std::string& host, uint16_t port, Sink sink) {
  HYDRA_ASSIGN_OR_RETURN(TcpSocket socket, TcpSocket::Connect(host, port));
  // Handshake: offer our version range, accept the server's choice — or
  // surface its typed refusal as our own connect error.
  HelloFrame hello;
  std::string frame;
  EncodeHello(hello, &frame);
  HYDRA_RETURN_IF_ERROR(socket.SendAll(frame.data(), frame.size()));
  FrameHeader header;
  std::string payload;
  HYDRA_RETURN_IF_ERROR(RecvFrame(socket, &header, &payload));
  const std::span<const char> body(payload.data(), payload.size());
  if (header.kind == MessageKind::kStatus) {
    StatusFrame refused;
    HYDRA_RETURN_IF_ERROR(DecodeStatusFrame(body, &refused));
    return refused.status;
  }
  if (header.kind != MessageKind::kHelloAck) {
    return Status::FailedPrecondition(
        "handshake: expected HelloAck, got kind " +
        std::to_string(static_cast<uint16_t>(header.kind)));
  }
  HelloAckFrame ack;
  HYDRA_RETURN_IF_ERROR(DecodeHelloAck(body, &ack));
  if (ack.version < hello.min_version || ack.version > hello.max_version) {
    return Status::FailedPrecondition(
        "handshake: server chose unsupported version " +
        std::to_string(ack.version));
  }
  std::unique_ptr<HydraClient> client(new HydraClient());
  client->socket_ = std::move(socket);
  client->negotiated_version_ = ack.version;
  client->sink_ = std::move(sink);
  client->recv_thread_ = std::thread([c = client.get()] { c->RecvLoop(); });
  return client;
}

HydraClient::~HydraClient() {
  Finish();
  {
    // Drain-or-resolve: the server keeps serving after kFinish, so every
    // outstanding request comes back as a result frame — or is failed
    // typed when the transport dies — before the client closes.
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_; });
  }
  socket_.ShutdownBoth();
  if (recv_thread_.joinable()) recv_thread_.join();
  socket_.Close();
  assert(pending_.empty() && "HydraClient left a ticket unresolved");
}

Status HydraClient::Ping() const {
  HYDRA_ASSIGN_OR_RETURN(ServingStats ignored, TryStats());
  (void)ignored;
  return Status::OK();
}

bool HydraClient::WaitClosed(std::chrono::microseconds timeout) const {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, timeout, [this] { return closed_; });
}

Status HydraClient::SendLocked(const std::string& frame) {
  const Status sent = socket_.SendAll(frame.data(), frame.size());
  if (!sent.ok()) Break(sent);
  return sent;
}

void HydraClient::Break(const Status& why) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (broken_) return;
    broken_ = true;
    broken_status_ = why;
    cv_.notify_all();  // a stats waiter gets no reply now
  }
  socket_.ShutdownBoth();
}

QueryTicket HydraClient::Submit(std::span<const float> query,
                                const SearchParams& params) {
  std::shared_ptr<QueryTicket::State> state;
  std::string frame;
  // Holding the send lock across the check AND the write keeps a
  // submission that passed the check ahead of Finish's kFinish on the
  // wire: the server refuses a kSubmit that follows it.
  std::lock_guard<std::mutex> send_lock(send_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_ || server_done_ || broken_) return QueryTicket();
    state = std::make_shared<QueryTicket::State>();
    state->id = next_request_id_++;
    pending_.emplace(state->id, state);
  }
  SubmitFrame msg;
  msg.request_id = state->id;
  msg.params = params;
  msg.params.cancel = nullptr;  // tokens never cross the wire
  msg.query.assign(query.begin(), query.end());
  EncodeSubmit(msg, &frame);
  if (!SendLocked(frame).ok()) {
    // The submission never reached the server: refuse it the way the
    // session refuses a dropped submission (invalid ticket), with no
    // phantom result in the stream — unless the receive thread already
    // took it into the dying connection's typed failures.
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.erase(state->id) != 0) return QueryTicket();
  }
  return QueryTicket(state);
}

std::optional<ServedQuery> HydraClient::Next() {
  std::unique_lock<std::mutex> lock(mu_);
  // Once the connection is closed nothing more arrives, so the ids
  // whose submit failed are skipped.
  cv_.wait(lock, [this] { return results_.count(next_result_) || closed_; });
  if (results_.empty()) return std::nullopt;
  auto it = results_.begin();
  ServedQuery out = std::move(it->second);
  next_result_ = it->first + 1;
  results_.erase(it);
  return out;
}

void HydraClient::Finish() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_) return;
    finished_ = true;
    if (broken_) return;  // nothing to tell a dead connection
  }
  std::string frame;
  EncodeFinish(&frame);
  std::lock_guard<std::mutex> send_lock(send_mu_);
  (void)SendLocked(frame);
}

Result<ServingStats> HydraClient::TryStats() const {
  std::string frame;
  EncodeStatsRequest(&frame);
  // Waiters queue on stats_mu_, not send_mu_: the receive thread may be
  // inside the sink, sending on this client, before it reads the reply.
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (broken_) return broken_status_;
    stats_ready_ = false;
  }
  {
    std::lock_guard<std::mutex> send_lock(send_mu_);
    // A failed send here is left to the receive thread to discover.
    HYDRA_RETURN_IF_ERROR(socket_.SendAll(frame.data(), frame.size()));
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return stats_ready_ || broken_; });
  if (!stats_ready_) return broken_status_;
  return stats_value_;
}

ServingStats HydraClient::stats() const {
  Result<ServingStats> snapshot = TryStats();
  return snapshot.ok() ? snapshot.value() : ServingStats{};
}

void HydraClient::Cancel(const QueryTicket& ticket) {
  if (!ticket.valid()) return;
  CancelFrame msg;
  msg.request_id = ticket.id();
  std::string frame;
  EncodeCancel(msg, &frame);
  std::lock_guard<std::mutex> send_lock(send_mu_);
  (void)SendLocked(frame);
}

void HydraClient::Deliver(uint64_t id, ServedQuery served) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  std::shared_ptr<QueryTicket::State> state = std::move(it->second);
  pending_.erase(it);
  state->Resolve(served.answer);
  served.ticket = QueryTicket(std::move(state));
  if (!sink_) {
    results_.emplace(id, std::move(served));
    cv_.notify_all();
    return;
  }
  lock.unlock();
  sink_(std::move(served));
}

void HydraClient::RecvLoop() {
  FrameHeader header;
  std::string payload;
  Status st;
  // Any read or decode failure ends the connection: a server speaking
  // garbage means the stream is desynced (same policy as the server).
  while ((st = RecvFrame(socket_, &header, &payload)).ok()) {
    const std::span<const char> body(payload.data(), payload.size());
    if (header.kind == MessageKind::kResult) {
      ResultFrame result;
      st = DecodeResult(body, &result);
      if (!st.ok()) break;
      ServedQuery out;
      out.answer = result.status.ok()
                       ? Result<KnnAnswer>(std::move(result.answer))
                       : Result<KnnAnswer>(result.status);
      out.counters = result.counters;
      out.seconds = result.seconds;
      Deliver(result.request_id, std::move(out));
    } else if (header.kind == MessageKind::kStatus) {
      // Request-level typed rejection (e.g. the server refused the
      // submission); request_id 0 is a connection-level notice.
      StatusFrame rejected;
      if (DecodeStatusFrame(body, &rejected).ok() &&
          rejected.request_id != 0) {
        ServedQuery out;
        out.answer = Result<KnnAnswer>(rejected.status);
        Deliver(rejected.request_id, std::move(out));
      }
    } else if (header.kind == MessageKind::kStatsReply) {
      StatsReplyFrame reply;
      if (DecodeStatsReply(body, &reply).ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        stats_value_ = reply.stats;
        stats_ready_ = true;
        cv_.notify_all();
      }
    } else if (header.kind == MessageKind::kFinish) {
      // Submit refuses from here on, so pending_ only shrinks.
      std::lock_guard<std::mutex> lock(mu_);
      server_done_ = true;
    }
    // Other kinds are ignored: forward compatibility for chatter a
    // newer server might add.
    std::lock_guard<std::mutex> lock(mu_);
    if (server_done_ && pending_.empty() && !closed_) {
      closed_ = true;
      cv_.notify_all();
    }
  }
  // The connection is dead. Accepted queries always resolve: every
  // outstanding request gets a typed error result carrying the first
  // failure, in id order (pending_ is an ordered map), so a drain loop
  // sees as many results as it submitted queries.
  Break(st);
  std::vector<uint64_t> ids;
  Status cause;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cause = broken_status_;
    for (const auto& entry : pending_) ids.push_back(entry.first);
  }
  for (uint64_t id : ids) {
    Status lost = Status::Unavailable("connection lost before result: " +
                                      cause.ToString());
    if (cause.has_io_context()) lost.WithIoContext(cause.io_context());
    ServedQuery out;
    out.answer = Result<KnnAnswer>(std::move(lost));
    Deliver(id, std::move(out));
  }
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

}  // namespace hydra
