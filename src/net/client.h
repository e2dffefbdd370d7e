#ifndef HYDRA_NET_CLIENT_H_
#define HYDRA_NET_CLIENT_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "common/status.h"
#include "exec/serving_backend.h"
#include "net/socket.h"
#include "net/wire.h"

namespace hydra {

// Remote ServingBackend: the exact Submit/QueryTicket/Next surface of
// an in-process ServingSession, spoken over one TCP connection to a
// HydraServer. Callers written against ServingBackend cannot tell the
// difference — answers are bit-identical (the wire moves bytes, never
// recomputes them), Next() hands results out in submission order, and
// failures surface as the same typed Status the server saw (IoContext
// included).
//
// Threading: one background receive thread owns the socket's read side
// and is the one place a request is resolved. It hands each result to
// the sink given at Connect — by default the store behind Next(), which
// orders results by request id whatever order the server sent them in
// — and stats replies to their waiter. Submit and Next are safe
// to call concurrently (the open-loop harness drives exactly that: a
// submitter thread racing a drain thread); sends are serialized
// internally and never deliver anything themselves.
//
// Failure semantics: when the connection drops, every outstanding
// request is resolved with a typed Unavailable result (the accepted-
// query-always-yields-a-result contract survives the transport dying),
// later Submits return invalid tickets, and Next drains to nullopt.
class HydraClient : public ServingBackend {
 public:
  // Receives each resolved request — results and the typed failures of
  // a dying connection alike — on the receive thread, with no client
  // lock held. It may call Submit/Cancel/Finish on this client.
  using Sink = std::function<void(ServedQuery)>;

  // Connects and performs the version handshake (kHello/kHelloAck).
  // Fails typed when the server is unreachable or no protocol version
  // is shared. Without a sink, results queue for Next(); with one,
  // Next() only reports the end of the stream.
  static Result<std::unique_ptr<HydraClient>> Connect(const std::string& host,
                                                      uint16_t port,
                                                      Sink sink = {});

  // Finishes (if the caller did not), then waits until the client
  // closes — every accepted ticket resolved, served by the still-running
  // server or failed typed by the disconnect path — before tearing the
  // connection down and joining the receive thread. Drain-or-resolve: destruction never
  // races a pending ticket out of existence, and no ticket is ever left
  // unresolved (asserted). Must not run on the receive thread, nor hold
  // a lock the sink takes.
  ~HydraClient() override;

  HydraClient(const HydraClient&) = delete;
  HydraClient& operator=(const HydraClient&) = delete;

  // ServingBackend. Submit serializes the query into a kSubmit frame;
  // the ticket's id is the wire request_id. An invalid ticket means the
  // submission was refused locally (after Finish / a dead connection) —
  // same contract as the in-process session.
  QueryTicket Submit(std::span<const float> query,
                     const SearchParams& params) override;
  std::optional<ServedQuery> Next() override;
  void Finish() override;
  // Round-trips a kStatsRequest: the SERVER session's numbers. Returns
  // a zeroed snapshot when the connection is gone.
  ServingStats stats() const override;

  // Fires server-side cancellation for one in-flight query (kCancel).
  // Inherently racy with completion: cancelling a finished query is a
  // no-op, same as CancellationToken::Cancel after the fact.
  void Cancel(const QueryTicket& ticket);

  // The version the server chose during the handshake.
  uint16_t negotiated_version() const { return negotiated_version_; }

  // Health probe for the connection pool: proves liveness with a stats
  // round-trip (kStatsRequest is the protocol's ping).
  Status Ping() const;
  // stats() with the failure kept typed instead of flattened to a
  // zeroed snapshot.
  Result<ServingStats> TryStats() const;

  // True once the receive thread has returned from delivering the
  // connection's last result — after the server's kFinish with nothing
  // pending, or after the connection died; false if `timeout` passes
  // first. Nothing reaches the sink after it turns true.
  bool WaitClosed(std::chrono::microseconds timeout) const;

 private:
  HydraClient() = default;

  void RecvLoop();
  // Takes request `id` out of pending_, resolves its ticket with
  // `served.answer` and hands it to the sink. Receive thread only; an
  // id no longer pending (its submit failed) is skipped.
  void Deliver(uint64_t id, ServedQuery served);
  // Marks the connection broken (the first cause wins) and shuts the
  // socket down, which ends the receive thread's read; that thread then
  // resolves what is pending. Idempotent.
  void Break(const Status& why);
  // Sends one frame with send_mu_ held; a failed send breaks the
  // connection.
  Status SendLocked(const std::string& frame);

  TcpSocket socket_;
  uint16_t negotiated_version_ = 0;
  Sink sink_;

  // Held across a Submit's id assignment and write, and for any other
  // single send — never across a wait for the receive thread.
  mutable std::mutex send_mu_;
  // One stats waiter at a time, so each reply answers its own request.
  mutable std::mutex stats_mu_;

  mutable std::mutex mu_;
  // Results, stats replies and close. Nothing else notifies it, so a
  // WaitClosed waiter sleeps through the deliveries to a sink.
  mutable std::condition_variable cv_;
  // The default sink's results by request id; Next() hands them out in
  // id order, from next_result_ on.
  std::map<uint64_t, ServedQuery> results_;
  uint64_t next_result_ = 1;
  // request_id → ticket state of requests awaiting their result frame.
  std::map<uint64_t, std::shared_ptr<QueryTicket::State>> pending_;
  uint64_t next_request_id_ = 1;  // 0 is the connection-level sentinel
  bool finished_ = false;     // local Finish() called (submission closed)
  bool server_done_ = false;  // server's kFinish received
  bool broken_ = false;       // connection failed (see broken_status_)
  bool closed_ = false;       // last result delivered (see WaitClosed)
  Status broken_status_;
  mutable bool stats_ready_ = false;
  mutable ServingStats stats_value_;

  std::thread recv_thread_;
};

}  // namespace hydra

#endif  // HYDRA_NET_CLIENT_H_
