#ifndef HYDRA_NET_SERVER_H_
#define HYDRA_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "exec/query_scheduler.h"
#include "net/socket.h"
#include "net/wire.h"

namespace hydra {

class SeriesProvider;  // storage/buffer_manager.h

struct ServerOptions {
  uint16_t port = 0;  // 0 = kernel-assigned ephemeral port (see port())
  // Per-connection serving configuration: every accepted connection gets
  // its OWN ServingSession over the shared index/provider with these
  // options — pin/prefetch budget negotiation happens per connection,
  // and one connection's completion stream is independent of (and never
  // blocked by) another's.
  ServingOptions serving;
};

// TCP front-end over the serving engine. Listens on loopback, speaks
// the net/wire.h frame protocol, and maps each connection onto one
// ServingSession:
//
//   reader thread (per connection): negotiates the protocol version
//     (kHello/kHelloAck), then deserializes kSubmit frames into
//     ServingSession::Submit. Each submission gets a fresh
//     CancellationToken, armed with the frame's deadline_ms at RECEIPT
//     time — the client's queue wait on its side of the socket does not
//     count against the budget, the server-side queue wait does (the
//     session sees params.cancel != nullptr and arms nothing itself).
//     kCancel fires the matching token; kStatsRequest answers with the
//     session's ServingStats; kFinish closes the session's submission
//     side.
//   pump thread (per connection): drains ServingSession::Next() — whose
//     order IS the client's submission order — and writes each result
//     back as a kResult frame; after the drain it sends kFinish (the
//     client's end-of-stream marker).
//
// Robustness contract (tests/net_serving_test.cc):
//   - A dropped connection cancels every in-flight query of THAT client
//     through the CancellationToken path, finishes the session, and
//     drains it — all pins are released, and other connections keep
//     being served. Same path for kill -9 clients and polite closes.
//   - Malformed payloads and unknown message kinds cost one typed
//     kStatus error frame, never the connection; a bad magic or an
//     oversized declared length poisons the stream itself, so those get
//     the error frame AND a disconnect.
//   - No exception and no client input can take the server down.
class HydraServer {
 public:
  // Borrows index/provider (must outlive the server). Binds and starts
  // the acceptor; fails typed if the port cannot be bound.
  static Result<std::unique_ptr<HydraServer>> Start(
      const Index& index, SeriesProvider* provider,
      const ServerOptions& options);

  ~HydraServer();

  HydraServer(const HydraServer&) = delete;
  HydraServer& operator=(const HydraServer&) = delete;

  // The bound port (the kernel's choice when options.port was 0).
  uint16_t port() const { return listener_.port(); }

  // Stops accepting, disconnects every connection (cancelling its
  // in-flight queries), joins all threads. Idempotent; the destructor
  // calls it.
  void Stop();

  // Observability (racy by nature).
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  uint64_t frames_rejected() const {
    return frames_rejected_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection;

  HydraServer(const Index& index, SeriesProvider* provider,
              ServerOptions options, TcpListener listener);

  void AcceptLoop();
  void ReaderLoop(Connection* conn);
  void PumpLoop(Connection* conn);
  // The disconnect contract: cancel outstanding tokens, finish the
  // session (the pump drains it and exits). Idempotent per connection.
  void BeginDisconnect(Connection* conn);
  // Serializes `frame` onto the connection's socket under its send lock.
  // Send failures are swallowed: they mean the peer is gone, and the
  // reader's disconnect path owns that event.
  void SendFrame(Connection* conn, const std::string& frame);
  bool HandleSubmit(Connection* conn, std::span<const char> payload);

  const Index& index_;
  SeriesProvider* provider_;
  ServerOptions options_;
  TcpListener listener_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_rejected_{0};

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;

  std::thread acceptor_;
};

}  // namespace hydra

#endif  // HYDRA_NET_SERVER_H_
