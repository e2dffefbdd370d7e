#ifndef HYDRA_NET_SERVER_H_
#define HYDRA_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/status.h"
#include "exec/query_scheduler.h"
#include "net/socket.h"
#include "net/wire.h"

namespace hydra {

class SeriesProvider;  // storage/buffer_manager.h

struct ServerOptions {
  uint16_t port = 0;  // 0 = kernel-assigned ephemeral port (see port())
  // The server's one ServingSession, which every connection submits
  // into: its admission limit, queue, capability clamp and pin/prefetch
  // split cover all connections together.
  ServingOptions serving;
};

// TCP front-end over the serving engine. Listens on loopback, speaks
// the net/wire.h frame protocol, and submits every connection's queries
// into one ServingSession:
//
//   acceptor thread: accepts connections; joins and drops closed ones.
//   connection thread (one per connection): negotiates the protocol
//     version (kHello/kHelloAck), then polls the socket and a wake
//     descriptor, reading a whole frame when the socket is readable.
//     Each kSubmit gets a fresh CancellationToken, armed with the
//     frame's deadline_ms at RECEIPT time — the client's queue wait on
//     its side of the socket does not count against the budget, the
//     server-side queue wait does. kCancel fires the matching token;
//     after kFinish, the server's kFinish follows the last result.
//   pool workers: the worker that finishes a query sends its kResult
//     frame without blocking, so results leave in completion order.
//     Bytes the socket does not take wait for the connection thread,
//     which sends them when the socket is writable and keeps reading
//     meanwhile. A client that stops reading holds only its own thread.
//
// Robustness contract (tests/net_serving_test.cc):
//   - A dropped connection cancels every in-flight query of THAT client
//     through the CancellationToken path and drops their results — all
//     pins are released, and other connections keep being served. Same
//     path for kill -9 clients and polite closes.
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
  // in-flight queries), joins all threads and waits for every admitted
  // query: afterwards nothing touches the index or the provider.
  // Idempotent; the destructor calls it.
  void Stop();

  // Observability (racy by nature).
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  uint64_t frames_rejected() const {
    return frames_rejected_.load(std::memory_order_relaxed);
  }
  // Connections whose thread has not returned. A dropped connection's
  // thread returns after firing its queries' tokens, and reads no frame
  // of it again.
  size_t open_connections();

 private:
  struct Connection;

  HydraServer(const Index& index, SeriesProvider* provider,
              const ServingOptions& serving, TcpListener listener);

  void AcceptLoop();
  // The connection thread, disconnect included.
  void Serve(const std::shared_ptr<Connection>& conn);
  // Answers the connection's first frame, which must be kHello; false =
  // refused (disconnect).
  bool Negotiate(Connection& conn, const FrameHeader& header,
                 std::span<const char> body);
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const FrameHeader& header, std::span<const char> body);
  void HandleSubmit(const std::shared_ptr<Connection>& conn,
                    std::span<const char> payload);
  // Counts a rejected frame and answers it with a typed kStatus frame.
  void Reject(Connection& conn, uint64_t request_id, const Status& why);

  TcpListener listener_;
  std::unique_ptr<ServingSession> session_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_rejected_{0};

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;

  std::thread acceptor_;
};

}  // namespace hydra

#endif  // HYDRA_NET_SERVER_H_
