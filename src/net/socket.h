#ifndef HYDRA_NET_SOCKET_H_
#define HYDRA_NET_SOCKET_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace hydra {

// Minimal RAII wrappers over POSIX TCP sockets — just enough surface
// for the length-prefixed frame protocol (net/wire.h): connect/accept,
// send-all/recv-all, a non-blocking send, and a shutdown that unblocks
// a peer (or our own thread) parked in recv or poll. Readiness is the
// caller's business: the server's connection thread polls fd() for
// input, or for output while results wait to be sent, and reads a
// frame only once it is readable.

// One connected stream socket. Movable, not copyable; the destructor
// closes the descriptor.
class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(int fd) : fd_(fd) {}
  ~TcpSocket();

  TcpSocket(TcpSocket&& other) noexcept;
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  // Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1").
  static Result<TcpSocket> Connect(const std::string& host, uint16_t port);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Writes all `len` bytes (looping over partial sends, EINTR retried).
  // Const: sending touches kernel state, not this wrapper.
  Status SendAll(const void* data, size_t len) const;
  // Hands the socket what it takes of `len` bytes without blocking and
  // returns that count: fewer than `len`, possibly 0, when the send
  // buffer is full. Any failure means the connection is unusable.
  Result<size_t> SendSome(const void* data, size_t len) const;
  // Reads exactly `len` bytes. A clean peer close mid-message — or
  // before any byte — surfaces as kUnavailable("connection closed");
  // other failures as kIoError. Both carry the socket errno in the
  // structured IoContext.
  Status RecvAll(void* data, size_t len) const;

  // Half-close / full shutdown: wakes a thread blocked in RecvAll with
  // "connection closed". Safe to call from another thread — this is how
  // Stop() interrupts connection threads — and safe to call twice.
  void ShutdownBoth();

  void Close();

 private:
  int fd_ = -1;
};

// Listening socket bound to 127.0.0.1 (loopback only: this is a serving
// front-end for tests/benches and LAN deployments behind a proxy, not a
// hardened public endpoint). Port 0 asks the kernel for an ephemeral
// port; port() reports the actual one.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  static Result<TcpListener> Listen(uint16_t port, int backlog = 64);

  bool valid() const { return fd_ >= 0; }
  uint16_t port() const { return port_; }

  // Blocks for the next connection. After Shutdown() (from any thread)
  // returns kUnavailable promptly — the acceptor loop's exit signal.
  Result<TcpSocket> Accept();

  // Unblocks Accept. Safe from any thread, idempotent.
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace hydra

#endif  // HYDRA_NET_SOCKET_H_
