#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace hydra {
namespace {

IoContext SocketCtx(int err) {
  IoContext ctx;
  ctx.path = "socket";
  ctx.sys_errno = err;
  return ctx;
}

std::string ErrnoText(int err) {
  return std::string(std::strerror(err)) + " (errno " + std::to_string(err) +
         ")";
}

}  // namespace

TcpSocket::~TcpSocket() { Close(); }

TcpSocket::TcpSocket(TcpSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Result<TcpSocket> TcpSocket::Connect(const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    const int err = errno;
    return Status::IoError("socket() failed: " + ErrnoText(err))
        .WithIoContext(SocketCtx(err));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::Unavailable("connect to " + host + ":" +
                               std::to_string(port) +
                               " failed: " + ErrnoText(err))
        .WithIoContext(SocketCtx(err));
  }
  // Submit frames are small and latency-sensitive; never Nagle-delay
  // them behind an unacked response.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpSocket(fd);
}

Status TcpSocket::SendAll(const void* data, size_t len) const {
  const char* p = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd_, p + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      // EPIPE/ECONNRESET = the peer is gone; the caller treats this as
      // the disconnect signal, so it is typed Unavailable like a close.
      if (err == EPIPE || err == ECONNRESET) {
        return Status::Unavailable("connection closed by peer on send: " +
                                   ErrnoText(err))
            .WithIoContext(SocketCtx(err));
      }
      return Status::IoError("send failed: " + ErrnoText(err))
          .WithIoContext(SocketCtx(err));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<size_t> TcpSocket::SendSome(const void* data, size_t len) const {
  ssize_t n = 0;
  do {
    n = ::send(fd_, data, len, MSG_NOSIGNAL | MSG_DONTWAIT);
  } while (n < 0 && errno == EINTR);
  if (n >= 0) return static_cast<size_t>(n);
  const int err = errno;
  if (err == EAGAIN || err == EWOULDBLOCK) return size_t{0};
  return Status::Unavailable("send failed: " + ErrnoText(err))
      .WithIoContext(SocketCtx(err));
}

Status TcpSocket::RecvAll(void* data, size_t len) const {
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd_, p + got, len - got, 0);
    if (n == 0) {
      return Status::Unavailable("connection closed")
          .WithIoContext(SocketCtx(0));
    }
    if (n < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      if (err == ECONNRESET) {
        return Status::Unavailable("connection reset: " + ErrnoText(err))
            .WithIoContext(SocketCtx(err));
      }
      return Status::IoError("recv failed: " + ErrnoText(err))
          .WithIoContext(SocketCtx(err));
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

void TcpSocket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::~TcpListener() { Close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(std::exchange(other.port_, 0)) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
  }
  return *this;
}

Result<TcpListener> TcpListener::Listen(uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    const int err = errno;
    return Status::IoError("socket() failed: " + ErrnoText(err))
        .WithIoContext(SocketCtx(err));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::Unavailable("bind to 127.0.0.1:" + std::to_string(port) +
                               " failed: " + ErrnoText(err))
        .WithIoContext(SocketCtx(err));
  }
  if (::listen(fd, backlog) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("listen failed: " + ErrnoText(err))
        .WithIoContext(SocketCtx(err));
  }
  TcpListener listener;
  listener.fd_ = fd;
  // Recover the kernel-assigned port when 0 was requested.
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    listener.port_ = ntohs(bound.sin_port);
  } else {
    listener.port_ = port;
  }
  return listener;
}

Result<TcpSocket> TcpListener::Accept() {
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return TcpSocket(fd);
    }
    const int err = errno;
    if (err == EINTR) continue;
    // EINVAL = the listener was shut down (the Stop path); ECONNABORTED
    // = the would-be peer gave up — keep accepting.
    if (err == ECONNABORTED) continue;
    return Status::Unavailable("accept interrupted: " + ErrnoText(err))
        .WithIoContext(SocketCtx(err));
  }
}

void TcpListener::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace hydra
