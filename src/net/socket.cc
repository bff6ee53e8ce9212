#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "net/fault_injector.h"

namespace gscope {
namespace {

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int Socket::Release() {
  int fd = fd_;
  fd_ = -1;
  return fd;
}

void Socket::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

bool Socket::SetReusePort() {
#ifdef SO_REUSEPORT
  int one = 1;
  return valid() && setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) == 0;
#else
  return false;
#endif
}

bool Socket::ReusePortSupported() {
  // Probed once: create a throwaway socket and try the option.  A platform
  // that defines SO_REUSEPORT may still refuse it (old kernels, seccomp).
  static const bool supported = []() {
    int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      return false;
    }
    Socket probe{fd};
    return probe.SetReusePort();
  }();
  return supported;
}

Socket Socket::Listen(uint16_t port, uint16_t* bound_port, bool reuse_port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Socket{};
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuse_port) {
    Socket holder{fd};
    if (!holder.SetReusePort()) {
      return Socket{};  // caller probed; failure here means fall back
    }
    holder.Release();
  }
  sockaddr_in addr = LoopbackAddr(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 16) != 0 || !SetNonBlocking(fd)) {
    close(fd);
    return Socket{};
  }
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) == 0) {
      *bound_port = ntohs(actual.sin_port);
    }
  }
  return Socket{fd};
}

Socket Socket::Connect(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Socket{};
  }
  if (!SetNonBlocking(fd)) {
    close(fd);
    return Socket{};
  }
  sockaddr_in addr = LoopbackAddr(port);
  int rc;
  if (FaultInjector::Shim(FaultOp::kConnect, fd, nullptr)) {
    rc = -1;
  } else {
    rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  }
  // EINTR on a non-blocking connect means the attempt continues
  // asynchronously (POSIX); retrying connect() here would yield EALREADY.
  // Treat it exactly like EINPROGRESS: resolve via writability + SO_ERROR.
  if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
    close(fd);
    return Socket{};
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket{fd};
}

bool Socket::SetSendBufferBytes(int bytes) {
  return valid() && bytes > 0 &&
         setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)) == 0;
}

bool Socket::SetRecvBufferBytes(int bytes) {
  return valid() && bytes > 0 &&
         setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes)) == 0;
}

int Socket::PendingError() const {
  if (!valid()) {
    return EBADF;
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    return errno;
  }
  return err;
}

Socket Socket::Accept() {
  if (!valid()) {
    return Socket{};
  }
  int fd;
  while (true) {
    if (FaultInjector::Shim(FaultOp::kAccept, fd_, nullptr)) {
      if (errno == EINTR) {
        continue;
      }
      return Socket{};
    }
    fd = accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      break;
    }
    // EINTR: interrupted before a connection was taken - retry.
    // ECONNABORTED: the queued peer already gave up; take the next pending
    // connection instead of reporting "none pending" to the accept loop.
    if (errno == EINTR || errno == ECONNABORTED) {
      continue;
    }
    return Socket{};
  }
  if (!SetNonBlocking(fd)) {
    close(fd);
    return Socket{};
  }
  // As on Connect: echo and replies are small writes that must leave at the
  // tick that produced them, not wait on Nagle for the peer's delayed ACK.
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket{fd};
}

Socket Socket::BindDatagram(uint16_t port, uint16_t* bound_port, bool reuse_port) {
  int fd = socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Socket{};
  }
  if (reuse_port) {
    Socket holder{fd};
    if (!holder.SetReusePort()) {
      return Socket{};
    }
    holder.Release();
  }
  sockaddr_in addr = LoopbackAddr(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 || !SetNonBlocking(fd)) {
    close(fd);
    return Socket{};
  }
#ifdef SO_RXQ_OVFL
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_RXQ_OVFL, &one, sizeof(one));
#endif
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) == 0) {
      *bound_port = ntohs(actual.sin_port);
    }
  }
  return Socket{fd};
}

Socket Socket::ConnectDatagram(uint16_t port) {
  int fd = socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Socket{};
  }
  sockaddr_in addr = LoopbackAddr(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      !SetNonBlocking(fd)) {
    close(fd);
    return Socket{};
  }
  return Socket{fd};
}

Socket::DatagramResult Socket::ReadDatagram(void* buf, size_t len) {
  DatagramResult result;
  if (!valid()) {
    return result;
  }
  iovec iov{buf, len};
  alignas(cmsghdr) char control[64];
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = sizeof(control);
  ssize_t n;
  while (true) {
    size_t eff_len = len;
    if (FaultInjector::Shim(FaultOp::kRecvDatagram, fd_, &eff_len)) {
      n = -1;
    } else {
      iov.iov_len = eff_len;  // a clamped length surfaces as MSG_TRUNC
      n = recvmsg(fd_, &msg, 0);
    }
    if (n >= 0 || errno != EINTR) {
      break;
    }
  }
  if (n < 0) {
    result.status = (errno == EAGAIN || errno == EWOULDBLOCK) ? IoResult::Status::kWouldBlock
                                                              : IoResult::Status::kError;
    return result;
  }
  result.status = IoResult::Status::kOk;
  result.bytes = static_cast<size_t>(n);
  result.truncated = (msg.msg_flags & MSG_TRUNC) != 0;
#ifdef SO_RXQ_OVFL
  for (cmsghdr* cmsg = CMSG_FIRSTHDR(&msg); cmsg != nullptr; cmsg = CMSG_NXTHDR(&msg, cmsg)) {
    if (cmsg->cmsg_level == SOL_SOCKET && cmsg->cmsg_type == SO_RXQ_OVFL) {
      uint32_t drops = 0;
      std::memcpy(&drops, CMSG_DATA(cmsg), sizeof(drops));
      result.kernel_drops = drops;
      result.has_kernel_drops = true;
    }
  }
#endif
  return result;
}

IoResult Socket::Read(void* buf, size_t len) {
  if (!valid()) {
    return IoResult{IoResult::Status::kError, 0};
  }
  while (true) {
    size_t eff_len = len;
    ssize_t n;
    if (FaultInjector::Shim(FaultOp::kRead, fd_, &eff_len)) {
      n = -1;
    } else {
      n = read(fd_, buf, eff_len);
    }
    if (n > 0) {
      return IoResult{IoResult::Status::kOk, static_cast<size_t>(n)};
    }
    if (n == 0) {
      return IoResult{IoResult::Status::kEof, 0};
    }
    if (errno == EINTR) {
      // Interrupted before any data arrived: retry - a signal must not be
      // observable as an I/O error on the monitoring channel.
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return IoResult{IoResult::Status::kWouldBlock, 0};
    }
    return IoResult{IoResult::Status::kError, 0};
  }
}

IoResult Socket::Write(const void* buf, size_t len) {
  if (!valid()) {
    return IoResult{IoResult::Status::kError, 0};
  }
  while (true) {
    size_t eff_len = len;
    ssize_t n;
    if (FaultInjector::Shim(FaultOp::kWrite, fd_, &eff_len)) {
      n = -1;
    } else {
      // MSG_NOSIGNAL: a reset peer yields EPIPE (kError) instead of a
      // process-killing SIGPIPE.
      n = send(fd_, buf, eff_len, MSG_NOSIGNAL);
      if (n < 0 && errno == ENOTSOCK) {
        n = write(fd_, buf, eff_len);
      }
    }
    if (n >= 0) {
      return IoResult{IoResult::Status::kOk, static_cast<size_t>(n)};
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return IoResult{IoResult::Status::kWouldBlock, 0};
    }
    return IoResult{IoResult::Status::kError, 0};
  }
}

}  // namespace gscope
