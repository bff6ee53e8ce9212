// RAII non-blocking TCP and UDP sockets for the gscope client/server library.
//
// Section 4.4: the distributed library is single-threaded and I/O driven, so
// every socket here is non-blocking and meant to be driven by MainLoop fd
// watches.  Only loopback/IPv4 addressing is needed for the reproduction.
// The datagram variants serve the lossy high-rate telemetry path, where TCP
// backpressure on the producer is unwanted.
#ifndef GSCOPE_NET_SOCKET_H_
#define GSCOPE_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace gscope {

// Result of a non-blocking read/write.
struct IoResult {
  enum class Status { kOk, kWouldBlock, kEof, kError };
  Status status = Status::kError;
  size_t bytes = 0;

  bool ok() const { return status == Status::kOk; }
};

class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Releases ownership of the fd without closing it.
  int Release();
  void Close();

  // Creates a non-blocking listening socket on 127.0.0.1:`port` (0 picks an
  // ephemeral port, reported through `bound_port`).  Invalid on failure.
  // With `reuse_port`, SO_REUSEPORT is set before bind: N loops may each
  // bind their own listener to one port and the kernel load-balances
  // accepts across them (the sharded server's listener-per-loop mode).
  static Socket Listen(uint16_t port, uint16_t* bound_port = nullptr,
                       bool reuse_port = false);

  // Whether this platform honours SO_REUSEPORT (probed once on a throwaway
  // socket and cached).  Callers that want listener-per-loop sharding probe
  // first and fall back to single-acceptor hand-off when unavailable.
  static bool ReusePortSupported();

  // Starts a non-blocking connect to 127.0.0.1:`port`.  The connection may
  // still be in progress when this returns; wait for writability, then call
  // PendingError() to learn whether the connect succeeded.  Nagle is off
  // (TCP_NODELAY) on both ends of every connection: Connect and Accept set it.
  static Socket Connect(uint16_t port);

  // Marks the socket SO_REUSEPORT (before bind).  False when the option is
  // unsupported or cannot be set; never fatal - callers degrade to
  // single-acceptor hand-off.
  bool SetReusePort();

  // Shrinks/grows the kernel send/receive buffer (SO_SNDBUF / SO_RCVBUF).
  // Small values move backpressure out of kernel buffering and into the
  // application's bounded backlog, where drop policies can see it (the
  // kernel clamps and roughly doubles the requested value).  False if the
  // option could not be set.
  bool SetSendBufferBytes(int bytes);
  bool SetRecvBufferBytes(int bytes);

  // Drains and returns the socket's pending error (SO_ERROR): 0 when the
  // socket is healthy (e.g. a non-blocking connect completed), the errno
  // value otherwise (ECONNREFUSED, ETIMEDOUT, ...).  Returns EBADF on an
  // invalid socket.
  int PendingError() const;

  // Accepts one pending connection (non-blocking, TCP_NODELAY set).  Invalid
  // if none pending.
  Socket Accept();

  IoResult Read(void* buf, size_t len);
  IoResult Write(const void* buf, size_t len);

  // -- Datagram (UDP) --------------------------------------------------------

  // Non-blocking datagram socket bound to 127.0.0.1:`port` (0 picks an
  // ephemeral port).  Enables the kernel receive-drop counter (SO_RXQ_OVFL)
  // where available so the server can report datagrams lost to queue
  // overflow.  With `reuse_port`, SO_REUSEPORT is set before bind so N
  // loops can share one UDP port (the kernel hashes senders across them).
  static Socket BindDatagram(uint16_t port, uint16_t* bound_port = nullptr,
                             bool reuse_port = false);

  // Non-blocking datagram socket connected to 127.0.0.1:`port`; Write()
  // then sends one datagram per call.
  static Socket ConnectDatagram(uint16_t port);

  struct DatagramResult {
    IoResult::Status status = IoResult::Status::kError;
    size_t bytes = 0;
    // The datagram was longer than `len` and its tail was discarded.
    bool truncated = false;
    // Cumulative count of datagrams the kernel dropped on this socket's
    // receive queue (SO_RXQ_OVFL); only meaningful when has_kernel_drops is
    // set.  The counter is per-socket: it restarts at zero for every fresh
    // Bind, and wraps at 2^32.
    uint32_t kernel_drops = 0;
    // The SO_RXQ_OVFL control message was present on this receive.  Callers
    // must not treat an absent counter as the value zero: conflating the two
    // lets a later genuine reading double-count or march a delta backwards.
    bool has_kernel_drops = false;
  };
  // Receives one datagram (non-blocking).  Unlike Read, detects truncation
  // and reports the kernel drop counter.
  DatagramResult ReadDatagram(void* buf, size_t len);

 private:
  int fd_ = -1;
};

}  // namespace gscope

#endif  // GSCOPE_NET_SOCKET_H_
