#include "net/socket.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>

namespace gscope {
namespace {

// Drives a non-blocking connect/accept pair to completion.
struct Pair {
  Socket server_side;
  Socket client_side;
  bool ok = false;
};

Pair MakeConnectedPair() {
  Pair pair;
  uint16_t port = 0;
  Socket listener = Socket::Listen(0, &port);
  if (!listener.valid() || port == 0) {
    return pair;
  }
  pair.client_side = Socket::Connect(port);
  if (!pair.client_side.valid()) {
    return pair;
  }
  // Loopback connects complete almost immediately; poll accept briefly.
  for (int i = 0; i < 1000 && !pair.server_side.valid(); ++i) {
    pair.server_side = listener.Accept();
  }
  pair.ok = pair.server_side.valid();
  return pair;
}

TEST(SocketTest, ListenOnEphemeralPort) {
  uint16_t port = 0;
  Socket listener = Socket::Listen(0, &port);
  ASSERT_TRUE(listener.valid());
  EXPECT_GT(port, 0);
}

TEST(SocketTest, AcceptWithoutPendingReturnsInvalid) {
  uint16_t port = 0;
  Socket listener = Socket::Listen(0, &port);
  ASSERT_TRUE(listener.valid());
  Socket conn = listener.Accept();
  EXPECT_FALSE(conn.valid());
}

TEST(SocketTest, ConnectAcceptRoundTrip) {
  Pair pair = MakeConnectedPair();
  ASSERT_TRUE(pair.ok);

  const std::string msg = "hello scope";
  IoResult w = pair.client_side.Write(msg.data(), msg.size());
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.bytes, msg.size());

  char buf[64] = {};
  IoResult r{};
  for (int i = 0; i < 1000; ++i) {
    r = pair.server_side.Read(buf, sizeof(buf));
    if (r.status != IoResult::Status::kWouldBlock) {
      break;
    }
  }
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::string(buf, r.bytes), msg);
}

// TCP_NODELAY as the kernel reports it: 1 set, 0 clear, -1 unreadable.
int NoDelay(const Socket& sock) {
  int value = 0;
  socklen_t len = sizeof(value);
  if (getsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &value, &len) != 0) {
    return -1;
  }
  return value != 0 ? 1 : 0;
}

TEST(SocketTest, NagleIsOffOnBothEnds) {
  // Echo and control replies are small writes.  With Nagle on, each waits
  // for the peer to ACK the one before, and a delayed ACK holds that for
  // tens of milliseconds: the server's end needs the option as much as the
  // client's.
  Pair pair = MakeConnectedPair();
  ASSERT_TRUE(pair.ok);
  EXPECT_EQ(NoDelay(pair.client_side), 1);
  EXPECT_EQ(NoDelay(pair.server_side), 1);
}

TEST(SocketTest, ReadOnEmptySocketWouldBlock) {
  Pair pair = MakeConnectedPair();
  ASSERT_TRUE(pair.ok);
  char buf[8];
  IoResult r = pair.server_side.Read(buf, sizeof(buf));
  EXPECT_EQ(r.status, IoResult::Status::kWouldBlock);
}

TEST(SocketTest, EofAfterPeerCloses) {
  Pair pair = MakeConnectedPair();
  ASSERT_TRUE(pair.ok);
  pair.client_side.Close();
  char buf[8];
  IoResult r{};
  for (int i = 0; i < 1000; ++i) {
    r = pair.server_side.Read(buf, sizeof(buf));
    if (r.status != IoResult::Status::kWouldBlock) {
      break;
    }
  }
  EXPECT_EQ(r.status, IoResult::Status::kEof);
}

TEST(SocketTest, InvalidSocketOperationsFail) {
  Socket sock;
  EXPECT_FALSE(sock.valid());
  char buf[4];
  EXPECT_EQ(sock.Read(buf, 4).status, IoResult::Status::kError);
  EXPECT_EQ(sock.Write(buf, 4).status, IoResult::Status::kError);
  EXPECT_FALSE(sock.Accept().valid());
}

TEST(SocketTest, MoveTransfersOwnership) {
  uint16_t port = 0;
  Socket a = Socket::Listen(0, &port);
  ASSERT_TRUE(a.valid());
  int fd = a.fd();
  Socket b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing the move
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.fd(), fd);
}

TEST(SocketTest, ReleaseDetaches) {
  uint16_t port = 0;
  Socket a = Socket::Listen(0, &port);
  int fd = a.Release();
  EXPECT_FALSE(a.valid());
  EXPECT_GE(fd, 0);
  close(fd);
}

}  // namespace
}  // namespace gscope
