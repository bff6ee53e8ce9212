// End-to-end tests of the Section 4.4 client/server library, running client,
// server and scope on one real-clock main loop (single-threaded, I/O driven,
// exactly the paper's structure).
#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>

#include "core/scope.h"
#include "net/stream_client.h"
#include "net/stream_server.h"
#include "runtime/event_loop.h"

namespace gscope {
namespace {

class StreamTest : public ::testing::Test {
 protected:
  StreamTest() : scope_(&loop_, {.name = "remote", .width = 64}) {
    scope_.SetPollingMode(5);
  }

  // Runs the loop until `pred` holds or the budget expires.
  bool RunUntil(const std::function<bool()>& pred, int max_ms = 2000) {
    for (int i = 0; i < max_ms; ++i) {
      if (pred()) {
        return true;
      }
      loop_.RunForMs(1);
    }
    return pred();
  }

  MainLoop loop_;  // real clock: sockets need real readiness
  Scope scope_;
};

// Threads of this process, as the kernel lists them.
size_t ThreadCount() {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST_F(StreamTest, SingleLoopServerStartsNoThread) {
  // Ingest is handed to every scope on the loop thread that read it, so a
  // loops = 1 server (without RECORD) runs on its caller's loop alone,
  // whatever the host's core count.
  const size_t before = ThreadCount();
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  StreamClient client(&loop_);
  ASSERT_TRUE(client.Connect(server.port()));
  scope_.StartPolling();
  ASSERT_TRUE(RunUntil([&]() {
    client.SendTuple({scope_.NowMs(), 1.0, "solo"});
    loop_.RunForMs(2);
    SignalId id = scope_.FindSignal("solo");
    return id != 0 && scope_.LatestValue(id) == 1.0;
  }));
  EXPECT_EQ(ThreadCount(), before);
}

TEST_F(StreamTest, ListenOnEphemeralPort) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  EXPECT_GT(server.port(), 0);
}

TEST_F(StreamTest, ClientConnectsAndServerAccepts) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  StreamClient client(&loop_);
  ASSERT_TRUE(client.Connect(server.port()));
  EXPECT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));
  EXPECT_EQ(server.stats().connections, 1);
}

TEST_F(StreamTest, TuplesFlowIntoScopeSignal) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  StreamClient client(&loop_);
  ASSERT_TRUE(client.Connect(server.port()));

  scope_.StartPolling();
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));

  // Stamp with the scope's own clock (the paper assumes correlatable time).
  // Resent with a fresh stamp each wait turn: a one-shot send can be
  // late-dropped (delay 0) when scheduling jitter lands between stamping
  // and routing.  The auto-created BUFFER signal carries the value after a
  // poll.
  ASSERT_TRUE(RunUntil([&]() {
    client.SendTuple({scope_.NowMs(), 42.0, "remote_cwnd"});
    loop_.RunForMs(2);
    SignalId id = scope_.FindSignal("remote_cwnd");
    return id != 0 && scope_.LatestValue(id) == 42.0;
  }));
  EXPECT_GE(server.stats().tuples, 1);
}

TEST_F(StreamTest, MultipleClientsOneScope) {
  // "The server receives data from one or more clients asynchronously."
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  StreamClient a(&loop_);
  StreamClient b(&loop_);
  ASSERT_TRUE(a.Connect(server.port()));
  ASSERT_TRUE(b.Connect(server.port()));
  // A tuple stamped NowMs() is shown a delay later.  At delay 0 an ingest
  // that crosses a millisecond boundary late-drops it; 100 ms is slack that
  // ingest cannot overrun.
  scope_.SetDelayMs(100);
  scope_.StartPolling();
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 2; }));

  a.SendTuple({scope_.NowMs(), 1.0, "client_a"});
  b.SendTuple({scope_.NowMs(), 2.0, "client_b"});
  ASSERT_TRUE(RunUntil([&]() { return server.stats().tuples >= 2; }));
  // An auto-created signal has a latest value (0) as soon as it ticks, so
  // wait for the sent values themselves to be shown.
  ASSERT_TRUE(RunUntil([&]() {
    SignalId ia = scope_.FindSignal("client_a");
    SignalId ib = scope_.FindSignal("client_b");
    return ia != 0 && ib != 0 && scope_.LatestValue(ia) == 1.0 &&
           scope_.LatestValue(ib) == 2.0;
  }));
  EXPECT_DOUBLE_EQ(*scope_.LatestValue(scope_.FindSignal("client_a")), 1.0);
  EXPECT_DOUBLE_EQ(*scope_.LatestValue(scope_.FindSignal("client_b")), 2.0);
}

TEST_F(StreamTest, LateTuplesDroppedByDelayPolicy) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  StreamClient client(&loop_);
  ASSERT_TRUE(client.Connect(server.port()));
  scope_.SetDelayMs(10);
  scope_.StartPolling();
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));
  // Observe the scope clock off zero (not a blind wait): the stale stamp
  // below must be unambiguously behind NowMs() - delay.
  ASSERT_TRUE(RunUntil([&]() { return scope_.NowMs() >= 20; }));

  // A tuple stamped far in the past misses its display deadline.
  client.SendTuple({scope_.NowMs() - 500, 9.0, "late"});
  ASSERT_TRUE(RunUntil([&]() { return server.stats().tuples >= 1; }));
  EXPECT_TRUE(RunUntil([&]() { return server.stats().dropped_late >= 1; }));
}

TEST_F(StreamTest, MalformedLinesCounted) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  Socket raw = Socket::Connect(server.port());
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));
  const std::string junk = "this is not a tuple\n12 ok_missing_value\n";
  raw.Write(junk.data(), junk.size());
  EXPECT_TRUE(RunUntil([&]() { return server.stats().parse_errors >= 2; }));
  EXPECT_EQ(server.stats().tuples, 0);
}

TEST_F(StreamTest, ClientDisconnectHandled) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  {
    StreamClient client(&loop_);
    ASSERT_TRUE(client.Connect(server.port()));
    ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));
    client.SendTuple({0, 1.0, "x"});
    RunUntil([&]() { return server.stats().tuples >= 1; });
  }  // client closes
  EXPECT_TRUE(RunUntil([&]() { return server.client_count() == 0; }));
  EXPECT_EQ(server.stats().disconnections, 1);
}

TEST_F(StreamTest, PartialLinesReassembled) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  Socket raw = Socket::Connect(server.port());
  ASSERT_TRUE(raw.valid());
  scope_.StartPolling();
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));
  // Send one tuple split across three writes.
  std::string part1 = "12";
  std::string part2 = "3 7.5 spl";
  std::string part3 = "it\n";
  // Wait until the server has CONSUMED each fragment before sending the
  // next, so the split genuinely lands across separate reads.
  raw.Write(part1.data(), part1.size());
  ASSERT_TRUE(RunUntil([&]() { return server.stats().bytes >= 2; }));
  raw.Write(part2.data(), part2.size());
  ASSERT_TRUE(RunUntil([&]() { return server.stats().bytes >= 11; }));
  raw.Write(part3.data(), part3.size());
  ASSERT_TRUE(RunUntil([&]() { return server.stats().tuples >= 1; }));
  EXPECT_NE(scope_.FindSignal("split"), 0);
}

TEST_F(StreamTest, ClientStatsTrackSends) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  StreamClient client(&loop_);
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(client.SendTuple({i, static_cast<double>(i), "s"}));
  }
  EXPECT_EQ(client.stats().tuples_sent, 10);
  EXPECT_TRUE(RunUntil([&]() { return server.stats().tuples >= 10; }));
  EXPECT_GT(client.stats().bytes_sent, 0);
  EXPECT_EQ(client.pending_bytes(), 0u);
}

TEST_F(StreamTest, SendWithoutConnectFails) {
  StreamClient client(&loop_);
  EXPECT_FALSE(client.SendTuple({0, 1.0, "x"}));
  EXPECT_EQ(client.stats().tuples_dropped, 1);
}

TEST_F(StreamTest, RefusedConnectSurfacedNotSilentlyConnected) {
  // Find a port with no listener: bind-then-close leaves it free.
  uint16_t dead_port = 0;
  { Socket probe = Socket::Listen(0, &dead_port); }

  StreamClient client(&loop_);
  bool resolved = false, ok = true;
  int error = 0;
  client.SetConnectCallback([&](bool success, int err) {
    resolved = true;
    ok = success;
    error = err;
  });
  if (!client.Connect(dead_port)) {
    // The kernel refused synchronously: still surfaced, never "connected".
    EXPECT_EQ(client.state(), ConnectState::kFailed);
    EXPECT_FALSE(client.connected());
    return;
  }
  // connected() must not report true while the handshake is unresolved.
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(client.state(), ConnectState::kConnecting);

  // Tuples sent while connecting are queued, not counted as sent.
  EXPECT_TRUE(client.SendTuple({0, 1.0, "x"}));
  EXPECT_EQ(client.stats().tuples_sent, 0);

  ASSERT_TRUE(RunUntil([&]() { return resolved; }));
  EXPECT_FALSE(ok);
  EXPECT_EQ(error, ECONNREFUSED);
  EXPECT_EQ(client.state(), ConnectState::kFailed);
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(client.last_error(), ECONNREFUSED);
  EXPECT_EQ(client.stats().connect_failures, 1);
  // The queued tuple resolved to dropped, never to sent - and not
  // double-booked as abandoned (delivered == sent - evicted - abandoned
  // must stay meaningful across failed connects).
  EXPECT_EQ(client.stats().tuples_sent, 0);
  EXPECT_EQ(client.stats().tuples_dropped, 1);
  EXPECT_EQ(client.stats().tuples_abandoned, 0);
  EXPECT_EQ(client.stats().tuples_evicted, 0);
  // Further sends fail immediately.
  EXPECT_FALSE(client.SendTuple({0, 2.0, "x"}));
}

TEST_F(StreamTest, RefusedConnectDropsPreconnectEvictionsOnce) {
  // Ten tuples queued behind a refused handshake under kDropOldest with a
  // 64-byte cap: the older ones are evicted to make room, yet none ever
  // left the process.  Each ends in exactly one outcome - dropped, never
  // also evicted.
  uint16_t dead_port = 0;
  { Socket probe = Socket::Listen(0, &dead_port); }

  StreamClient::Options opts;
  opts.max_buffer = 64;
  opts.overflow_policy = OverflowPolicy::kDropOldest;
  StreamClient client(&loop_, opts);
  bool resolved = false;
  client.SetConnectCallback([&](bool, int) { resolved = true; });
  if (!client.Connect(dead_port)) {
    // The kernel refused synchronously: still surfaced, never "connected".
    EXPECT_EQ(client.state(), ConnectState::kFailed);
    EXPECT_FALSE(client.connected());
    return;
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(client.Send(i, static_cast<double>(i), "preconnect_sig"));
  }
  EXPECT_GT(client.stats().tuples_evicted, 0);  // the cap did evict

  ASSERT_TRUE(RunUntil([&]() { return resolved; }));
  EXPECT_EQ(client.state(), ConnectState::kFailed);
  const StreamClient::Stats& s = client.stats();
  EXPECT_EQ(s.tuples_sent + s.tuples_dropped, 10);
  EXPECT_EQ(s.tuples_sent, 0);
  EXPECT_EQ(s.tuples_evicted, 0);
  EXPECT_EQ(s.tuples_abandoned, 0);
}

TEST_F(StreamTest, EstablishedConnectCountsPreconnectEvictionsSentThenEvicted) {
  // The other side of the decision above: once the handshake completes, a
  // tuple evicted while it was in flight counts as sent, then evicted, and
  // the server receives exactly sent - evicted.
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  StreamClient::Options opts;
  opts.max_buffer = 64;
  opts.overflow_policy = OverflowPolicy::kDropOldest;
  StreamClient client(&loop_, opts);
  ASSERT_TRUE(client.Connect(server.port()));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(client.Send(i, static_cast<double>(i), "preconnect_sig"));
  }
  ASSERT_TRUE(RunUntil([&]() { return client.connected() && client.pending_bytes() == 0; }));
  const StreamClient::Stats& s = client.stats();
  EXPECT_EQ(s.tuples_sent, 10);
  EXPECT_GT(s.tuples_evicted, 0);
  EXPECT_EQ(s.tuples_dropped, 0);
  ASSERT_TRUE(RunUntil([&]() { return server.stats().tuples >= 10 - s.tuples_evicted; }));
  loop_.RunForMs(20);
  EXPECT_EQ(server.stats().tuples, 10 - s.tuples_evicted);
}

TEST_F(StreamTest, SuccessfulConnectReportedAndPreconnectTuplesCounted) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  StreamClient client(&loop_);
  bool resolved = false, ok = false;
  client.SetConnectCallback([&](bool success, int) {
    resolved = true;
    ok = success;
  });
  ASSERT_TRUE(client.Connect(server.port()));
  // Queue before the handshake resolves.
  EXPECT_TRUE(client.SendTuple({1, 1.0, "pre"}));
  EXPECT_TRUE(client.SendTuple({2, 2.0, "pre"}));
  EXPECT_EQ(client.stats().tuples_sent, 0);

  ASSERT_TRUE(RunUntil([&]() { return resolved && server.stats().tuples >= 2; }));
  EXPECT_TRUE(ok);
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(client.stats().tuples_sent, 2);
  EXPECT_EQ(client.stats().tuples_dropped, 0);
}

TEST_F(StreamTest, BacklogOverflowDropsWholeTuplesOnly) {
  // Fill a tiny backlog far past its cap while the loop is not running,
  // then drain under load: whatever subset of tuples survives the drops,
  // the server must see zero parse errors (no torn lines) and exactly the
  // tuples the client counted as sent.
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  StreamClient client(&loop_, /*max_buffer=*/256);
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return client.connected(); }));

  // Interleave bursts (overflowing the 256-byte cap) with partial drains so
  // drop decisions happen while the write offset sits mid-backlog.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      client.Send(round * 1000 + i, 1234.5678 + i, "overflow_signal_name");
    }
    loop_.RunForMs(1);
  }
  EXPECT_GT(client.stats().tuples_dropped, 0);  // the cap actually bit
  ASSERT_TRUE(RunUntil([&]() { return client.pending_bytes() == 0; }));
  ASSERT_TRUE(
      RunUntil([&]() { return server.stats().tuples >= client.stats().tuples_sent; }));
  EXPECT_EQ(server.stats().parse_errors, 0);
  EXPECT_EQ(server.stats().tuples, client.stats().tuples_sent);
  // Drop accounting balances byte-for-byte: every byte ever committed is on
  // the wire, and every dropped tuple's bytes are counted.
  EXPECT_GT(client.stats().bytes_dropped, 0);
  EXPECT_EQ(client.stats().bytes_sent, server.stats().bytes);
  EXPECT_GT(client.stats().backlog_high_water, 0);
  EXPECT_LE(client.stats().backlog_high_water, 256);
  EXPECT_EQ(client.stats().tuples_evicted, 0);  // default policy never evicts
}

TEST_F(StreamTest, DropOldestPolicyKeepsNewestTuples) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  StreamClient client(&loop_, StreamClient::Options{
                                  .max_buffer = 256,
                                  .overflow_policy = OverflowPolicy::kDropOldest,
                              });
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return client.connected(); }));

  // Flood without running the loop: the cap evicts from the head, every
  // send is accepted, and the newest tuples survive.
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(client.Send(i, 1000.0 + i, "evict_me"));
  }
  EXPECT_EQ(client.stats().tuples_sent, 200);
  EXPECT_EQ(client.stats().tuples_dropped, 0);
  EXPECT_GT(client.stats().tuples_evicted, 0);
  EXPECT_LE(client.pending_bytes(), 256u);

  double newest = -1.0;
  scope_.SetBufferedTap([&](std::string_view, int64_t, double value) {
    newest = std::max(newest, value);
  });
  scope_.StartPolling();
  ASSERT_TRUE(RunUntil([&]() { return client.pending_bytes() == 0; }));
  ASSERT_TRUE(RunUntil([&]() { return newest == 1199.0; }));  // last send survived
  EXPECT_EQ(server.stats().parse_errors, 0);
  // Eviction accounting: what reached the wire is exactly sent - evicted.
  EXPECT_EQ(server.stats().tuples, client.stats().tuples_sent - client.stats().tuples_evicted);
}

TEST_F(StreamTest, BlockWithDeadlinePolicyDrainsInsteadOfDropping) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  // A cap far too small for the burst below: drop-newest would shed most of
  // it, but blocking commits drain through the live connection instead.
  StreamClient client(&loop_, StreamClient::Options{
                                  .max_buffer = 512,
                                  .overflow_policy = OverflowPolicy::kBlockWithDeadline,
                                  .block_deadline_ms = 50,
                              });
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return client.connected(); }));

  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(client.Send(i, static_cast<double>(i), "blocking_signal"));
  }
  EXPECT_EQ(client.stats().tuples_sent, 500);
  EXPECT_EQ(client.stats().tuples_dropped, 0);
  ASSERT_TRUE(RunUntil([&]() { return client.pending_bytes() == 0; }));
  ASSERT_TRUE(RunUntil([&]() { return server.stats().tuples >= 500; }));
  EXPECT_EQ(server.stats().tuples, 500);
  EXPECT_EQ(server.stats().parse_errors, 0);
  EXPECT_LE(client.stats().backlog_high_water, 512);
}

TEST_F(StreamTest, ServerCloseStopsAccepting) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  uint16_t port = server.port();
  server.Close();
  StreamClient client(&loop_);
  client.Connect(port);
  // The refused connect is the positive marker; no blind settling wait.
  ASSERT_TRUE(RunUntil([&]() { return client.state() == ConnectState::kFailed; }));
  EXPECT_GE(client.stats().connect_failures, 1);
  EXPECT_EQ(server.client_count(), 0u);
}


TEST_F(StreamTest, CrlfFramedLinesParse) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  Socket raw = Socket::Connect(server.port());
  ASSERT_TRUE(raw.valid());
  scope_.StartPolling();
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));
  const std::string wire = "10 1.5 crlf\r\n20 2.5 crlf\r\n";
  raw.Write(wire.data(), wire.size());
  ASSERT_TRUE(RunUntil([&]() { return server.stats().tuples >= 2; }));
  EXPECT_EQ(server.stats().parse_errors, 0);
  EXPECT_NE(scope_.FindSignal("crlf"), 0);
}

TEST_F(StreamTest, OverlongLineCappedAndResynchronized) {
  // A client streaming garbage with no newline must not grow the line
  // buffer without bound: the line is dropped as one parse error and
  // framing resynchronizes at the next newline.
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  Socket raw = Socket::Connect(server.port());
  ASSERT_TRUE(raw.valid());
  scope_.StartPolling();
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));

  // Feed 3 x 4 KiB of newline-free junk (crosses the 4 KiB cap mid-stream).
  const std::string junk(4096, 'x');
  for (int i = 0; i < 3; ++i) {
    raw.Write(junk.data(), junk.size());
    // Observe the server draining this chunk so the cap is crossed across
    // distinct reads, not in one buffered gulp.
    ASSERT_TRUE(RunUntil(
        [&]() { return server.stats().bytes >= (i + 1) * 4096; }));
  }
  ASSERT_TRUE(RunUntil([&]() { return server.stats().parse_errors >= 1; }));
  EXPECT_EQ(server.stats().parse_errors, 1);  // one error for the whole line
  EXPECT_EQ(server.stats().tuples, 0);

  // Terminate the junk line; the next well-formed line must parse again.
  const std::string recovery = "\n42 7.0 recovered\n";
  raw.Write(recovery.data(), recovery.size());
  ASSERT_TRUE(RunUntil([&]() { return server.stats().tuples >= 1; }));
  EXPECT_NE(scope_.FindSignal("recovered"), 0);
  EXPECT_EQ(server.stats().parse_errors, 1);
}

TEST_F(StreamTest, OverlongLineWithinOneChunkCounted) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  Socket raw = Socket::Connect(server.port());
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));
  // One write holding an over-long line *and* its newline, then a valid
  // tuple: the long line is one parse error, the tuple still parses.
  std::string wire(5000, 'y');
  wire += "\n1 2.0 ok\n";
  raw.Write(wire.data(), wire.size());
  ASSERT_TRUE(RunUntil([&]() { return server.stats().tuples >= 1; }));
  EXPECT_EQ(server.stats().parse_errors, 1);
}

TEST_F(StreamTest, ExactMaxLineBytesSplitAcrossReadsParses) {
  // A tuple line of exactly max_line_bytes, split across two reads, must
  // reassemble and parse as ONE tuple; max_line_bytes + 1 must count exactly
  // one parse error and resynchronize at the next newline.  Covered for
  // plain LF and CRLF framing ('\r' counts toward the line length).
  StreamServer server(&loop_, &scope_, {.max_line_bytes = 64});
  ASSERT_TRUE(server.Listen(0));
  Socket raw = Socket::Connect(server.port());
  ASSERT_TRUE(raw.valid());
  scope_.StartPolling();
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));

  // Build "1 2 <name>" padded to exactly 64 bytes (newline excluded).
  std::string line = "1 2 ";
  line.append(64 - line.size(), 'a');
  ASSERT_EQ(line.size(), 64u);
  std::string padded_name = line.substr(4);
  line.push_back('\n');

  // Split mid-name across two writes; observe the first fragment consumed
  // so the server provably sees two reads.
  raw.Write(line.data(), 40);
  ASSERT_TRUE(RunUntil([&]() { return server.stats().bytes >= 40; }));
  raw.Write(line.data() + 40, line.size() - 40);
  ASSERT_TRUE(RunUntil([&]() { return server.stats().tuples >= 1; }));
  EXPECT_EQ(server.stats().parse_errors, 0);
  EXPECT_NE(scope_.FindSignal(padded_name), 0);

  // CRLF variant: content + '\r' is exactly 64 bytes.
  std::string crlf = "3 4 ";
  crlf.append(64 - crlf.size() - 1, 'b');
  crlf += "\r\n";
  ASSERT_EQ(crlf.size(), 65u);  // 64 framed bytes + '\n'
  std::string crlf_name = crlf.substr(4, crlf.size() - 6);
  const int64_t seen = server.stats().bytes;
  raw.Write(crlf.data(), 30);
  ASSERT_TRUE(RunUntil([&]() { return server.stats().bytes >= seen + 30; }));
  raw.Write(crlf.data() + 30, crlf.size() - 30);
  ASSERT_TRUE(RunUntil([&]() { return server.stats().tuples >= 2; }));
  EXPECT_EQ(server.stats().parse_errors, 0);
  EXPECT_NE(scope_.FindSignal(crlf_name), 0);
}

TEST_F(StreamTest, MaxLineBytesPlusOneIsExactlyOneErrorAndResyncs) {
  StreamServer server(&loop_, &scope_, {.max_line_bytes = 64});
  ASSERT_TRUE(server.Listen(0));
  Socket raw = Socket::Connect(server.port());
  ASSERT_TRUE(raw.valid());
  scope_.StartPolling();
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));

  // 65 framed bytes, split across reads: exactly one parse error.
  std::string line = "1 2 ";
  line.append(65 - line.size(), 'c');
  line.push_back('\n');
  raw.Write(line.data(), 40);
  ASSERT_TRUE(RunUntil([&]() { return server.stats().bytes >= 40; }));
  raw.Write(line.data() + 40, line.size() - 40);
  ASSERT_TRUE(RunUntil([&]() { return server.stats().parse_errors >= 1; }));
  EXPECT_EQ(server.stats().parse_errors, 1);
  EXPECT_EQ(server.stats().tuples, 0);

  // Framing resynchronized at that newline: the next tuple parses.
  const std::string ok = "5 6 recovered_after_cap\n";
  raw.Write(ok.data(), ok.size());
  ASSERT_TRUE(RunUntil([&]() { return server.stats().tuples >= 1; }));
  EXPECT_EQ(server.stats().parse_errors, 1);

  // CRLF variant of the over-cap line: 64 content bytes + '\r' = 65.
  std::string crlf = "7 8 ";
  crlf.append(64 - crlf.size(), 'd');
  crlf += "\r\n";
  const int64_t seen = server.stats().bytes;
  raw.Write(crlf.data(), 30);
  ASSERT_TRUE(RunUntil([&]() { return server.stats().bytes >= seen + 30; }));
  raw.Write(crlf.data() + 30, crlf.size() - 30);
  ASSERT_TRUE(RunUntil([&]() { return server.stats().parse_errors >= 2; }));
  EXPECT_EQ(server.stats().parse_errors, 2);
  EXPECT_EQ(server.stats().tuples, 1);
}

TEST_F(StreamTest, FanOutToMultipleScopes) {
  // "It then displays these BUFFER signals to one or more scopes."
  Scope second(&loop_, {.name = "second", .width = 64});
  second.SetPollingMode(5);
  StreamServer server(&loop_, &scope_);
  EXPECT_TRUE(server.AddScope(&second));
  EXPECT_FALSE(server.AddScope(&second));  // duplicate
  EXPECT_FALSE(server.AddScope(nullptr));
  EXPECT_EQ(server.scope_count(), 2u);

  ASSERT_TRUE(server.Listen(0));
  StreamClient client(&loop_);
  ASSERT_TRUE(client.Connect(server.port()));
  scope_.StartPolling();
  second.StartPolling();
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));

  // Fresh stamps each wait turn (late-drop vs scheduling jitter, as above).
  ASSERT_TRUE(RunUntil([&]() {
    client.SendTuple({scope_.NowMs(), 7.0, "shared"});
    loop_.RunForMs(2);
    SignalId a = scope_.FindSignal("shared");
    SignalId b = second.FindSignal("shared");
    return a != 0 && b != 0 && scope_.LatestValue(a) == 7.0 && second.LatestValue(b) == 7.0;
  }));

  EXPECT_TRUE(server.RemoveScope(&second));
  EXPECT_FALSE(server.RemoveScope(&second));
  EXPECT_EQ(server.scope_count(), 1u);
}

TEST_F(StreamTest, ScopeAddedMidStreamReceivesSubsequentTuples) {
  // Dynamic topology under load: the routing table must re-snapshot when a
  // display target attaches mid-stream.
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  StreamClient client(&loop_);
  ASSERT_TRUE(client.Connect(server.port()));
  scope_.StartPolling();
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));

  client.SendTuple({scope_.NowMs(), 1.0, "live"});
  ASSERT_TRUE(RunUntil([&]() { return server.stats().tuples >= 1; }));

  Scope late_scope(&loop_, {.name = "late", .width = 64});
  late_scope.SetPollingMode(5);
  late_scope.StartPolling();
  ASSERT_TRUE(server.AddScope(&late_scope));

  // Fresh stamps each turn (see below): a one-shot send can be late-dropped
  // under parallel-test scheduling jitter.
  ASSERT_TRUE(RunUntil([&]() {
    client.SendTuple({scope_.NowMs(), 2.0, "live"});
    loop_.RunForMs(2);
    SignalId id = late_scope.FindSignal("live");
    return id != 0 && late_scope.LatestValue(id) == 2.0 &&
           scope_.LatestValue(scope_.FindSignal("live")) == 2.0;
  }));

  // ... and detaches mid-stream without disturbing the remaining target.
  ASSERT_TRUE(server.RemoveScope(&late_scope));
  // Resend with a fresh stamp each turn: a single send stamped exactly at a
  // poll-tick boundary can be judged late (delay 0) and dropped for good.
  ASSERT_TRUE(RunUntil([&]() {
    client.SendTuple({scope_.NowMs(), 3.0, "live"});
    loop_.RunForMs(2);
    auto v = scope_.LatestValue(scope_.FindSignal("live"));
    return v.has_value() && *v == 3.0;
  }));
  EXPECT_NE(late_scope.LatestValue(late_scope.FindSignal("live")).value_or(-1), 3.0);
}

TEST_F(StreamTest, RemovedSignalRecreatedOnNextTuple) {
  // Epoch invalidation end-to-end: removing a signal mid-stream must not
  // leave a stale route delivering to a dead id; with auto-create on, the
  // next tuple recreates the signal.
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  StreamClient client(&loop_);
  ASSERT_TRUE(client.Connect(server.port()));
  scope_.StartPolling();
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));

  // Resend with fresh stamps inside the wait: a send stamped exactly at a
  // poll-tick boundary can be late-dropped (delay 0), and a one-shot send
  // would then never arrive.
  ASSERT_TRUE(RunUntil([&]() {
    client.SendTuple({scope_.NowMs(), 1.0, "flaky"});
    loop_.RunForMs(2);
    SignalId id = scope_.FindSignal("flaky");
    return id != 0 && scope_.LatestValue(id) == 1.0;
  }));
  SignalId first = scope_.FindSignal("flaky");
  ASSERT_TRUE(scope_.RemoveSignal(first));

  ASSERT_TRUE(RunUntil([&]() {
    client.SendTuple({scope_.NowMs(), 2.0, "flaky"});
    loop_.RunForMs(2);
    SignalId id = scope_.FindSignal("flaky");
    return id != 0 && scope_.LatestValue(id) == 2.0;
  }));
  SignalId second = scope_.FindSignal("flaky");
  EXPECT_NE(second, first);
}

}  // namespace
}  // namespace gscope
