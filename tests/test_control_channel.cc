// End-to-end tests of the remote scope control channel (docs/protocol.md):
// subscribe/unsubscribe by glob, per-session delay, tuple echo down the same
// connection, and route-table-level exclusion of non-subscribed signals.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/scope.h"
#include "freq/spectrum.h"
#include "net/control_client.h"
#include "net/socket.h"
#include "net/stream_client.h"
#include "net/stream_server.h"
#include "runtime/event_loop.h"

namespace gscope {
namespace {

class ControlChannelTest : public ::testing::Test {
 protected:
  ControlChannelTest() : scope_(&loop_, {.name = "display", .width = 64}) {
    scope_.SetPollingMode(5);
  }

  bool RunUntil(const std::function<bool()>& pred, int max_ms = 2000) {
    for (int i = 0; i < max_ms; ++i) {
      if (pred()) {
        return true;
      }
      loop_.RunForMs(1);
    }
    return pred();
  }

  // Received (name, value) pairs, recorded off the borrowed TupleView.
  struct Sink {
    std::vector<std::pair<std::string, double>> tuples;
    std::vector<std::string> replies;
    void Wire(ControlClient& client) {
      client.SetTupleCallback([this](const TupleView& t) {
        tuples.emplace_back(std::string(t.name), t.value);
      });
      client.SetReplyCallback([this](std::string_view line) {
        replies.emplace_back(line);
      });
    }
    bool SawValue(double v) const {
      for (const auto& [name, value] : tuples) {
        if (value == v) {
          return true;
        }
      }
      return false;
    }
    bool SawName(const std::string& n) const {
      for (const auto& [name, value] : tuples) {
        if (name == n) {
          return true;
        }
      }
      return false;
    }
  };

  // Sends twenty tuples 10 ms apart to a DELAY 300 session of a server
  // whose sessions drain at least every 200 ms (control_poll_period_ms),
  // and appends to `lags` how long after its display deadline each echo
  // reached the viewer, in ms of the display axis.  With loops > 1 the
  // viewer lands on loop 0 and the producer on loop 1, so every span
  // reaches the session from another loop.
  void EchoLagsPastDeadline(size_t loops, std::vector<int64_t>* lags) {
    constexpr int kTuples = 20;
    constexpr int64_t kDelayMs = 300;
    scope_.SetConcurrent(loops > 1);
    StreamServerOptions opts;
    opts.loops = loops;
    opts.reuse_port = false;  // one acceptor: connection order picks the loop
    opts.control_poll_period_ms = 200;
    StreamServer server(&loop_, &scope_, opts);
    ASSERT_TRUE(server.Listen(0));
    scope_.StartPolling();

    ControlClient viewer(&loop_);
    std::vector<std::pair<double, int64_t>> got;  // (value, receipt ms)
    viewer.SetTupleCallback(
        [&](const TupleView& t) { got.emplace_back(t.value, scope_.NowMs()); });
    ASSERT_TRUE(viewer.Connect(server.port()));
    ASSERT_TRUE(RunUntil([&]() { return viewer.connected() && server.client_count() == 1; }));
    viewer.Subscribe("dl_*");
    viewer.SetDelay(kDelayMs);
    ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 2; }));

    StreamClient producer(&loop_);
    ASSERT_TRUE(producer.Connect(server.port()));
    ASSERT_TRUE(RunUntil([&]() { return producer.connected() && server.client_count() == 2; }));
    if (loops > 1) {
      ASSERT_EQ(server.shard_client_count(0), 1u);
      ASSERT_EQ(server.shard_client_count(1), 1u);
    }
    std::vector<int64_t> stamps;
    for (int i = 0; i < kTuples; ++i) {
      stamps.push_back(scope_.NowMs());
      producer.Send(stamps.back(), static_cast<double>(i), "dl_sig");
      loop_.RunForMs(10);
    }
    ASSERT_TRUE(RunUntil([&]() { return got.size() >= kTuples; }, 5000));
    ASSERT_EQ(got.size(), static_cast<size_t>(kTuples));
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, static_cast<double>(i));
      lags->push_back(got[i].second - (stamps[i] + kDelayMs));
    }
  }

  MainLoop loop_;  // real clock: sockets need real readiness
  Scope scope_;
};

TEST_F(ControlChannelTest, DisjointGlobsReceiveDisjointStreams) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();

  ControlClient a(&loop_), b(&loop_);
  Sink sink_a, sink_b;
  sink_a.Wire(a);
  sink_b.Wire(b);
  ASSERT_TRUE(a.Connect(server.port()));
  ASSERT_TRUE(b.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return a.connected() && b.connected(); }));

  a.Subscribe("tcp_*");
  b.Subscribe("udp_*");
  ASSERT_TRUE(RunUntil([&]() {
    return a.stats().replies_ok >= 1 && b.stats().replies_ok >= 1;
  }));
  EXPECT_EQ(server.control_session_count(), 2u);
  EXPECT_EQ(server.stats().sessions_opened, 2);

  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));

  ASSERT_TRUE(RunUntil([&]() {
    producer.Send(scope_.NowMs(), 1.0, "tcp_cwnd");
    producer.Send(scope_.NowMs(), 2.0, "udp_loss");
    loop_.RunForMs(2);
    return a.stats().tuples_received >= 3 && b.stats().tuples_received >= 3;
  }));

  // Strictly disjoint delivery.
  EXPECT_TRUE(sink_a.SawName("tcp_cwnd"));
  EXPECT_FALSE(sink_a.SawName("udp_loss"));
  EXPECT_TRUE(sink_b.SawName("udp_loss"));
  EXPECT_FALSE(sink_b.SawName("tcp_cwnd"));

  // The exclusion happened at route-build time: each signal's route carries
  // an excluded slot for the non-matching session (no per-sample filtering).
  EXPECT_GE(server.router().excluded_route_slots(), 2u);
  // The display scope (unfiltered) still auto-created both signals.
  EXPECT_NE(scope_.FindSignal("tcp_cwnd"), 0);
  EXPECT_NE(scope_.FindSignal("udp_loss"), 0);
}

TEST_F(ControlChannelTest, PerSessionDelayGovernsLateDropAndHold) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();
  loop_.RunForMs(50);  // move scope time off zero so "stale" stamps exist

  ControlClient fast(&loop_), slow(&loop_);
  Sink sink_fast, sink_slow;
  sink_fast.Wire(fast);
  sink_slow.Wire(slow);
  ASSERT_TRUE(fast.Connect(server.port()));
  ASSERT_TRUE(slow.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return fast.connected() && slow.connected(); }));

  fast.Subscribe("sig");
  fast.SetDelay(0);
  slow.Subscribe("sig");
  slow.SetDelay(500);
  ASSERT_TRUE(RunUntil([&]() {
    return fast.stats().replies_ok >= 2 && slow.stats().replies_ok >= 2;
  }));

  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));

  // Stale by 250 ms: already past the fast session's deadline (delay 0) but
  // still inside the slow session's 500 ms window.
  producer.Send(scope_.NowMs() - 250, 7.0, "sig");
  ASSERT_TRUE(RunUntil([&]() { return sink_slow.SawValue(7.0); }));
  EXPECT_FALSE(sink_fast.SawValue(7.0));

  // A fresh tuple reaches the fast session (proving it is alive, not just
  // dropping everything).
  ASSERT_TRUE(RunUntil([&]() {
    producer.Send(scope_.NowMs(), 8.0, "sig");
    loop_.RunForMs(2);
    return sink_fast.SawValue(8.0);
  }));
  EXPECT_FALSE(sink_fast.SawValue(7.0));
}

TEST_F(ControlChannelTest, UnsubTakesEffectMidStreamWithoutDroppingConnection) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();

  ControlClient a(&loop_);
  Sink sink;
  sink.Wire(a);
  ASSERT_TRUE(a.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return a.connected(); }));
  a.Subscribe("alpha");
  a.Subscribe("beta");
  ASSERT_TRUE(RunUntil([&]() { return a.stats().replies_ok >= 2; }));

  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));

  ASSERT_TRUE(RunUntil([&]() {
    producer.Send(scope_.NowMs(), 1.0, "alpha");
    producer.Send(scope_.NowMs(), 2.0, "beta");
    loop_.RunForMs(2);
    return sink.SawValue(1.0) && sink.SawValue(2.0);
  }));

  // Pattern change mid-stream: the route epoch moves and beta's slot is
  // excluded at the next table build.
  uint64_t epoch_before = server.router().route_epoch();
  a.Unsubscribe("beta");
  ASSERT_TRUE(RunUntil([&]() { return a.stats().replies_ok >= 3; }));
  EXPECT_GT(server.router().route_epoch(), epoch_before);

  ASSERT_TRUE(RunUntil([&]() {
    producer.Send(scope_.NowMs(), 3.0, "beta");
    producer.Send(scope_.NowMs(), 4.0, "alpha");
    loop_.RunForMs(2);
    return sink.SawValue(4.0);
  }));
  EXPECT_FALSE(sink.SawValue(3.0));  // beta stopped flowing
  EXPECT_GE(server.router().excluded_route_slots(), 1u);

  // The connection never dropped.
  EXPECT_TRUE(a.connected());
  EXPECT_EQ(server.stats().disconnections, 0);
  EXPECT_EQ(server.control_session_count(), 1u);
}

TEST_F(ControlChannelTest, SameConnectionCanPushAndSubscribe) {
  // The smoke scenario: one connection subscribes, pushes a matching tuple,
  // and receives its own echo.
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();

  ControlClient self(&loop_);
  Sink sink;
  sink.Wire(self);
  ASSERT_TRUE(self.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return self.connected(); }));
  self.Subscribe("self_*");
  ASSERT_TRUE(RunUntil([&]() { return self.stats().replies_ok >= 1; }));

  ASSERT_TRUE(RunUntil([&]() {
    self.Send(scope_.NowMs(), 42.0, "self_metric");
    loop_.RunForMs(2);
    return sink.SawValue(42.0);
  }));
  EXPECT_TRUE(sink.SawName("self_metric"));
  EXPECT_GE(server.stats().tuples_echoed, 1);
}

TEST_F(ControlChannelTest, ListAndErrorReplies) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();

  ControlClient a(&loop_);
  Sink sink;
  sink.Wire(a);
  ASSERT_TRUE(a.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return a.connected(); }));

  a.Subscribe("tcp_*");
  a.Subscribe("tcp_*");    // duplicate -> ERR
  a.Unsubscribe("never");  // unknown -> ERR
  a.SetDelay(250);
  a.RequestList();
  ASSERT_TRUE(RunUntil([&]() { return a.stats().replies_ok >= 3; }));
  EXPECT_EQ(a.stats().replies_err, 2);
  EXPECT_EQ(a.stats().replies_info, 1);  // one INFO SUB line from LIST

  bool saw_list = false, saw_info = false;
  for (const std::string& reply : sink.replies) {
    saw_list = saw_list || reply == "OK LIST 1 DELAY 250 MODE every-sample";
    saw_info = saw_info || reply == "INFO SUB tcp_*";
  }
  EXPECT_TRUE(saw_info);
  EXPECT_TRUE(saw_list);
  EXPECT_EQ(server.stats().control_errors, 2);
  EXPECT_GE(server.stats().control_commands, 5);
}

TEST_F(ControlChannelTest, MalformedControlGrammar) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  Socket raw = Socket::Connect(server.port());
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));

  // A structurally malformed FIRST command must not cost this connection a
  // session (scope + poll timer + router slot); it is only counted.
  const std::string bad_first = "DELAY abc\n";
  raw.Write(bad_first.data(), bad_first.size());
  ASSERT_TRUE(RunUntil([&]() { return server.stats().control_errors >= 1; }));
  EXPECT_EQ(server.control_session_count(), 0u);

  // A valid command opens the session; malformed ones then draw ERR replies.
  const std::string wire = "SUB keep_*\nSUB\nDELAY abc\nSUB x y\nLIST junk\nBOGUS\n";
  raw.Write(wire.data(), wire.size());
  ASSERT_TRUE(RunUntil([&]() { return server.stats().control_errors >= 5; }));
  EXPECT_EQ(server.stats().parse_errors, 1);  // the unknown verb only
  EXPECT_EQ(server.stats().control_commands, 6);
  EXPECT_EQ(server.control_session_count(), 1u);
  EXPECT_EQ(server.stats().sessions_opened, 1);

  std::string received;
  ASSERT_TRUE(RunUntil([&]() {
    char buf[1024];
    IoResult r = raw.Read(buf, sizeof(buf));
    if (r.status == IoResult::Status::kOk) {
      received.append(buf, r.bytes);
    }
    return received.find("OK SUB keep_*\n") != std::string::npos &&
           received.find("ERR SUB missing-pattern\n") != std::string::npos &&
           received.find("ERR DELAY bad-milliseconds\n") != std::string::npos &&
           received.find("ERR SUB trailing-junk\n") != std::string::npos &&
           received.find("ERR LIST trailing-junk\n") != std::string::npos &&
           received.find("ERR unknown-verb\n") != std::string::npos;
  }));
}

TEST_F(ControlChannelTest, ControlDisabledTreatsVerbsAsGarbage) {
  StreamServer server(&loop_, &scope_, {.enable_control = false});
  ASSERT_TRUE(server.Listen(0));
  Socket raw = Socket::Connect(server.port());
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));
  const std::string wire = "SUB tcp_*\n";
  raw.Write(wire.data(), wire.size());
  ASSERT_TRUE(RunUntil([&]() { return server.stats().parse_errors >= 1; }));
  EXPECT_EQ(server.control_session_count(), 0u);
  EXPECT_EQ(server.stats().control_commands, 0);
}

TEST_F(ControlChannelTest, SessionTornDownOnDisconnect) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();
  {
    ControlClient a(&loop_);
    ASSERT_TRUE(a.Connect(server.port()));
    ASSERT_TRUE(RunUntil([&]() { return a.connected(); }));
    a.Subscribe("x_*");
    ASSERT_TRUE(RunUntil([&]() { return a.stats().replies_ok >= 1; }));
    EXPECT_EQ(server.scope_count(), 2u);  // display scope + session scope
  }  // client closes
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 0; }));
  EXPECT_EQ(server.scope_count(), 1u);  // session scope unregistered
  EXPECT_EQ(server.control_session_count(), 0u);

  // Ingest continues unharmed after the session teardown.
  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));
  producer.Send(scope_.NowMs(), 5.0, "x_after");
  ASSERT_TRUE(RunUntil([&]() { return server.stats().tuples >= 1; }));
  EXPECT_TRUE(RunUntil([&]() { return scope_.FindSignal("x_after") != 0; }));
}

TEST_F(ControlChannelTest, DeadSubscriberDropsSessionWithoutKillingServer) {
  // A subscriber that vanishes without reading its echo stream leaves a
  // reset connection; the server's next egress write must surface as an
  // error that drops the session - not as a process-killing SIGPIPE.
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();
  {
    Socket raw = Socket::Connect(server.port());
    ASSERT_TRUE(raw.valid());
    ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));
    const std::string sub = "SUB dead_*\n";
    raw.Write(sub.data(), sub.size());
    ASSERT_TRUE(RunUntil([&]() { return server.control_session_count() == 1; }));
  }  // closed with the unread OK reply pending -> RST on Linux

  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));
  ASSERT_TRUE(RunUntil([&]() {
    producer.Send(scope_.NowMs(), 1.0, "dead_metric");
    loop_.RunForMs(2);
    return server.control_session_count() == 0;
  }));
  // The server survived and keeps ingesting.
  ASSERT_TRUE(RunUntil([&]() {
    producer.Send(scope_.NowMs(), 2.0, "alive_metric");
    loop_.RunForMs(2);
    return scope_.FindSignal("alive_metric") != 0;
  }));
}

TEST_F(ControlChannelTest, EgressOverflowDropsWholeFramesWithByteAccounting) {
  // A subscriber that never reads while a producer floods: the session's
  // tiny egress backlog must shed WHOLE frames (echo_dropped), and
  // everything that does arrive must be complete lines.
  StreamServer server(&loop_, &scope_, {.control_max_buffer = 512});
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();

  Socket raw = Socket::Connect(server.port());
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));
  const std::string sub = "SUB flood_*\n";
  raw.Write(sub.data(), sub.size());
  ASSERT_TRUE(RunUntil([&]() { return server.control_session_count() == 1; }));

  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));
  // Flood without ever reading `raw`: the kernel socket buffer plus the
  // 512-byte session backlog overflow quickly.
  ASSERT_TRUE(RunUntil([&]() {
    for (int i = 0; i < 64; ++i) {
      producer.Send(scope_.NowMs(), 1000.0 + i, "flood_metric");
    }
    loop_.RunForMs(2);
    return server.stats().echo_dropped > 0;
  }));
  EXPECT_EQ(server.stats().echo_evicted, 0);  // default policy drops newest

  // Now read everything that made it through: only complete lines.
  std::string received;
  for (int i = 0; i < 200; ++i) {
    loop_.RunForMs(1);
    char buf[4096];
    IoResult r;
    while ((r = raw.Read(buf, sizeof(buf))).status == IoResult::Status::kOk) {
      received.append(buf, r.bytes);
    }
  }
  ASSERT_FALSE(received.empty());
  EXPECT_EQ(received.back(), '\n');  // no torn tail
  for (size_t pos = 0, nl; (nl = received.find('\n', pos)) != std::string::npos; pos = nl + 1) {
    std::string_view line(received.data() + pos, nl - pos);
    if (line.rfind("OK", 0) == 0) {
      continue;  // the SUB reply shares the backlog
    }
    EXPECT_TRUE(ParseTupleView(line).has_value()) << "torn echo line: " << line;
  }
}

TEST_F(ControlChannelTest, EgressDropOldestEvictsStaleEchoKeepsNewest) {
  // Same flood, drop-oldest egress: a stalled viewer loses the OLDEST echo
  // frames (echo_evicted) and resumes at the newest data once it reads.
  StreamServer server(&loop_, &scope_,
                      {.control_max_buffer = 512,
                       .control_overflow_policy = OverflowPolicy::kDropOldest});
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();

  Socket raw = Socket::Connect(server.port());
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));
  const std::string sub = "SUB ev_*\n";
  raw.Write(sub.data(), sub.size());
  ASSERT_TRUE(RunUntil([&]() { return server.control_session_count() == 1; }));

  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));
  double value = 0;
  ASSERT_TRUE(RunUntil([&]() {
    for (int i = 0; i < 64; ++i) {
      producer.Send(scope_.NowMs(), ++value, "ev_metric");
    }
    loop_.RunForMs(2);
    return server.stats().echo_evicted > 0;
  }));
  EXPECT_EQ(server.stats().echo_dropped, 0);  // eviction always made room

  // Drain the viewer: the stream must resume at (or after) the newest data
  // of the flood - the old backlog's head was what eviction shed.
  double flood_end = value;
  std::string received;
  double last_echoed = -1;
  ASSERT_TRUE(RunUntil([&]() {
    producer.Send(scope_.NowMs(), ++value, "ev_metric");
    loop_.RunForMs(1);
    char buf[4096];
    IoResult r;
    while ((r = raw.Read(buf, sizeof(buf))).status == IoResult::Status::kOk) {
      received.append(buf, r.bytes);
    }
    for (size_t pos = 0, nl; (nl = received.find('\n', pos)) != std::string::npos;
         pos = nl + 1) {
      auto view = ParseTupleView(std::string_view(received.data() + pos, nl - pos));
      if (view.has_value()) {
        last_echoed = std::max(last_echoed, view->value);
      }
    }
    return last_echoed >= flood_end;
  }));
}

TEST_F(ControlChannelTest, ReconnectAfterServerRestartResumesSubscription) {
  // Session resumption: a server restart surfaces as a disconnect on the
  // control client, and a plain re-Connect replays the remembered pattern
  // set and delay — no manual re-SUB required.
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  uint16_t port = server.port();
  scope_.StartPolling();

  ControlClient viewer(&loop_);
  Sink sink;
  sink.Wire(viewer);
  ASSERT_TRUE(viewer.Connect(port));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  viewer.Subscribe("rc_*");
  viewer.SetDelay(100);
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 2; }));
  EXPECT_EQ(viewer.stats().resumed_commands, 0);  // nothing remembered yet

  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(port));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));
  ASSERT_TRUE(RunUntil([&]() {
    producer.Send(scope_.NowMs(), 1.0, "rc_before");
    loop_.RunForMs(2);
    return sink.SawValue(1.0);
  }));

  // Restart: every connection dies with the listener.
  server.Close();
  ASSERT_TRUE(RunUntil([&]() { return viewer.state() == ConnectState::kDisconnected; }));
  EXPECT_FALSE(viewer.connected());
  ASSERT_TRUE(server.Listen(port));
  EXPECT_EQ(server.control_session_count(), 0u);  // the old session died

  // The client still remembers its session state across the disconnect.
  ASSERT_EQ(viewer.remembered_patterns().size(), 1u);
  EXPECT_EQ(viewer.remembered_patterns()[0], "rc_*");
  EXPECT_TRUE(viewer.has_remembered_delay());
  EXPECT_EQ(viewer.remembered_delay_ms(), 100);

  // Reconnect only: SUB rc_* and DELAY 100 are replayed automatically.
  ASSERT_TRUE(viewer.Connect(port));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 4; }));
  EXPECT_EQ(viewer.stats().resumed_commands, 2);  // SUB + DELAY

  ASSERT_TRUE(producer.Connect(port));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));
  ASSERT_TRUE(RunUntil([&]() {
    producer.Send(scope_.NowMs(), 2.0, "rc_after");
    loop_.RunForMs(2);
    return sink.SawValue(2.0);
  }));
  // Counters accumulate across the restart: one session per SUB round.
  EXPECT_EQ(server.stats().sessions_opened, 2);
  EXPECT_EQ(server.control_session_count(), 1u);
  EXPECT_EQ(viewer.stats().replies_err, 0);  // replay never duplicates
}

TEST_F(ControlChannelTest, UnsubscribeAndForgetTrimResumedState) {
  // The remembered set tracks intent: UNSUB removes a pattern from what a
  // reconnect would replay, ForgetSession drops everything, and
  // auto_resubscribe = false opts out entirely.
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  uint16_t port = server.port();
  scope_.StartPolling();

  ControlClient viewer(&loop_);
  ASSERT_TRUE(viewer.Connect(port));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  viewer.Subscribe("a_*");
  viewer.Subscribe("b_*");
  viewer.Unsubscribe("a_*");
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 3; }));
  ASSERT_EQ(viewer.remembered_patterns().size(), 1u);
  EXPECT_EQ(viewer.remembered_patterns()[0], "b_*");

  server.Close();
  ASSERT_TRUE(RunUntil([&]() { return viewer.state() == ConnectState::kDisconnected; }));
  ASSERT_TRUE(server.Listen(port));
  ASSERT_TRUE(viewer.Connect(port));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().resumed_commands >= 1; }));
  EXPECT_EQ(viewer.stats().resumed_commands, 1);  // only b_*

  viewer.ForgetSession();
  EXPECT_TRUE(viewer.remembered_patterns().empty());
  EXPECT_FALSE(viewer.has_remembered_delay());

  // Opt-out client: a reconnect replays nothing.
  ControlClient manual(&loop_, {.auto_resubscribe = false});
  ASSERT_TRUE(manual.Connect(port));
  ASSERT_TRUE(RunUntil([&]() { return manual.connected(); }));
  manual.Subscribe("m_*");
  ASSERT_TRUE(RunUntil([&]() { return manual.stats().replies_ok >= 1; }));
  server.Close();
  ASSERT_TRUE(RunUntil([&]() { return manual.state() == ConnectState::kDisconnected; }));
  ASSERT_TRUE(server.Listen(port));
  ASSERT_TRUE(manual.Connect(port));
  ASSERT_TRUE(RunUntil([&]() { return manual.connected(); }));
  // Positive barrier instead of a blind wait: PING rides the same ordered
  // stream as any replay would, so a PONG proves the server has consumed
  // everything the establishment sent - and nothing was replayed.
  manual.Ping();
  ASSERT_TRUE(RunUntil([&]() { return manual.stats().pongs_received >= 1; }));
  EXPECT_EQ(manual.stats().resumed_commands, 0);
}

TEST_F(ControlChannelTest, UnsubscribeDuringHandshakeIsNotOverriddenByReplay) {
  // An UNSUB issued while the reconnect handshake is in flight must win:
  // the resume replay reflects the remembered state at establishment time,
  // never a stale snapshot re-adding the pattern behind the caller's back.
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  uint16_t port = server.port();
  scope_.StartPolling();

  ControlClient viewer(&loop_);
  Sink sink;
  sink.Wire(viewer);
  ASSERT_TRUE(viewer.Connect(port));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  viewer.Subscribe("hs_*");
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 1; }));

  server.Close();
  ASSERT_TRUE(RunUntil([&]() { return viewer.state() == ConnectState::kDisconnected; }));
  ASSERT_TRUE(server.Listen(port));

  // Reconnect, then unsubscribe BEFORE the handshake completes: the queued
  // UNSUB rides its own frame; the replay must not re-add hs_*.
  ASSERT_TRUE(viewer.Connect(port));
  ASSERT_EQ(viewer.state(), ConnectState::kConnecting);
  viewer.Unsubscribe("hs_*");
  EXPECT_TRUE(viewer.remembered_patterns().empty());
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  // PONG round-trip as the ordering barrier: any replayed SUB would have
  // been counted (and replied to) before the PING the server just answered.
  viewer.Ping();
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().pongs_received >= 1; }));
  EXPECT_EQ(viewer.stats().resumed_commands, 0);

  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(port));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));
  for (int i = 0; i < 20; ++i) {
    producer.Send(scope_.NowMs(), 7.0, "hs_metric");
    loop_.RunForMs(2);
  }
  EXPECT_FALSE(sink.SawValue(7.0));  // the server session is NOT subscribed

  // A pattern subscribed during the handshake is sent once, not twice.
  server.Close();
  ASSERT_TRUE(RunUntil([&]() { return viewer.state() == ConnectState::kDisconnected; }));
  ASSERT_TRUE(server.Listen(port));
  ASSERT_TRUE(viewer.Connect(port));
  ASSERT_EQ(viewer.state(), ConnectState::kConnecting);
  viewer.Subscribe("hs2_*");  // queued behind the handshake
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 2; }));
  viewer.Ping();
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().pongs_received >= 2; }));
  EXPECT_EQ(viewer.stats().resumed_commands, 0);  // rode its own frame
  // Exactly one ERR in the whole scenario: the queued UNSUB landing on the
  // fresh session (unknown-pattern, benign).  No duplicate-SUB ERR ever.
  EXPECT_EQ(viewer.stats().replies_err, 1);
}

TEST_F(ControlChannelTest, RefusedConnectResolvesQueuedFramesToDropped) {
  // Frames queued behind a handshake that is then refused never left the
  // process: they count as dropped, never as abandoned, while the verb and
  // the tuple still count as committed - and the declared pattern is kept
  // for the next establishment.
  uint16_t dead_port = 0;
  { Socket probe = Socket::Listen(0, &dead_port); }

  ControlClient viewer(&loop_);
  bool resolved = false;
  viewer.SetConnectCallback([&](bool, int) { resolved = true; });
  if (!viewer.Connect(dead_port)) {
    // The kernel refused synchronously: still surfaced, never "connected".
    EXPECT_EQ(viewer.state(), ConnectState::kFailed);
    EXPECT_FALSE(viewer.connected());
    return;
  }
  EXPECT_EQ(viewer.state(), ConnectState::kConnecting);
  EXPECT_TRUE(viewer.Subscribe("a_*"));
  EXPECT_TRUE(viewer.Send(1, 1.0, "x"));

  ASSERT_TRUE(RunUntil([&]() { return resolved; }));
  EXPECT_EQ(viewer.state(), ConnectState::kFailed);
  EXPECT_EQ(viewer.last_error(), ECONNREFUSED);
  const ControlClient::Stats& s = viewer.stats();
  EXPECT_EQ(s.connect_failures, 1);
  EXPECT_EQ(s.commands_sent, 1);
  EXPECT_EQ(s.tuples_pushed, 1);
  EXPECT_EQ(s.frames_dropped, 2);
  EXPECT_EQ(s.frames_abandoned, 0);
  EXPECT_EQ(s.frames_evicted, 0);
  EXPECT_EQ(viewer.remembered_patterns().size(), 1u);

  // Further sends fail immediately, one dropped frame each.
  EXPECT_FALSE(viewer.Send(2, 2.0, "x"));
  EXPECT_EQ(viewer.stats().frames_dropped, 3);
}

TEST_F(ControlChannelTest, RefusedConnectDropsPreconnectEvictionsOnce) {
  // Ten tuples queued behind a refused handshake under kDropOldest with a
  // 64-byte cap: the older ones are evicted to make room, yet none ever
  // left the process.  Each ends in exactly one outcome - dropped, never
  // also evicted.
  uint16_t dead_port = 0;
  { Socket probe = Socket::Listen(0, &dead_port); }

  ControlClientOptions opts;
  opts.max_buffer = 64;
  opts.overflow_policy = OverflowPolicy::kDropOldest;
  ControlClient viewer(&loop_, opts);
  bool resolved = false;
  viewer.SetConnectCallback([&](bool, int) { resolved = true; });
  if (!viewer.Connect(dead_port)) {
    // The kernel refused synchronously: still surfaced, never "connected".
    EXPECT_EQ(viewer.state(), ConnectState::kFailed);
    EXPECT_FALSE(viewer.connected());
    return;
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(viewer.Send(i, static_cast<double>(i), "preconnect_sig"));
  }
  EXPECT_GT(viewer.stats().frames_evicted, 0);  // the cap did evict

  ASSERT_TRUE(RunUntil([&]() { return resolved; }));
  EXPECT_EQ(viewer.state(), ConnectState::kFailed);
  const ControlClient::Stats& s = viewer.stats();
  EXPECT_EQ(s.tuples_pushed, 10);
  EXPECT_EQ(s.frames_dropped, 10);  // sent none, dropped all ten
  EXPECT_EQ(s.frames_evicted, 0);
  EXPECT_EQ(s.frames_abandoned, 0);
}

TEST_F(ControlChannelTest, EchoLeavesAtTheDisplayDeadlineNotTheNextPeriodTick) {
  // A drain brings the session's next drain forward to the earliest queued
  // deadline, so each echo leaves at its deadline.  Were drains only on
  // period ticks, a tuple displayable just past one would wait up to the
  // whole 200 ms period for the next.
  std::vector<int64_t> lags;
  ASSERT_NO_FATAL_FAILURE(EchoLagsPastDeadline(1, &lags));
  for (size_t i = 0; i < lags.size(); ++i) {
    EXPECT_GE(lags[i], 0) << "tuple " << i << " echoed before its deadline";
    EXPECT_LE(lags[i], 100) << "tuple " << i;
  }
}

TEST_F(ControlChannelTest, CrossLoopEchoLeavesAtTheDisplayDeadline) {
  // The TSan target: the producer's loop pushes every span into a session
  // scope drained on another loop; the first is found by a period tick, and
  // each drain brings the next one forward as at loops = 1.
  std::vector<int64_t> lags;
  ASSERT_NO_FATAL_FAILURE(EchoLagsPastDeadline(4, &lags));
  for (size_t i = 0; i < lags.size(); ++i) {
    EXPECT_GE(lags[i], 0) << "tuple " << i << " echoed before its deadline";
    EXPECT_LE(lags[i], 100) << "tuple " << i;
  }
}

TEST_F(ControlChannelTest, CoalescedSessionKeepsOneEchoPerSignalPerPeriod) {
  // A coalesced tap is never brought forward: the session drains on its
  // 200 ms period ticks only, one winner per signal each.
  StreamServerOptions opts;
  opts.control_poll_period_ms = 200;
  StreamServer server(&loop_, &scope_, opts);
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();

  ControlClient viewer(&loop_);
  Sink sink;
  sink.Wire(viewer);
  ASSERT_TRUE(viewer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  viewer.Subscribe("co_*");
  viewer.SetDelay(300);
  viewer.Stage("COALESCE");
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 3; }));

  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));
  constexpr int kTuples = 40;
  const int64_t first_stamp = scope_.NowMs();
  int64_t last_stamp = first_stamp;
  for (int i = 0; i < kTuples; ++i) {
    last_stamp = scope_.NowMs();
    producer.Send(last_stamp, static_cast<double>(i), "co_sig");
    loop_.RunForMs(10);
  }
  ASSERT_TRUE(RunUntil([&]() { return sink.SawValue(kTuples - 1); }, 3000));
  // The tuples become displayable over last - first ms; the period ticks
  // that echo them fall in that span plus one period: at most
  // span / 200 + 2 of them.  A tap brought forward would echo nearly every
  // tuple at its own deadline.
  EXPECT_LE(static_cast<int64_t>(sink.tuples.size()), (last_stamp - first_stamp) / 200 + 2);
  EXPECT_EQ(sink.tuples.back().second, static_cast<double>(kTuples - 1));
}

TEST_F(ControlChannelTest, StatsVerbReturnsCounterLine) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();

  ControlClient viewer(&loop_);
  Sink sink;
  sink.Wire(viewer);
  ASSERT_TRUE(viewer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  viewer.Subscribe("st_*");
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 1; }));

  // Some ingest traffic: a parse error, matched tuples (every-sample echo
  // keeps the session's slots on the history path), and display-scope
  // coalescing on the unfiltered display target.
  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));
  {
    // One malformed tuple line (digit-leading so it cannot read as a verb).
    Socket garbage = Socket::Connect(server.port());
    ASSERT_TRUE(garbage.valid());
    const std::string bad = "12 not-a-value\n";
    garbage.Write(bad.data(), bad.size());
    ASSERT_TRUE(RunUntil([&]() { return server.stats().parse_errors >= 1; }));
  }
  ASSERT_TRUE(RunUntil([&]() {
    producer.Send(scope_.NowMs(), 5.0, "st_metric");
    producer.Send(scope_.NowMs(), 6.0, "st_metric");
    loop_.RunForMs(2);
    return sink.SawValue(6.0);
  }));

  viewer.RequestStats();
  std::string stats_line;
  ASSERT_TRUE(RunUntil([&]() {
    for (const std::string& reply : sink.replies) {
      if (reply.rfind("OK STATS ", 0) == 0) {
        stats_line = reply;
        return true;
      }
    }
    return false;
  }));
  // One line of space-separated key/value pairs (docs/protocol.md).
  EXPECT_NE(stats_line.find(" parse_errors 1"), std::string::npos) << stats_line;
  EXPECT_NE(stats_line.find(" echo_evicted 0"), std::string::npos) << stats_line;
  EXPECT_NE(stats_line.find(" excluded_route_slots "), std::string::npos) << stats_line;
  EXPECT_NE(stats_line.find(" samples_coalesced "), std::string::npos) << stats_line;
  EXPECT_NE(stats_line.find(" samples_retained "), std::string::npos) << stats_line;
  // The session scope echoes per sample (retained); the display scope has
  // no every-sample consumer, so its samples coalesce.
  int64_t retained = 0;
  size_t pos = stats_line.find(" samples_retained ");
  ASSERT_NE(pos, std::string::npos);
  retained = std::stoll(stats_line.substr(pos + sizeof(" samples_retained ") - 1));
  EXPECT_GE(retained, 2);

  // Grammar: STATS takes no argument.
  Socket raw = Socket::Connect(server.port());
  ASSERT_TRUE(raw.valid());
  const std::string wire = "SUB raw_*\nSTATS junk\n";
  raw.Write(wire.data(), wire.size());
  std::string received;
  ASSERT_TRUE(RunUntil([&]() {
    char buf[1024];
    IoResult r = raw.Read(buf, sizeof(buf));
    if (r.status == IoResult::Status::kOk) {
      received.append(buf, r.bytes);
    }
    return received.find("ERR STATS trailing-junk\n") != std::string::npos;
  }));
}

TEST_F(ControlChannelTest, ControlOnlyServerNeedsNoLocalScope) {
  // The paper's multi-viewer service shape: every display target attaches
  // over the wire; the server process owns no scope of its own.
  StreamServer server(&loop_, nullptr);
  ASSERT_TRUE(server.Listen(0));

  ControlClient viewer(&loop_);
  Sink sink;
  sink.Wire(viewer);
  ASSERT_TRUE(viewer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  viewer.Subscribe("*");
  viewer.SetDelay(300);
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 2; }));

  // With no reference scope the session's clock starts at zero when the
  // session is created, and the producer's stamps must merely land inside
  // the 300 ms display window; slowly advancing stamps stay within it.
  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));
  int64_t stamp = 0;
  ASSERT_TRUE(RunUntil([&]() {
    producer.Send(stamp += 2, 11.0, "anything");
    loop_.RunForMs(2);
    return sink.SawValue(11.0);
  }));
}

// ---------------------------------------------------------------------------
// Derived-signal pipelines (docs/protocol.md "Derived-signal pipelines").
// ---------------------------------------------------------------------------

TEST_F(ControlChannelTest, DecimateEmitsEveryNthExactly) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();

  ControlClient viewer(&loop_);
  Sink sink;
  sink.Wire(viewer);
  ASSERT_TRUE(viewer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  viewer.Subscribe("dec_*");
  viewer.SetDelay(100);
  viewer.Stage("DECIMATE 3");
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 3; }));
  EXPECT_EQ(server.stats().stages_active, 1);

  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));
  for (int i = 1; i <= 9; ++i) {
    producer.Send(scope_.NowMs(), static_cast<double>(i), "dec_x");
  }
  ASSERT_TRUE(RunUntil([&]() { return sink.tuples.size() >= 3; }));
  loop_.RunForMs(150);  // settle: no stragglers may trail in
  ASSERT_EQ(sink.tuples.size(), 3u);
  // The first sample of a signal always emits; then every factor-th.
  EXPECT_EQ(sink.tuples[0].first, "dec_x");
  EXPECT_EQ(sink.tuples[0].second, 1.0);
  EXPECT_EQ(sink.tuples[1].second, 4.0);
  EXPECT_EQ(sink.tuples[2].second, 7.0);
  EXPECT_EQ(server.stats().stage_evals, 9);
  EXPECT_EQ(server.stats().tuples_derived, 3);
}

TEST_F(ControlChannelTest, EwmaSmoothsWithExactValues) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();

  ControlClient viewer(&loop_);
  Sink sink;
  sink.Wire(viewer);
  ASSERT_TRUE(viewer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  viewer.Subscribe("ew_*");
  viewer.SetDelay(100);
  viewer.Stage("EWMA 0.5");
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 3; }));

  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));
  producer.Send(scope_.NowMs(), 1.0, "ew_x");
  producer.Send(scope_.NowMs(), 2.0, "ew_x");
  producer.Send(scope_.NowMs(), 3.0, "ew_x");
  ASSERT_TRUE(RunUntil([&]() { return sink.tuples.size() >= 3; }));
  ASSERT_EQ(sink.tuples.size(), 3u);
  // alpha = 0.5 over 1, 2, 3: exact dyadic arithmetic, and the text wire
  // round-trips doubles exactly (shortest-form to_chars both ways).
  EXPECT_EQ(sink.tuples[0].second, 1.0);
  EXPECT_EQ(sink.tuples[1].second, 1.5);
  EXPECT_EQ(sink.tuples[2].second, 2.25);
}

TEST_F(ControlChannelTest, EnvelopeEmitsWindowMinMax) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();
  loop_.RunForMs(20);  // move scope time off zero

  ControlClient viewer(&loop_);
  Sink sink;
  sink.Wire(viewer);
  ASSERT_TRUE(viewer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  viewer.Subscribe("env_*");
  viewer.SetDelay(150);
  viewer.Stage("ENVELOPE 50");
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 3; }));

  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));
  const int64_t base = scope_.NowMs();
  producer.Send(base, 5.0, "env_x");
  producer.Send(base + 5, -1.0, "env_x");
  producer.Send(base + 10, 9.0, "env_x");
  producer.Send(base + 60, 2.0, "env_x");  // closes the window
  ASSERT_TRUE(RunUntil([&]() { return sink.tuples.size() >= 2; }));
  loop_.RunForMs(100);  // the sample that closed the window starts a new,
                        // never-closed one: nothing further may arrive
  ASSERT_EQ(sink.tuples.size(), 2u);
  std::map<std::string, double> got(sink.tuples.begin(), sink.tuples.end());
  ASSERT_TRUE(got.count("env_x.min"));
  ASSERT_TRUE(got.count("env_x.max"));
  EXPECT_EQ(got["env_x.min"], -1.0);
  EXPECT_EQ(got["env_x.max"], 9.0);
}

TEST_F(ControlChannelTest, SpectrumStreamsBinsMatchingFixture) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();
  loop_.RunForMs(300);  // history for back-dated stamps

  ControlClient viewer(&loop_);
  Sink sink;
  sink.Wire(viewer);
  ASSERT_TRUE(viewer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  viewer.Subscribe("tone*");
  viewer.SetDelay(400);
  viewer.Stage("SPECTRUM 256 hann");
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 3; }));

  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));
  // A 125 Hz tone sampled at 1 kHz (1 ms stamp spacing): the derived rate
  // is exactly (256-1)*1000/255 = 1000 Hz, so bin_hz = 1000/256 and the
  // tone lands dead on bin 32.
  const int64_t base = scope_.NowMs();
  std::vector<double> block(256);
  for (int i = 0; i < 256; ++i) {
    block[static_cast<size_t>(i)] =
        std::sin(2.0 * M_PI * 125.0 * static_cast<double>(i) / 1000.0);
    producer.Send(base - 255 + i, block[static_cast<size_t>(i)], "tone");
  }
  ASSERT_TRUE(RunUntil([&]() { return sink.tuples.size() >= 129; }, 4000));
  ASSERT_EQ(sink.tuples.size(), 129u);  // bins 0..N/2 inclusive

  // The streamed bins must match the library fixture on the same block.
  Spectrum expect = ComputeSpectrum(block, 1000.0, {.window = WindowKind::kHann});
  ASSERT_EQ(expect.power_db.size(), 129u);
  std::map<std::string, double> got(sink.tuples.begin(), sink.tuples.end());
  ASSERT_EQ(got.size(), 129u);
  for (size_t k = 0; k < expect.power_db.size(); ++k) {
    const std::string name = "tone.bin" + std::to_string(k);
    ASSERT_TRUE(got.count(name)) << name;
    EXPECT_DOUBLE_EQ(got[name], expect.power_db[k]) << name;
  }
  EXPECT_EQ(expect.PeakBin(), 32u);
}

TEST_F(ControlChannelTest, IdenticalSubscriptionsShareOneStageEvaluation) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();

  ControlClient a(&loop_), b(&loop_), c(&loop_);
  Sink sa, sb, sc;
  sa.Wire(a);
  sb.Wire(b);
  sc.Wire(c);
  for (ControlClient* v : {&a, &b, &c}) {
    ASSERT_TRUE(v->Connect(server.port()));
  }
  ASSERT_TRUE(RunUntil(
      [&]() { return a.connected() && b.connected() && c.connected(); }));
  for (ControlClient* v : {&a, &b, &c}) {
    v->Subscribe("sh_*");
    v->SetDelay(80);
    v->Stage("DECIMATE 2");
  }
  ASSERT_TRUE(RunUntil([&]() {
    return a.stats().replies_ok >= 3 && b.stats().replies_ok >= 3 &&
           c.stats().replies_ok >= 3;
  }));
  // Three identical subscriptions share ONE server-side stage group.
  EXPECT_EQ(server.stats().stages_active, 1);

  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));
  for (int i = 1; i <= 10; ++i) {
    producer.Send(scope_.NowMs(), static_cast<double>(i), "sh_sig");
  }
  ASSERT_TRUE(RunUntil([&]() {
    return sa.tuples.size() >= 5 && sb.tuples.size() >= 5 &&
           sc.tuples.size() >= 5;
  }));
  // The share-once proof: each sample evaluated ONCE, not once per viewer…
  EXPECT_EQ(server.stats().stage_evals, 10);
  // …then the 5 derived tuples fanned out to 3 echoes each.
  EXPECT_EQ(server.stats().tuples_derived, 15);
  for (Sink* s : {&sa, &sb, &sc}) {
    ASSERT_EQ(s->tuples.size(), 5u);
    EXPECT_EQ(s->tuples[0].second, 1.0);
    EXPECT_EQ(s->tuples[4].second, 9.0);
  }

  // LIST reports the attached stage as the session's tap mode.
  a.RequestList();
  ASSERT_TRUE(RunUntil([&]() {
    return std::find(sa.replies.begin(), sa.replies.end(),
                     "OK LIST 1 DELAY 80 MODE DECIMATE 2") != sa.replies.end();
  }));
  EXPECT_TRUE(std::find(sa.replies.begin(), sa.replies.end(),
                        "INFO SUB sh_* STAGE DECIMATE 2") != sa.replies.end());

  // One member detaching back to raw leaves the group alive for the others.
  c.ClearStage();
  ASSERT_TRUE(RunUntil([&]() { return c.stats().replies_ok >= 4; }));
  EXPECT_EQ(server.stats().stages_active, 1);
  producer.Send(scope_.NowMs(), 11.0, "sh_sig");
  producer.Send(scope_.NowMs(), 12.0, "sh_sig");
  ASSERT_TRUE(RunUntil([&]() {
    return sc.SawValue(12.0) && sa.SawValue(11.0) && sb.SawValue(11.0);
  }));
  // The raw session sees every sample again; staged peers stay decimated.
  EXPECT_TRUE(sc.SawValue(11.0));
  EXPECT_FALSE(sa.SawValue(12.0));
  EXPECT_FALSE(sb.SawValue(12.0));
}

TEST_F(ControlChannelTest, SharedStageAcrossShardedLoops) {
  // The TSan target: per-loop stage groups under sharded accepts.  Sessions
  // spread across 4 loops; each loop that hosts members builds its own
  // group, so evaluation count is bounded by loops x samples while every
  // viewer still receives the exact decimated stream.
  scope_.SetConcurrent(true);
  StreamServer server(&loop_, &scope_, {.loops = 4});
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();

  constexpr int kViewers = 6;
  constexpr int kSamples = 40;
  std::vector<std::unique_ptr<ControlClient>> viewers;
  std::vector<Sink> sinks(kViewers);
  for (int i = 0; i < kViewers; ++i) {
    viewers.push_back(std::make_unique<ControlClient>(&loop_));
    sinks[static_cast<size_t>(i)].Wire(*viewers.back());
    ASSERT_TRUE(viewers.back()->Connect(server.port()));
  }
  ASSERT_TRUE(RunUntil(
      [&]() {
        return std::all_of(viewers.begin(), viewers.end(),
                           [](const auto& v) { return v->connected(); });
      },
      8000));
  for (auto& v : viewers) {
    v->Subscribe("shard_*");
    v->SetDelay(80);
    v->Stage("DECIMATE 2");
  }
  ASSERT_TRUE(RunUntil(
      [&]() {
        return std::all_of(viewers.begin(), viewers.end(), [](const auto& v) {
          return v->stats().replies_ok >= 3;
        });
      },
      8000));
  EXPECT_GE(server.stats().stages_active, 1);
  EXPECT_LE(server.stats().stages_active, 4);

  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));
  for (int i = 1; i <= kSamples; ++i) {
    producer.Send(scope_.NowMs(), static_cast<double>(i), "shard_sig");
  }
  ASSERT_TRUE(RunUntil(
      [&]() {
        return std::all_of(sinks.begin(), sinks.end(), [](const Sink& s) {
          return s.tuples.size() >= kSamples / 2;
        });
      },
      8000));
  for (const Sink& s : sinks) {
    ASSERT_EQ(s.tuples.size(), static_cast<size_t>(kSamples / 2));
    for (int k = 0; k < kSamples / 2; ++k) {
      EXPECT_EQ(s.tuples[static_cast<size_t>(k)].second,
                static_cast<double>(2 * k + 1));
    }
  }
  // Shard-local sharing: between 1x (all sessions on one loop) and 4x.
  EXPECT_GE(server.stats().stage_evals, kSamples);
  EXPECT_LE(server.stats().stage_evals, 4 * kSamples);
}

TEST_F(ControlChannelTest, StageRespectsNamespaceAndEgressQuota) {
  StreamServerOptions opts;
  opts.auth_tokens = {{"tok-a", "tenant-a"}};
  opts.quota_egress_bytes_per_sec = 64;
  StreamServer server(&loop_, &scope_, opts);
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();

  ControlClient viewer(&loop_);
  Sink sink;
  sink.Wire(viewer);
  ASSERT_TRUE(viewer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  viewer.Auth("tok-a");
  viewer.Subscribe("q_*");
  viewer.SetDelay(50);
  viewer.Stage("EWMA 1");  // alpha = 1: identity pass-through
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 4; }));

  ControlClient tenant_producer(&loop_);
  ASSERT_TRUE(tenant_producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return tenant_producer.connected(); }));
  tenant_producer.Auth("tok-a");
  ASSERT_TRUE(RunUntil([&]() { return tenant_producer.stats().replies_ok >= 1; }));

  StreamClient outsider(&loop_);
  ASSERT_TRUE(outsider.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return outsider.connected(); }));

  // The anonymous producer's same-prefixed signal must never enter the
  // tenant's derived stream; the flood must trip the egress token bucket.
  outsider.Send(scope_.NowMs(), 99.0, "q_secret");
  for (int i = 1; i <= 200; ++i) {
    tenant_producer.Send(scope_.NowMs(), 1000.0 + i, "q_x");
  }
  ASSERT_TRUE(RunUntil([&]() {
    return sink.SawName("q_x") && server.stats().quota_drops_text >= 1;
  }));
  EXPECT_FALSE(sink.SawValue(99.0));
  EXPECT_FALSE(sink.SawName("q_secret"));
  EXPECT_GE(server.stats().quota_drops, 1);
}

TEST_F(ControlChannelTest, ReconnectReplaysAttachedStage) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  uint16_t port = server.port();
  scope_.StartPolling();

  ControlClient viewer(&loop_);
  Sink sink;
  sink.Wire(viewer);
  ASSERT_TRUE(viewer.Connect(port));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  viewer.Subscribe("rs_*");
  viewer.SetDelay(60);
  viewer.Stage("EWMA 0.5");
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 3; }));
  EXPECT_TRUE(viewer.has_remembered_stage());
  EXPECT_EQ(viewer.remembered_stage(), "EWMA 0.5");

  server.Close();
  ASSERT_TRUE(RunUntil(
      [&]() { return viewer.state() == ConnectState::kDisconnected; }));
  ASSERT_TRUE(server.Listen(port));

  // Reconnect only: SUB, DELAY and the stage are replayed automatically,
  // the stage LAST so it keys against the restored pattern set and delay.
  ASSERT_TRUE(viewer.Connect(port));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 6; }));
  EXPECT_EQ(viewer.stats().resumed_commands, 3);  // SUB + DELAY + EWMA
  EXPECT_EQ(server.stats().stages_active, 1);
  EXPECT_EQ(viewer.stats().replies_err, 0);

  viewer.RequestList();
  ASSERT_TRUE(RunUntil([&]() {
    return std::find(sink.replies.begin(), sink.replies.end(),
                     "OK LIST 1 DELAY 60 MODE EWMA 0.5") != sink.replies.end();
  }));

  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(port));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));
  producer.Send(scope_.NowMs(), 1.0, "rs_x");
  producer.Send(scope_.NowMs(), 2.0, "rs_x");
  ASSERT_TRUE(RunUntil([&]() { return sink.tuples.size() >= 2; }));
  EXPECT_EQ(sink.tuples[0].second, 1.0);
  EXPECT_EQ(sink.tuples[1].second, 1.5);
}

TEST_F(ControlChannelTest, CoalesceAndRawSwitchListMode) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();

  ControlClient viewer(&loop_);
  Sink sink;
  sink.Wire(viewer);
  ASSERT_TRUE(viewer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  viewer.Subscribe("c_*");
  viewer.SetDelay(100);
  viewer.Stage("COALESCE");
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 3; }));
  // COALESCE is a tap-mode switch, not a derived stage: no group exists.
  EXPECT_EQ(server.stats().stages_active, 0);

  viewer.RequestList();
  ASSERT_TRUE(RunUntil([&]() {
    return std::find(sink.replies.begin(), sink.replies.end(),
                     "OK LIST 1 DELAY 100 MODE coalesced") != sink.replies.end();
  }));

  viewer.ClearStage();  // sends RAW
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 4; }));
  viewer.RequestList();
  ASSERT_TRUE(RunUntil([&]() {
    return std::find(sink.replies.begin(), sink.replies.end(),
                     "OK LIST 1 DELAY 100 MODE every-sample") !=
           sink.replies.end();
  }));
}

TEST_F(ControlChannelTest, StageGrammarErrShapes) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  Socket raw = Socket::Connect(server.port());
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));

  const std::string wire =
      "SUB g_*\n"
      "DECIMATE 0\n"
      "DECIMATE x\n"
      "EWMA 2\n"
      "EWMA abc\n"
      "ENVELOPE 0\n"
      "SPECTRUM 1\n"
      "SPECTRUM 8 bogus\n"
      "SPECTRUM 8 hann extra\n"
      "COALESCE junk\n"
      "DECIMATE 3 junk\n";
  raw.Write(wire.data(), wire.size());

  std::string received;
  ASSERT_TRUE(RunUntil([&]() {
    char buf[2048];
    IoResult r = raw.Read(buf, sizeof(buf));
    if (r.status == IoResult::Status::kOk) {
      received.append(buf, r.bytes);
    }
    return received.find("OK SUB g_*\n") != std::string::npos &&
           received.find("ERR DECIMATE bad-factor\n") != std::string::npos &&
           received.find("ERR EWMA bad-alpha\n") != std::string::npos &&
           received.find("ERR ENVELOPE bad-window\n") != std::string::npos &&
           received.find("ERR SPECTRUM bad-size\n") != std::string::npos &&
           received.find("ERR SPECTRUM bad-window\n") != std::string::npos &&
           received.find("ERR SPECTRUM trailing-junk\n") != std::string::npos &&
           received.find("ERR COALESCE trailing-junk\n") != std::string::npos &&
           received.find("ERR DECIMATE trailing-junk\n") != std::string::npos;
  }));
  // Every malformed spec was rejected before touching the session's tap:
  // no stage group was ever created, and the session survived.
  EXPECT_EQ(server.stats().stages_active, 0);
  EXPECT_EQ(server.control_session_count(), 1u);
}

// ---------------------------------------------------------------------------
// Flight recorder (docs/protocol.md "Flight recorder").
// ---------------------------------------------------------------------------

namespace {
std::string RecordTempPath(const std::string& tag) {
  std::string path = ::testing::TempDir();
  if (!path.empty() && path.back() != '/') {
    path.push_back('/');
  }
  path.append("gscope_ctl_").append(tag).append("_");
  path.append(std::to_string(::getpid())).append(".log");
  std::remove(path.c_str());
  return path;
}

// Value of a space-separated `key value` pair in a STATS line, -1 if absent.
int64_t StatsValue(const std::string& line, const std::string& key) {
  size_t pos = line.find(" " + key + " ");
  if (pos == std::string::npos) {
    return -1;
  }
  return std::stoll(line.substr(pos + key.size() + 2));
}
}  // namespace

TEST_F(ControlChannelTest, RecordReplayRoundTripOverWire) {
  const std::string path = RecordTempPath("roundtrip");
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();

  ControlClient viewer(&loop_);
  Sink sink;
  sink.Wire(viewer);
  ASSERT_TRUE(viewer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  viewer.Subscribe("fr_*");
  // The burst below is sent once, stamped NowMs(): at DELAY 0 an ingest
  // that crosses a millisecond boundary late-drops all of it for good.
  viewer.SetDelay(200);
  ASSERT_TRUE(viewer.Record(path));
  ASSERT_TRUE(RunUntil([&]() {
    for (const std::string& reply : sink.replies) {
      if (reply.rfind("OK RECORD " + path, 0) == 0) {
        return true;
      }
    }
    return false;
  }));

  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));
  for (int i = 1; i <= 20; ++i) {
    producer.Send(scope_.NowMs(), 100.0 + i, "fr_sig");
  }
  ASSERT_TRUE(RunUntil([&]() { return sink.SawValue(120.0); }));

  // Poll STATS until the recorder (on its own thread and time axis) has
  // drained the whole burst; this also pins the live-recording key shapes.
  std::string stats_line;
  ASSERT_TRUE(RunUntil([&]() {
    viewer.RequestStats();
    loop_.RunForMs(2);
    for (auto it = sink.replies.rbegin(); it != sink.replies.rend(); ++it) {
      if (it->rfind("OK STATS ", 0) == 0) {
        stats_line = *it;
        return StatsValue(stats_line, "recording") == 1 &&
               StatsValue(stats_line, "samples_captured") >= 20;
      }
    }
    return false;
  }));
  EXPECT_GE(StatsValue(stats_line, "extents_sealed"), 0);
  EXPECT_EQ(StatsValue(stats_line, "capture_degraded"), 0);
  EXPECT_EQ(StatsValue(stats_line, "fsync_policy"), 0);

  ASSERT_TRUE(viewer.StopRecord());
  ASSERT_TRUE(RunUntil([&]() {
    for (const std::string& reply : sink.replies) {
      if (reply == "OK RECORD OFF") {
        return true;
      }
    }
    return false;
  }));

  // The retired tallies survive RECORD OFF (STATS keys stay monotone).
  ASSERT_TRUE(RunUntil([&]() {
    viewer.RequestStats();
    loop_.RunForMs(2);
    for (auto it = sink.replies.rbegin(); it != sink.replies.rend(); ++it) {
      if (it->rfind("OK STATS ", 0) == 0) {
        stats_line = *it;
        return StatsValue(stats_line, "recording") == 0;
      }
    }
    return false;
  }));
  EXPECT_GE(StatsValue(stats_line, "samples_captured"), 20);
  EXPECT_GE(StatsValue(stats_line, "extents_sealed"), 1);
  EXPECT_GT(StatsValue(stats_line, "capture_bytes"), 0);
  EXPECT_EQ(StatsValue(stats_line, "extents_dropped"), 0);

  // Time travel: a burst REPLAY streams the recorded window back between
  // "OK REPLAY n" and "INFO REPLAY DONE n", through the normal echo path.
  const size_t tuples_before = sink.tuples.size();
  ASSERT_TRUE(viewer.Replay(0, 1'000'000'000));
  int64_t announced = -1;
  int64_t done = -1;
  ASSERT_TRUE(RunUntil([&]() {
    for (const std::string& reply : sink.replies) {
      if (reply.rfind("OK REPLAY ", 0) == 0) {
        announced = std::stoll(reply.substr(sizeof("OK REPLAY ") - 1));
      } else if (reply.rfind("INFO REPLAY DONE ", 0) == 0) {
        done = std::stoll(reply.substr(sizeof("INFO REPLAY DONE ") - 1));
      }
    }
    return done >= 0 && sink.tuples.size() >= tuples_before + 20;
  }));
  EXPECT_GE(announced, 20);
  EXPECT_EQ(done, announced);
  // The replayed stream carries the recorded names and values verbatim.
  int replayed_last = 0;
  for (size_t i = tuples_before; i < sink.tuples.size(); ++i) {
    EXPECT_EQ(sink.tuples[i].first, "fr_sig");
    if (sink.tuples[i].second == 120.0) {
      ++replayed_last;
    }
  }
  EXPECT_GE(replayed_last, 1);
  std::remove(path.c_str());
}

TEST_F(ControlChannelTest, ListStagesReturnsCatalog) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));

  ControlClient viewer(&loop_);
  Sink sink;
  sink.Wire(viewer);
  ASSERT_TRUE(viewer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  ASSERT_TRUE(viewer.RequestStages());
  ASSERT_TRUE(RunUntil([&]() {
    bool ok = false, dec = false, ewma = false, env = false, spec = false;
    for (const std::string& reply : sink.replies) {
      ok |= reply == "OK STAGES 4 ACTIVE 0";
      dec |= reply == "INFO STAGE DECIMATE <n>";
      ewma |= reply == "INFO STAGE EWMA <alpha>";
      env |= reply == "INFO STAGE ENVELOPE <window-ms>";
      spec |= reply == "INFO STAGE SPECTRUM <n> [window]";
    }
    return ok && dec && ewma && env && spec;
  }));
}

TEST_F(ControlChannelTest, RecordReplayErrShapes) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  Socket raw = Socket::Connect(server.port());
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));

  const std::string wire =
      "SUB e_*\n"
      "RECORD\n"
      "RECORD OFF\n"
      "REPLAY 5 1\n"
      "REPLAY a b\n"
      "REPLAY 0 10 -2\n"
      "REPLAY 0 10 1 junk\n"
      "REPLAY 0 10\n";
  raw.Write(wire.data(), wire.size());

  std::string received;
  ASSERT_TRUE(RunUntil([&]() {
    char buf[2048];
    IoResult r = raw.Read(buf, sizeof(buf));
    if (r.status == IoResult::Status::kOk) {
      received.append(buf, r.bytes);
    }
    return received.find("OK SUB e_*\n") != std::string::npos &&
           received.find("ERR RECORD missing-path\n") != std::string::npos &&
           received.find("ERR RECORD not-recording\n") != std::string::npos &&
           received.find("ERR REPLAY bad-window\n") != std::string::npos &&
           received.find("ERR REPLAY bad-speed\n") != std::string::npos &&
           received.find("ERR REPLAY trailing-junk\n") != std::string::npos &&
           received.find("ERR REPLAY no-recording\n") != std::string::npos;
  })) << received;
  // Nothing was recorded and the session survived every rejection.
  EXPECT_EQ(server.control_session_count(), 1u);
}

TEST_F(ControlChannelTest, RecordIsOperatorOnly) {
  // RECORD captures every tenant's signals into one server-side file, so a
  // namespaced session must not be able to start or stop it.
  StreamServerOptions opts;
  opts.auth_tokens = {{"tok-a", "tenant-a"}};
  StreamServer server(&loop_, &scope_, opts);
  ASSERT_TRUE(server.Listen(0));

  ControlClient tenant(&loop_);
  Sink sink;
  sink.Wire(tenant);
  ASSERT_TRUE(tenant.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return tenant.connected(); }));
  tenant.Auth("tok-a");
  ASSERT_TRUE(RunUntil([&]() { return tenant.stats().replies_ok >= 1; }));
  ASSERT_TRUE(tenant.Record(RecordTempPath("tenant")));
  ASSERT_TRUE(RunUntil([&]() {
    for (const std::string& reply : sink.replies) {
      if (reply == "ERR RECORD not-authorized") {
        return true;
      }
    }
    return false;
  }));
}

}  // namespace
}  // namespace gscope
