// Self-healing transport tests: deterministic fault injection, automatic
// reconnect with capped backoff, PING/PONG + TIME liveness, and graceful
// degradation (server-side tap downgrade).
//
// "Faults in Linux" (PAPERS.md): error-handling code that is never executed
// is where defects concentrate.  Every scenario here scripts the unhealthy
// path - EINTR storms, 1-byte reads, mid-frame kills, dead servers, pinned
// subscribers - and asserts the transport's invariants hold regardless:
// frames are never torn by a *drop decision*, accounting stays byte-exact,
// and recovery is bounded by the backoff cap.
//
// Registered RUN_SERIAL + LABELS stress: the injector is process-global and
// several tests saturate loopback buffers on purpose.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/scope.h"
#include "net/control_client.h"
#include "net/fault_injector.h"
#include "net/socket.h"
#include "net/stream_client.h"
#include "net/stream_server.h"
#include "runtime/event_loop.h"
#include "runtime/framed_writer.h"
#include "stress_harness.h"

namespace gscope {
namespace {

class ReliabilityTest : public ::testing::Test {
 protected:
  ReliabilityTest() : scope_(&loop_, {.name = "rel", .width = 64}) {
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

  // A loopback port with nothing listening on it (bind, read, release).
  static uint16_t DeadPort() {
    uint16_t port = 0;
    Socket listener = Socket::Listen(0, &port);
    EXPECT_TRUE(listener.valid());
    listener.Close();
    return port;
  }

  // Reconnect-ladder assertions shared by StreamClient and ControlClient.
  template <typename Client, typename ClientOptions>
  void ExpectBackoffGrowsToCapWithBoundedJitter();
  template <typename Client, typename ClientOptions>
  void ExpectMaxAttemptsSettlesInFailed();

  MainLoop loop_;  // real clock: sockets need real readiness
  Scope scope_;
};

// ---------------------------------------------------------------------------
// Fault injector mechanics
// ---------------------------------------------------------------------------

TEST_F(ReliabilityTest, InjectorScheduleIsDeterministic) {
  // Same seed + same rules + same call sequence => identical decisions,
  // including the probabilistic coin flips.
  auto make = [](uint32_t seed) {
    auto fi = std::make_unique<FaultInjector>(seed);
    FaultRule coin = FaultInjector::ErrnoStorm(FaultOp::kRead, EINTR, -1);
    coin.probability = 0.4;
    fi->AddRule(coin);
    fi->AddRule(FaultInjector::PartialWrites(3, 7));
    return fi;
  };
  auto a = make(42);
  auto b = make(42);
  for (int i = 0; i < 300; ++i) {
    FaultDecision da = a->Intercept(FaultOp::kRead, 9, 128);
    FaultDecision db = b->Intercept(FaultOp::kRead, 9, 128);
    EXPECT_EQ(da.fail, db.fail) << "call " << i;
    EXPECT_EQ(da.err, db.err) << "call " << i;
    FaultDecision wa = a->Intercept(FaultOp::kWrite, 9, 128);
    FaultDecision wb = b->Intercept(FaultOp::kWrite, 9, 128);
    EXPECT_EQ(wa.max_len, wb.max_len) << "call " << i;
  }
  EXPECT_EQ(a->stats().errnos_injected, b->stats().errnos_injected);
  EXPECT_GT(a->stats().errnos_injected, 0);
  EXPECT_EQ(a->stats().partial_writes, 7);  // count-limited rule exhausted
}

TEST_F(ReliabilityTest, InjectorSkipAndCountArmPrecisely) {
  FaultInjector fi(1);
  fi.AddRule(FaultInjector::ErrnoStorm(FaultOp::kRead, EAGAIN, /*count=*/2,
                                       /*skip=*/3));
  for (int i = 0; i < 8; ++i) {
    FaultDecision d = fi.Intercept(FaultOp::kRead, 4, 64);
    bool should_fail = i >= 3 && i < 5;  // calls 4 and 5 of 8
    EXPECT_EQ(d.fail, should_fail) << "call " << i;
  }
  EXPECT_EQ(fi.stats().errnos_injected, 2);
  EXPECT_EQ(fi.stats().intercepted_calls, 8);
}

TEST_F(ReliabilityTest, ShimClampsOnlyWhileInstalled) {
  FaultInjector fi(1);
  fi.AddRule(FaultInjector::ShortReads(1));
  size_t len = 100;
  {
    FaultInjector::ScopedInstall guard(&fi);
    EXPECT_FALSE(FaultInjector::Shim(FaultOp::kRead, 5, &len));
    EXPECT_EQ(len, 1u);
  }
  len = 100;
  EXPECT_FALSE(FaultInjector::Shim(FaultOp::kRead, 5, &len));
  EXPECT_EQ(len, 100u);  // uninstalled: untouched
}

// ---------------------------------------------------------------------------
// Syscall-level robustness (the EINTR/EAGAIN audit's regression tests)
// ---------------------------------------------------------------------------

TEST_F(ReliabilityTest, EintrStormsAreInvisibleToCallers) {
  // Signal-storm mode: every accept/read/write syscall is interrupted
  // several times in a row.  The socket layer must retry internally; no
  // caller may observe a spurious failure or a torn line.
  FaultInjector fi(7);
  fi.AddRule(FaultInjector::ErrnoStorm(FaultOp::kAccept, EINTR, 2));
  fi.AddRule(FaultInjector::ErrnoStorm(FaultOp::kRead, EINTR, 40));
  fi.AddRule(FaultInjector::ErrnoStorm(FaultOp::kWrite, EINTR, 40));
  FaultInjector::ScopedInstall guard(&fi);

  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  StreamClient client(&loop_);
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));

  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(client.Send(scope_.NowMs(), i, "storm_sig"));
  }
  ASSERT_TRUE(RunUntil([&]() { return server.stats().tuples >= 40; }));
  EXPECT_EQ(server.stats().parse_errors, 0);
  EXPECT_EQ(client.stats().tuples_dropped, 0);
  EXPECT_GT(fi.stats().errnos_injected, 0);
}

TEST_F(ReliabilityTest, OneByteReadsPreserveFraming) {
  FaultInjector fi(7);
  fi.AddRule(FaultInjector::ShortReads(1));
  FaultInjector::ScopedInstall guard(&fi);

  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  StreamClient client(&loop_);
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));

  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(client.Send(scope_.NowMs(), i, "byte_sig"));
  }
  ASSERT_TRUE(RunUntil([&]() { return server.stats().tuples >= 40; }));
  EXPECT_EQ(server.stats().parse_errors, 0);
  EXPECT_GT(fi.stats().short_reads, 0);
}

TEST_F(ReliabilityTest, PartialWritesPreserveFraming) {
  FaultInjector fi(7);
  fi.AddRule(FaultInjector::PartialWrites(3));
  FaultInjector::ScopedInstall guard(&fi);

  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  StreamClient client(&loop_);
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));

  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(client.Send(scope_.NowMs(), i, "frag_sig"));
  }
  ASSERT_TRUE(RunUntil([&]() { return server.stats().tuples >= 40; }));
  EXPECT_EQ(server.stats().parse_errors, 0);
  EXPECT_GT(fi.stats().partial_writes, 0);
}

TEST_F(ReliabilityTest, MidStreamKillTriggersReconnectAndResync) {
  // The 21st write call shuts the socket down mid-backlog.  The client must
  // notice, back off, reconnect, and keep delivering; the server's framing
  // resynchronizes (at most the killed connection's torn tail line is lost).
  FaultInjector fi(7);
  fi.AddRule(FaultInjector::KillConnection(FaultOp::kWrite, /*skip=*/20));
  FaultInjector::ScopedInstall guard(&fi);

  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  StreamClient::Options copt;
  copt.reconnect.enabled = true;
  copt.reconnect.initial_backoff_ms = 2;
  copt.reconnect.max_backoff_ms = 20;
  copt.reconnect.seed = 5;
  StreamClient client(&loop_, copt);
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return client.connected(); }));

  int value = 0;
  ASSERT_TRUE(RunUntil([&]() {
    if (client.connected()) {
      client.Send(scope_.NowMs(), value++, "kill_sig");
    }
    return client.stats().reconnects >= 1;
  }));
  EXPECT_EQ(fi.stats().kills, 1);

  // Post-recovery the stream flows again.
  int64_t before = server.stats().tuples;
  ASSERT_TRUE(RunUntil([&]() {
    if (client.connected()) {
      client.Send(scope_.NowMs(), value++, "kill_sig");
    }
    return server.stats().tuples >= before + 10;
  }));
  // A kill can tear at most the in-flight line; drop decisions never tear.
  EXPECT_LE(server.stats().parse_errors, 1);
}

// ---------------------------------------------------------------------------
// Reconnect state machine
// ---------------------------------------------------------------------------

// One backoff ladder, checked through both clients (ControlClient runs on a
// StreamClient, so the same bounds must hold for each).
template <typename Client, typename ClientOptions>
void ReliabilityTest::ExpectBackoffGrowsToCapWithBoundedJitter() {
  const uint16_t dead_port = DeadPort();
  ClientOptions copt;
  copt.reconnect.enabled = true;
  copt.reconnect.initial_backoff_ms = 5;
  copt.reconnect.max_backoff_ms = 40;
  copt.reconnect.multiplier = 2.0;
  copt.reconnect.jitter_frac = 0.25;
  copt.reconnect.seed = 3;
  Client client(&loop_, copt);

  std::vector<ConnectState> states;
  std::vector<int64_t> backoffs;
  client.SetStateCallback([&](ConnectState s) {
    states.push_back(s);
    if (s == ConnectState::kBackoff) {
      backoffs.push_back(client.last_backoff_ms());
    }
  });
  ASSERT_TRUE(client.Connect(dead_port));
  ASSERT_TRUE(RunUntil([&]() { return client.stats().connect_attempts >= 5; }, 4000));

  bool saw_connecting = false;
  bool saw_backoff = false;
  for (ConnectState s : states) {
    saw_connecting = saw_connecting || s == ConnectState::kConnecting;
    saw_backoff = saw_backoff || s == ConnectState::kBackoff;
  }
  EXPECT_TRUE(saw_connecting);
  EXPECT_TRUE(saw_backoff);
  ASSERT_GE(backoffs.size(), 4u);
  int64_t max_seen = 0;
  for (size_t i = 0; i < backoffs.size(); ++i) {
    EXPECT_GE(backoffs[i], copt.reconnect.initial_backoff_ms) << "delay " << i;
    EXPECT_LE(backoffs[i], static_cast<int64_t>(
                               copt.reconnect.max_backoff_ms *
                               (1.0 + copt.reconnect.jitter_frac)))
        << "delay " << i;
    max_seen = std::max(max_seen, backoffs[i]);
  }
  // Exponential growth reached the cap region (recovery is bounded by it).
  EXPECT_GE(max_seen, copt.reconnect.max_backoff_ms);
  EXPECT_GE(client.stats().connect_failures, 4);
  client.Close();
  EXPECT_EQ(client.state(), ConnectState::kDisconnected);
}

template <typename Client, typename ClientOptions>
void ReliabilityTest::ExpectMaxAttemptsSettlesInFailed() {
  const uint16_t dead_port = DeadPort();
  ClientOptions copt;
  copt.reconnect.enabled = true;
  copt.reconnect.initial_backoff_ms = 2;
  copt.reconnect.max_backoff_ms = 8;
  copt.reconnect.max_attempts = 3;
  Client client(&loop_, copt);
  ASSERT_TRUE(client.Connect(dead_port));
  ASSERT_TRUE(RunUntil([&]() { return client.state() == ConnectState::kFailed; }));
  EXPECT_EQ(client.stats().connect_attempts, 3);
  EXPECT_NE(client.last_error(), 0);
}

TEST_F(ReliabilityTest, BackoffGrowsToCapWithBoundedJitter) {
  ExpectBackoffGrowsToCapWithBoundedJitter<StreamClient, StreamClient::Options>();
}

TEST_F(ReliabilityTest, ControlClientBackoffGrowsToCapWithBoundedJitter) {
  ExpectBackoffGrowsToCapWithBoundedJitter<ControlClient, ControlClientOptions>();
}

TEST_F(ReliabilityTest, MaxAttemptsSettlesInFailed) {
  ExpectMaxAttemptsSettlesInFailed<StreamClient, StreamClient::Options>();
}

TEST_F(ReliabilityTest, ControlClientMaxAttemptsSettlesInFailed) {
  ExpectMaxAttemptsSettlesInFailed<ControlClient, ControlClientOptions>();
}

TEST_F(ReliabilityTest, ReconnectEstablishesOnceServerAppears) {
  const uint16_t port = DeadPort();
  StreamClient::Options copt;
  copt.reconnect.enabled = true;
  copt.reconnect.initial_backoff_ms = 2;
  copt.reconnect.max_backoff_ms = 20;
  StreamClient client(&loop_, copt);
  ASSERT_TRUE(client.Connect(port));
  ASSERT_TRUE(RunUntil([&]() { return client.stats().connect_failures >= 2; }));

  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(RunUntil([&]() { return server.Listen(port); }));
  ASSERT_TRUE(RunUntil([&]() { return client.connected(); }));
  EXPECT_GT(client.stats().connect_attempts, client.stats().connect_failures);

  // The established link carries data.
  client.Send(scope_.NowMs(), 1.0, "late_start");
  ASSERT_TRUE(RunUntil([&]() { return server.stats().tuples >= 1; }));
}

TEST_F(ReliabilityTest, ControlClientResumesSessionAcrossServerRestart) {
  auto server = std::make_unique<StreamServer>(&loop_, &scope_);
  ASSERT_TRUE(server->Listen(0));
  const uint16_t port = server->port();

  ControlClientOptions vopt;
  vopt.reconnect.enabled = true;
  vopt.reconnect.initial_backoff_ms = 2;
  vopt.reconnect.max_backoff_ms = 20;
  ControlClient viewer(&loop_, vopt);
  int64_t tuples_seen = 0;
  viewer.SetTupleCallback([&](const TupleView&) { ++tuples_seen; });
  ASSERT_TRUE(viewer.Connect(port));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  ASSERT_TRUE(viewer.Subscribe("rel_*"));
  ASSERT_TRUE(viewer.SetDelay(5));
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 2; }));
  EXPECT_EQ(viewer.stats().resumed_commands, 0);  // declared live, not replayed

  // Hard restart: every connection dies, then the port comes back.
  server->Close();
  server = std::make_unique<StreamServer>(&loop_, &scope_);
  ASSERT_TRUE(RunUntil([&]() { return server->Listen(port); }));

  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().reconnects >= 1; }));
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().resumed_commands >= 2; }));
  EXPECT_EQ(viewer.stats().resumed_commands, 2);  // SUB + DELAY, exactly once

  // The resumed subscription is live: a producer's tuple reaches the viewer.
  StreamClient producer(&loop_);
  ASSERT_TRUE(producer.Connect(port));
  ASSERT_TRUE(RunUntil([&]() {
    producer.Send(scope_.NowMs(), 4.2, "rel_cwnd");
    loop_.RunForMs(2);
    return tuples_seen >= 1;
  }));
}

TEST_F(ReliabilityTest, BinaryViewerRenegotiatesAcrossServerRestart) {
  // The wire format is per connection, not per session: a reconnect must
  // renegotiate HELLO BIN 1 on its own, BEFORE the session replay, so the
  // replayed subscription lands on an already-framed connection.
  auto server = std::make_unique<StreamServer>(&loop_, &scope_);
  ASSERT_TRUE(server->Listen(0));
  scope_.StartPolling();  // live scope clock: session scopes copy its origin,
                          // so NowMs() stamps land inside the delivery window
  const uint16_t port = server->port();

  ControlClientOptions vopt;
  vopt.reconnect.enabled = true;
  vopt.reconnect.initial_backoff_ms = 2;
  vopt.reconnect.max_backoff_ms = 20;
  vopt.wire_format = WireFormat::kBinary;
  ControlClient viewer(&loop_, vopt);
  int64_t tuples_seen = 0;
  int64_t last_time = -1;
  double last_value = 0.0;
  viewer.SetTupleCallback([&](const TupleView& t) {
    ++tuples_seen;
    last_time = t.time_ms;
    last_value = t.value;
  });
  ASSERT_TRUE(viewer.Connect(port));
  ASSERT_TRUE(RunUntil([&]() { return viewer.wire_binary(); }));
  ASSERT_TRUE(viewer.Subscribe("rel_*"));
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 1; }));
  EXPECT_EQ(viewer.stats().resumed_commands, 0);

  server->Close();
  server = std::make_unique<StreamServer>(&loop_, &scope_);
  ASSERT_TRUE(RunUntil([&]() { return server->Listen(port); }));

  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().reconnects >= 1; }));
  ASSERT_TRUE(RunUntil([&]() { return viewer.wire_binary(); }));
  EXPECT_EQ(viewer.stats().resumed_commands, 1);  // the SUB, exactly once

  // Binary tuples flow end to end post-restart: a framed producer's sample
  // crosses the server and reaches the renegotiated viewer bit-exact.  The
  // stamps must sit inside the session's delivery window (late samples are
  // dropped, future ones held), so each attempt stamps the scope's own now.
  StreamClient::Options popt;
  popt.wire_format = WireFormat::kBinary;
  StreamClient producer(&loop_, popt);
  ASSERT_TRUE(producer.Connect(port));
  ASSERT_TRUE(RunUntil([&]() { return producer.wire_binary(); }));
  std::vector<int64_t> stamps;
  ASSERT_TRUE(RunUntil([&]() {
    const int64_t stamp = static_cast<int64_t>(scope_.NowMs());
    stamps.push_back(stamp);
    producer.Send(stamp, 4.25, "rel_bin");
    loop_.RunForMs(2);
    return tuples_seen >= 1;
  }));
  EXPECT_NE(std::find(stamps.begin(), stamps.end(), last_time), stamps.end())
      << "echoed time " << last_time << " was never sent";
  EXPECT_EQ(last_value, 4.25);
  EXPECT_GT(server->stats().frames_rx, 0);
  EXPECT_EQ(server->stats().frames_crc_errors, 0);
}

TEST_F(ReliabilityTest, UnsupportedHelloStaysTextAndKeepsParsing) {
  // Negotiation failure is not an error state: the server answers ERR and
  // the connection continues as plain text, byte-identical to a client that
  // never tried.
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  Socket raw = Socket::Connect(server.port());
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 1; }));

  const std::string hello = "HELLO BIN 99\n";
  ASSERT_TRUE(RunUntil([&]() {
    IoResult r = raw.Write(hello.data(), hello.size());
    return r.ok() && r.bytes == hello.size();
  }));
  std::string reply;
  char buf[256];
  ASSERT_TRUE(RunUntil([&]() {
    IoResult r = raw.Read(buf, sizeof(buf));
    if (r.ok()) {
      reply.append(buf, r.bytes);
    }
    return reply.find('\n') != std::string::npos;
  }));
  EXPECT_NE(reply.find("ERR HELLO"), std::string::npos) << reply;

  const std::string line = "123 4.5 neg_sig\n";
  ASSERT_TRUE(RunUntil([&]() {
    IoResult r = raw.Write(line.data(), line.size());
    return r.ok() && r.bytes == line.size();
  }));
  ASSERT_TRUE(RunUntil([&]() { return server.stats().tuples >= 1; }));
  EXPECT_EQ(server.stats().parse_errors, 0);
  EXPECT_EQ(server.stats().frames_rx, 0);  // never left text
}

// ---------------------------------------------------------------------------
// Liveness: PING/PONG, idle timeouts, TIME sync
// ---------------------------------------------------------------------------

TEST_F(ReliabilityTest, PingPongRoundTripsAndMeasuresRtt) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  ControlClientOptions vopt;
  vopt.ping_interval_ms = 5;
  ControlClient viewer(&loop_, vopt);
  ASSERT_TRUE(viewer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().pongs_received >= 2; }));
  EXPECT_GE(viewer.stats().pings_sent, viewer.stats().pongs_received);
  EXPECT_GE(server.stats().pings_received, 2);
  EXPECT_GE(viewer.last_rtt_ms(), 0);
  EXPECT_EQ(viewer.stats().liveness_timeouts, 0);
}

TEST_F(ReliabilityTest, IdleTimeoutDeclaresSilentLinkDead) {
  // An accepting-but-mute peer: connections succeed, nothing ever answers.
  uint16_t port = 0;
  Socket listener = Socket::Listen(0, &port);
  ASSERT_TRUE(listener.valid());
  std::vector<Socket> accepted;
  SourceId watch =
      loop_.AddIoWatch(listener.fd(), IoCondition::kIn, [&](int, IoCondition) {
        Socket s = listener.Accept();
        if (s.valid()) {
          accepted.push_back(std::move(s));
        }
        return true;
      });

  ControlClientOptions vopt;
  vopt.ping_interval_ms = 10;
  vopt.idle_timeout_ms = 40;
  ControlClient viewer(&loop_, vopt);
  ASSERT_TRUE(viewer.Connect(port));
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().liveness_timeouts >= 1; }));
  EXPECT_EQ(viewer.state(), ConnectState::kDisconnected);  // no reconnect opt-in
  loop_.Remove(watch);
}

TEST_F(ReliabilityTest, ServerDropsIdleClientButPingersSurvive) {
  StreamServerOptions sopt;
  sopt.idle_timeout_ms = 30;
  StreamServer server(&loop_, &scope_, sopt);
  ASSERT_TRUE(server.Listen(0));

  // A pinging viewer and a mute raw connection.
  ControlClientOptions vopt;
  vopt.ping_interval_ms = 5;
  ControlClient viewer(&loop_, vopt);
  ASSERT_TRUE(viewer.Connect(server.port()));
  Socket mute = Socket::Connect(server.port());
  ASSERT_TRUE(mute.valid());
  ASSERT_TRUE(RunUntil([&]() { return server.client_count() == 2; }));

  ASSERT_TRUE(RunUntil([&]() { return server.stats().clients_idle_dropped >= 1; }));
  loop_.RunForMs(60);  // several more sweeps
  EXPECT_EQ(server.stats().clients_idle_dropped, 1);  // only the mute one
  EXPECT_EQ(server.client_count(), 1u);
  EXPECT_TRUE(viewer.connected());
}

TEST_F(ReliabilityTest, TimeSyncMapsLocalClockOntoServerScope) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();  // anchor the display timebase the session adopts
  ControlClientOptions vopt;
  vopt.sync_time_on_connect = true;
  ControlClient viewer(&loop_, vopt);
  ASSERT_TRUE(viewer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return viewer.has_time_offset(); }));
  EXPECT_GE(viewer.stats().time_syncs, 1);
  EXPECT_GE(server.stats().time_requests, 1);
  // Same host, same steady clock: the midpoint estimate lands within a
  // scheduling-noise bound of the server scope's own time.
  int64_t diff = viewer.ServerNowMs() - static_cast<int64_t>(scope_.NowMs());
  EXPECT_LE(std::abs(diff), 100) << "offset " << viewer.time_offset_ms();
}

TEST_F(ReliabilityTest, StatsVerbReportsRobustnessCounters) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  ControlClient viewer(&loop_);
  std::string stats_line;
  viewer.SetReplyCallback([&](std::string_view line) {
    if (line.find("STATS") != std::string_view::npos) {
      stats_line = std::string(line);
    }
  });
  ASSERT_TRUE(viewer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return viewer.connected(); }));
  ASSERT_TRUE(viewer.Ping());
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().pongs_received >= 1; }));
  ASSERT_TRUE(viewer.RequestStats());
  ASSERT_TRUE(RunUntil([&]() { return !stats_line.empty(); }));
  EXPECT_NE(stats_line.find("pings_received 1"), std::string::npos) << stats_line;
  EXPECT_NE(stats_line.find("taps_downgraded 0"), std::string::npos) << stats_line;
  EXPECT_NE(stats_line.find("policy_switches 0"), std::string::npos) << stats_line;
  // The wire-format keys are append-only additions to the same line; a text
  // viewer reports wire_format 0.
  EXPECT_NE(stats_line.find("frames_rx 0"), std::string::npos) << stats_line;
  EXPECT_NE(stats_line.find("frames_crc_errors 0"), std::string::npos) << stats_line;
  EXPECT_NE(stats_line.find("dict_entries 0"), std::string::npos) << stats_line;
  EXPECT_NE(stats_line.find("wire_format 0"), std::string::npos) << stats_line;
}

TEST_F(ReliabilityTest, StatsVerbReportsBinaryWireCounters) {
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  ControlClientOptions vopt;
  vopt.wire_format = WireFormat::kBinary;
  vopt.frame_samples = 4;
  ControlClient viewer(&loop_, vopt);
  std::string stats_line;
  viewer.SetReplyCallback([&](std::string_view line) {
    if (line.find("STATS") != std::string_view::npos) {
      stats_line = std::string(line);
    }
  });
  ASSERT_TRUE(viewer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return viewer.wire_binary(); }));
  // Push a few tuples upstream so sample frames (and a dictionary binding)
  // actually crossed the wire before the scrape.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(viewer.Send(scope_.NowMs(), i, "wire_sig"));
  }
  ASSERT_TRUE(RunUntil([&]() { return server.stats().tuples >= 8; }));
  ASSERT_TRUE(viewer.RequestStats());
  ASSERT_TRUE(RunUntil([&]() { return !stats_line.empty(); }));
  EXPECT_EQ(stats_line.find("frames_rx 0"), std::string::npos) << stats_line;
  EXPECT_NE(stats_line.find("frames_crc_errors 0"), std::string::npos) << stats_line;
  EXPECT_NE(stats_line.find("dict_entries 1"), std::string::npos) << stats_line;
  EXPECT_NE(stats_line.find("wire_format 1"), std::string::npos) << stats_line;
  EXPECT_EQ(server.stats().parse_errors, 0);
}

TEST_F(ReliabilityTest, TimeSyncComposesWithBinaryWire) {
  // Two independent time mechanisms must not interfere: frame timestamps
  // (i64 base + i32 deltas) reconstruct the PRODUCER's stamps bit-exact on
  // the server, while the viewer's TIME sync separately maps its local clock
  // onto the server scope.  The producer backdates every stamp by a fixed
  // lag - different from every live clock in the rig, but inside the
  // viewer's widened delay window so the echo actually delivers.  (Decades-
  // scale skew is covered by the stress harness's clock-skew run, which
  // observes ingest server-side with no delivery window in the way.)
  StreamServer server(&loop_, &scope_);
  ASSERT_TRUE(server.Listen(0));
  scope_.StartPolling();
  loop_.RunForMs(150);  // move scope time off zero so backdated stamps are positive

  ControlClientOptions vopt;
  vopt.sync_time_on_connect = true;
  vopt.wire_format = WireFormat::kBinary;
  ControlClient viewer(&loop_, vopt);
  std::vector<int64_t> echoed_times;
  viewer.SetTupleCallback([&](const TupleView& t) { echoed_times.push_back(t.time_ms); });
  ASSERT_TRUE(viewer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return viewer.wire_binary() && viewer.has_time_offset(); }));
  ASSERT_TRUE(viewer.Subscribe("tsync_*"));
  ASSERT_TRUE(viewer.SetDelay(2000));
  ASSERT_TRUE(RunUntil([&]() { return viewer.stats().replies_ok >= 2; }));

  StreamClient::Options popt;
  popt.wire_format = WireFormat::kBinary;
  popt.frame_samples = 4;
  StreamClient producer(&loop_, popt);
  ASSERT_TRUE(producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return producer.wire_binary(); }));

  const int64_t kLagMs = 100;  // the producer's clock runs 100 ms behind
  std::vector<int64_t> sent_stamps;
  ASSERT_TRUE(RunUntil([&]() {
    const int64_t stamp = static_cast<int64_t>(scope_.NowMs()) - kLagMs;
    sent_stamps.push_back(stamp);
    producer.Send(stamp, static_cast<double>(sent_stamps.size()), "tsync_sig");
    loop_.RunForMs(2);
    return static_cast<int64_t>(echoed_times.size()) >= 8;
  }));
  // Every echoed timestamp is one the producer actually stamped: the frame's
  // base + delta reconstruction introduced zero error.
  for (size_t i = 0; i < echoed_times.size(); ++i) {
    EXPECT_NE(std::find(sent_stamps.begin(), sent_stamps.end(), echoed_times[i]),
              sent_stamps.end())
        << "echo " << i << " time " << echoed_times[i];
  }
  // The TIME offset still maps the viewer's local clock onto the server
  // scope; the producer's skewed stamps never contaminated it.
  int64_t diff = viewer.ServerNowMs() - static_cast<int64_t>(scope_.NowMs());
  EXPECT_LE(std::abs(diff), 100) << "offset " << viewer.time_offset_ms();
  EXPECT_EQ(server.stats().frames_crc_errors, 0);
  EXPECT_EQ(server.stats().parse_errors, 0);
}

// ---------------------------------------------------------------------------
// Graceful degradation: server-side tap downgrade
// ---------------------------------------------------------------------------

TEST_F(ReliabilityTest, ServerDegradesPinnedSubscriberThenRestores) {
  StreamServerOptions sopt;
  sopt.control_poll_period_ms = 1;
  sopt.control_max_buffer = 16 << 10;
  sopt.control_sndbuf_bytes = 4096;
  sopt.degrade_stalled_ms = 20;
  StreamServer server(&loop_, &scope_, sopt);
  ASSERT_TRUE(server.Listen(0));
  // Anchor scope time BEFORE the session exists: the session scope adopts
  // this timebase, so producer stamps are judged on a live, shared axis.
  scope_.StartPolling();

  // A raw subscriber that subscribes and then never reads: its echo backlog
  // pins against the cap.
  Socket sub = Socket::Connect(server.port());
  ASSERT_TRUE(sub.valid());
  sub.SetRecvBufferBytes(1024);
  const std::string subscribe = "SUB load*\n";
  ASSERT_TRUE(RunUntil([&]() {
    IoResult r = sub.Write(subscribe.data(), subscribe.size());
    return r.ok() && r.bytes == subscribe.size();
  }));
  ASSERT_TRUE(RunUntil([&]() { return server.control_session_count() == 1; }));

  // Flood: fat frames through one signal so the echo outruns the mute peer.
  StreamClient::Options popt;
  popt.max_buffer = 32 << 10;
  StreamClient producer(&loop_, popt);
  ASSERT_TRUE(producer.Connect(server.port()));
  ASSERT_TRUE(RunUntil([&]() { return producer.connected(); }));
  const std::string fat_name = "load_" + std::string(180, 'x');
  ASSERT_TRUE(RunUntil(
      [&]() {
        for (int i = 0; i < 50; ++i) {
          producer.Send(scope_.NowMs(), i, fat_name);
        }
        return server.stats().taps_downgraded >= 1;
      },
      5000));
  EXPECT_GE(server.stats().echo_dropped + server.stats().echo_evicted, 1);

  // Recovery: the subscriber wakes up and drains; after a calm window the
  // per-sample tap comes back, announced in-band.
  std::string drained;
  char buf[4096];
  ASSERT_TRUE(RunUntil(
      [&]() {
        while (true) {
          IoResult r = sub.Read(buf, sizeof(buf));
          if (!r.ok()) {
            break;
          }
          drained.append(buf, r.bytes);
        }
        return server.stats().taps_restored >= 1;
      },
      5000));
  ASSERT_TRUE(RunUntil(
      [&]() {
        while (true) {
          IoResult r = sub.Read(buf, sizeof(buf));
          if (!r.ok()) {
            break;
          }
          drained.append(buf, r.bytes);
        }
        return drained.find("NOTICE RESTORE every-sample") != std::string::npos;
      },
      3000))
      << "restore NOTICE not observed";
  // The degrade NOTICE is best-effort (it rides the pinned writer): counters
  // are the authoritative record.
  EXPECT_EQ(server.stats().taps_downgraded, 1);
  EXPECT_EQ(server.stats().taps_restored, 1);
}

// ---------------------------------------------------------------------------
// The acceptance matrix: fault schedule x overflow policy x flap schedule
// ---------------------------------------------------------------------------

TEST(ReliabilityMatrixTest, FaultMatrixHoldsDeliveryInvariants) {
  using stress::Options;
  using stress::Result;
  using stress::ScheduleStep;

  struct Case {
    const char* name;
    OverflowPolicy policy;
    std::vector<FaultRule> faults;
    bool restart;
    int viewers;
    Options::Wire wire = Options::Wire::kText;
  };
  FaultRule eintr_read = FaultInjector::ErrnoStorm(FaultOp::kRead, EINTR, -1);
  eintr_read.probability = 0.2;
  FaultRule eintr_write = FaultInjector::ErrnoStorm(FaultOp::kWrite, EINTR, -1);
  eintr_write.probability = 0.2;
  const std::vector<Case> cases = {
      {"baseline_restart", OverflowPolicy::kDropNewest, {}, true, 1},
      {"short_reads", OverflowPolicy::kDropOldest,
       {FaultInjector::ShortReads(2)}, false, 0},
      {"partial_writes", OverflowPolicy::kDropNewest,
       {FaultInjector::PartialWrites(3)}, false, 0},
      {"eintr_storm", OverflowPolicy::kDropOldest,
       {eintr_read, eintr_write}, false, 0},
      {"block_chunked", OverflowPolicy::kBlockWithDeadline,
       {FaultInjector::ShortReads(1), FaultInjector::PartialWrites(2)}, false, 0},
      {"kill_restart", OverflowPolicy::kDropNewest,
       {FaultInjector::KillConnection(FaultOp::kWrite, /*skip=*/50)}, true, 1},
      // The binary-wire column: the same fault schedules against negotiated
      // framed connections (docs/protocol.md "Wire format v2").  Length
      // prefixes + CRCs must make every invariant hold byte-for-byte, and a
      // loss of sync is only ever caused by a mid-frame teardown.
      {"bin_short_reads", OverflowPolicy::kDropOldest,
       {FaultInjector::ShortReads(2)}, false, 0, Options::Wire::kBinary},
      {"bin_partial_writes", OverflowPolicy::kDropNewest,
       {FaultInjector::PartialWrites(3)}, false, 0, Options::Wire::kBinary},
      {"bin_eintr_storm", OverflowPolicy::kDropOldest,
       {eintr_read, eintr_write}, false, 0, Options::Wire::kBinary},
      {"mixed_kill_restart", OverflowPolicy::kDropNewest,
       {FaultInjector::KillConnection(FaultOp::kWrite, /*skip=*/50)}, true, 1,
       Options::Wire::kMixed},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Options opt;
    opt.producers = 2;
    opt.tuples_per_producer = 300;
    opt.burst = 32;
    opt.payload_pad = 8;
    opt.policy = c.policy;
    opt.block_deadline_ms = 2;
    opt.seed = 42;
    opt.fault_seed = 7;
    opt.faults = c.faults;
    opt.auto_reconnect = true;
    opt.viewers = c.viewers;
    opt.viewer_ping_interval_ms = c.viewers > 0 ? 5 : 0;
    opt.wire = c.wire;
    if (c.restart) {
      opt.schedule = {{ScheduleStep::Kind::kDrain, 10},
                      {ScheduleStep::Kind::kRestart, 8},
                      {ScheduleStep::Kind::kDrain, 10}};
    } else {
      opt.schedule = {{ScheduleStep::Kind::kDrain, 10},
                      {ScheduleStep::Kind::kPause, 5}};
    }

    Result r = stress::RunStress(opt);
    ASSERT_TRUE(r.ran) << r.setup_error;
    if (r.fault_stats.kills == 0) {
      EXPECT_EQ(r.CheckNoTornFrames(), "");
    } else {
      // A kill may tear the in-flight line of each killed connection; drop
      // decisions themselves never tear.
      EXPECT_LE(r.server_parse_errors, r.fault_stats.kills);
    }
    EXPECT_EQ(r.CheckSendAccounting(), "");
    EXPECT_EQ(r.CheckSequencesMonotone(), "");
    EXPECT_EQ(r.CheckDeliveryExact(), "");
    // Binary framing never loses sync except to a mid-frame teardown: the
    // CRC + length prefix contain each kill to exactly one resync event.
    EXPECT_LE(r.server_frames_crc_errors, r.fault_stats.kills);
    if (c.wire != Options::Wire::kText && r.fault_stats.kills == 0) {
      EXPECT_EQ(r.server_frames_crc_errors, 0);
      EXPECT_GT(r.server_frames_rx, 0);
    }
    if (c.policy == OverflowPolicy::kBlockWithDeadline) {
      EXPECT_EQ(r.CheckBlockDeadline(opt.block_deadline_ms), "");
    }
    if (!c.faults.empty() && r.fault_stats.kills == 0) {
      EXPECT_GT(r.fault_stats.faults_injected, 0);
    }
    for (const auto& p : r.producers) {
      EXPECT_TRUE(p.connected_ok);
    }
    for (const auto& v : r.viewers) {
      EXPECT_TRUE(v.connected_ok);
      // Subscribe precedes Connect: the pattern is replayed on EVERY
      // establishment, so resumption is exact, not best-effort.
      EXPECT_EQ(v.resumed_commands, v.reconnects + 1);
      EXPECT_EQ(v.liveness_timeouts, 0);
    }
    if (c.restart) {
      EXPECT_GE(r.restarts, 1);
    }
  }
}

// The fault x policy matrix again, with the server's accepted connections
// sharded across 4 per-core loops (StreamServerOptions::loops): every
// delivery invariant must hold with producers spread over worker threads,
// faults included.  Pause steps only idle the primary loop (worker shards
// keep draining), so overload is lighter here - the point is correctness
// of the cross-loop paths, not backpressure depth.  check.sh runs this
// under TSan.
TEST(ReliabilityMatrixTest, ShardedLoopsFaultMatrixHoldsInvariants) {
  using stress::Options;
  using stress::Result;
  using stress::ScheduleStep;

  struct Case {
    const char* name;
    OverflowPolicy policy;
    std::vector<FaultRule> faults;
    bool restart;
    int viewers;
    Options::Wire wire = Options::Wire::kText;
  };
  const std::vector<Case> cases = {
      {"sharded_baseline", OverflowPolicy::kDropNewest, {}, false, 2},
      {"sharded_short_reads", OverflowPolicy::kDropOldest,
       {FaultInjector::ShortReads(2)}, false, 0},
      {"sharded_partial_writes", OverflowPolicy::kDropNewest,
       {FaultInjector::PartialWrites(3)}, false, 0},
      {"sharded_bin_mixed", OverflowPolicy::kDropOldest,
       {FaultInjector::ShortReads(2)}, false, 1, Options::Wire::kMixed},
      {"sharded_restart", OverflowPolicy::kDropNewest, {}, true, 1},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Options opt;
    opt.producers = 4;
    opt.tuples_per_producer = 300;
    opt.burst = 32;
    opt.payload_pad = 8;
    opt.policy = c.policy;
    opt.block_deadline_ms = 2;
    opt.seed = 42;
    opt.fault_seed = 7;
    opt.faults = c.faults;
    opt.auto_reconnect = true;
    opt.viewers = c.viewers;
    opt.wire = c.wire;
    opt.server_loops = 4;
    if (c.restart) {
      opt.schedule = {{ScheduleStep::Kind::kDrain, 10},
                      {ScheduleStep::Kind::kRestart, 8},
                      {ScheduleStep::Kind::kDrain, 10}};
    } else {
      opt.schedule = {{ScheduleStep::Kind::kDrain, 10},
                      {ScheduleStep::Kind::kPause, 5}};
    }

    Result r = stress::RunStress(opt);
    ASSERT_TRUE(r.ran) << r.setup_error;
    EXPECT_EQ(r.CheckNoTornFrames(), "");
    EXPECT_EQ(r.CheckSendAccounting(), "");
    EXPECT_EQ(r.CheckSequencesMonotone(), "");
    if (!c.restart) {
      EXPECT_EQ(r.CheckDeliveryExact(), "");
    }
    EXPECT_EQ(r.server_frames_crc_errors, 0);
    if (!c.faults.empty()) {
      EXPECT_GT(r.fault_stats.faults_injected, 0);
    }
    for (const auto& p : r.producers) {
      EXPECT_TRUE(p.connected_ok);
    }
    for (const auto& v : r.viewers) {
      EXPECT_TRUE(v.connected_ok);
      EXPECT_EQ(v.resumed_commands, v.reconnects + 1);
    }
    if (c.restart) {
      EXPECT_GE(r.restarts, 1);
    }
  }
}

// Longer reconnect soak for check.sh (GSCOPE_STRESS_SOAK=1); bounded < 10s.
TEST(ReliabilityMatrixTest, ReconnectSoak) {
  if (std::getenv("GSCOPE_STRESS_SOAK") == nullptr) {
    GTEST_SKIP() << "set GSCOPE_STRESS_SOAK=1 to run";
  }
  using stress::Options;
  using stress::ScheduleStep;
  Options opt;
  opt.producers = 4;
  opt.tuples_per_producer = 4000;
  opt.payload_pad = 16;
  opt.policy = OverflowPolicy::kDropOldest;
  opt.seed = 9;
  opt.auto_reconnect = true;
  opt.viewers = 2;
  opt.viewer_ping_interval_ms = 10;
  opt.faults = {FaultInjector::ShortReads(4)};
  opt.schedule = {{ScheduleStep::Kind::kDrain, 20},
                  {ScheduleStep::Kind::kRestart, 10},
                  {ScheduleStep::Kind::kDrain, 20},
                  {ScheduleStep::Kind::kPause, 10}};
  stress::Result r = stress::RunStress(opt);
  ASSERT_TRUE(r.ran) << r.setup_error;
  EXPECT_EQ(r.CheckNoTornFrames(), "");
  EXPECT_EQ(r.CheckSendAccounting(), "");
  EXPECT_EQ(r.CheckSequencesMonotone(), "");
  EXPECT_GE(r.restarts, 1);
  int64_t producer_reconnects = 0;
  for (const auto& p : r.producers) {
    producer_reconnects += p.reconnects;
  }
  EXPECT_GE(producer_reconnects, 1);
  for (const auto& v : r.viewers) {
    EXPECT_TRUE(v.connected_ok);
    EXPECT_EQ(v.resumed_commands, v.reconnects + 1);
  }
}

}  // namespace
}  // namespace gscope
