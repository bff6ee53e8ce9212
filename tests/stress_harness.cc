#include "stress_harness.h"

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <random>
#include <thread>

#include "bindings/gscope_c.h"
#include "core/scope.h"
#include "net/control_client.h"
#include "net/stream_client.h"
#include "net/stream_server.h"
#include "runtime/clock.h"
#include "runtime/event_loop.h"

namespace gscope {
namespace stress {
namespace {

Nanos RealNowNs() { return SteadyClock::Instance()->NowNs(); }

std::string ProducerName(const Options& opt, int idx) {
  std::string name = "p" + std::to_string(idx);
  if (opt.payload_pad > 0) {
    name.push_back('_');
    name.append(static_cast<size_t>(opt.payload_pad), 'x');
  }
  return name;
}

// -- in-process producers (StreamClient on its own loop thread) --------------

void ProducerThread(const Options& opt, int idx, uint16_t port, SimClock* sim,
                    ProducerReport* out, std::atomic<int>* running) {
  MainLoop loop;
  StreamClient::Options copt;
  copt.max_buffer = opt.client_buffer;
  copt.overflow_policy = opt.policy;
  copt.block_deadline_ms = opt.block_deadline_ms;
  copt.sndbuf_bytes = opt.sndbuf_bytes;
  if (opt.auto_reconnect) {
    copt.reconnect.enabled = true;
    copt.reconnect.initial_backoff_ms = 2;
    copt.reconnect.max_backoff_ms = 50;
    copt.reconnect.seed = opt.seed * 7919u + static_cast<uint32_t>(idx);
  }
  bool binary = opt.wire == Options::Wire::kBinary ||
                (opt.wire == Options::Wire::kMixed && idx % 2 == 1);
  if (binary) {
    copt.wire_format = WireFormat::kBinary;
    // Small frames: the bounded backlogs in these rigs are a few KiB, so a
    // 128-sample frame would be most of the cap and the overflow policies
    // would never see intermediate states.
    copt.frame_samples = 16;
  }
  out->wire_binary = binary;
  StreamClient client(&loop, copt);
  std::string name = ProducerName(opt, idx);
  std::mt19937 rng(opt.seed * 1000003u + static_cast<uint32_t>(idx));

  auto connect_once = [&]() -> bool {
    if (!client.Connect(port)) {
      return false;
    }
    Nanos deadline = RealNowNs() + MillisToNanos(2000);
    while (client.state() == ConnectState::kConnecting && RealNowNs() < deadline) {
      loop.RunForMs(1);
    }
    return client.connected();
  };
  // The server may be mid-restart: keep retrying with a small real backoff.
  auto connect_retry = [&]() -> bool {
    for (int attempt = 0; attempt < 400; ++attempt) {
      if (connect_once()) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  };

  // With auto_reconnect the client's own state machine owns retries: one
  // Connect() call, then drive the loop until it lands (the backoff caps at
  // 50 ms, so a mid-restart server is found quickly).
  auto wait_established = [&]() -> bool {
    Nanos deadline = RealNowNs() + MillisToNanos(2000);
    while (!client.connected() && RealNowNs() < deadline) {
      loop.RunForMs(1);
    }
    return client.connected();
  };
  bool up = opt.auto_reconnect ? (client.Connect(port), wait_established())
                               : connect_retry();

  if (up) {
    out->connected_ok = true;
    int64_t quota = opt.tuples_per_producer;
    int64_t seq = 0;
    Nanos down_since = -1;
    while (seq < quota) {
      if (!client.connected()) {
        if (opt.auto_reconnect) {
          // Production pauses while the link is down; the armed backoff
          // timer reconnects without any help from this loop.  The real-time
          // guard only trips if the server never comes back.
          if (down_since < 0) {
            down_since = RealNowNs();
          } else if (RealNowNs() - down_since > MillisToNanos(10000)) {
            break;
          }
          loop.RunForMs(1);
          continue;
        }
        out->reconnects += 1;
        if (!connect_retry()) {
          break;
        }
      }
      down_since = -1;
      int burst = 1 + static_cast<int>(rng() % static_cast<uint32_t>(opt.burst));
      for (int i = 0; i < burst && seq < quota; ++i) {
        out->attempted += 1;
        int64_t stamp =
            sim->NowNs() / kNanosPerMilli + static_cast<int64_t>(idx) * opt.producer_skew_ms;
        if (client.Send(stamp, static_cast<double>(seq), name)) {
          out->last_sent_value = seq;
        }
        // A sequence number is attempted exactly once: a value refused here
        // is gone (never resent), so the delivered stream can contain no
        // duplicates whatever the interleaving.
        ++seq;
        if (!client.connected()) {
          break;  // hard error surfaced mid-send; reconnect next turn
        }
      }
      loop.RunForMs(1);  // give the backlog a drain turn
    }
    // Final drain: the schedule keeps cycling (and so keeps draining) while
    // any producer is still running.
    Nanos deadline = RealNowNs() + MillisToNanos(opt.settle_ms);
    while (client.connected() && client.pending_bytes() > 0 && RealNowNs() < deadline) {
      loop.RunForMs(1);
    }
  }
  client.Close();  // folds any leftover backlog into tuples_abandoned
  const StreamClient::Stats& s = client.stats();
  out->sent = s.tuples_sent;
  out->dropped = s.tuples_dropped;
  out->evicted = s.tuples_evicted;
  out->abandoned = s.tuples_abandoned;
  out->bytes_sent = s.bytes_sent;
  out->bytes_dropped = s.bytes_dropped;
  out->block_time_ns = s.block_time_ns;
  out->high_water = s.backlog_high_water;
  if (opt.auto_reconnect) {
    out->reconnects = static_cast<int>(s.reconnects);
  }
  running->fetch_sub(1, std::memory_order_release);
}

// -- flapping subscribers (ControlClient on its own loop thread) -------------

void ViewerThread(const Options& opt, int idx, uint16_t port, ViewerReport* out,
                  std::atomic<bool>* stop) {
  MainLoop loop;
  ControlClientOptions copt;
  copt.reconnect.enabled = true;
  copt.reconnect.initial_backoff_ms = 2;
  copt.reconnect.max_backoff_ms = 50;
  copt.reconnect.seed = opt.seed * 104729u + static_cast<uint32_t>(idx);
  copt.ping_interval_ms = opt.viewer_ping_interval_ms;
  copt.idle_timeout_ms = opt.viewer_idle_timeout_ms;
  ControlClient viewer(&loop, copt);
  viewer.SetTupleCallback([out](const TupleView&) { out->tuples_received += 1; });
  // Declared before connecting, so the pattern rides the resumption replay
  // on every establishment (resumed_commands == establishments).
  viewer.Subscribe("p*");
  viewer.Connect(port);
  while (!stop->load(std::memory_order_acquire)) {
    loop.RunForMs(1);
    out->connected_ok |= viewer.connected();
  }
  viewer.Close();
  const ControlClient::Stats& s = viewer.stats();
  out->reconnects = s.reconnects;
  out->resumed_commands = s.resumed_commands;
  out->notices = s.notices;
  out->liveness_timeouts = s.liveness_timeouts;
  out->pings_sent = s.pings_sent;
  out->pongs_received = s.pongs_received;
}

// -- forked producers (C bindings only) --------------------------------------

void RunChildProducer(const Options& opt, int idx, uint16_t port, int report_fd) {
  ProducerReport report;
  gscope_ctx* ctx = gscope_create("stress-producer", 32, 16, /*use_sim_clock=*/1);
  if (ctx != nullptr &&
      gscope_set_queue_policy(ctx, static_cast<int>(opt.policy), opt.block_deadline_ms) == 0 &&
      gscope_set_queue_limit(ctx, static_cast<int64_t>(opt.client_buffer),
                             opt.sndbuf_bytes) == 0) {
    std::string name = ProducerName(opt, idx);
    bool connected = false;
    for (int attempt = 0; attempt < 400 && !connected; ++attempt) {
      if (gscope_connect(ctx, port) == 0) {
        for (int i = 0; i < 2000 && gscope_connected(ctx) == 0; ++i) {
          gscope_run_for_ms(ctx, 1);
        }
        connected = gscope_connected(ctx) != 0;
      }
      if (!connected) {
        usleep(5000);
      }
    }
    report.connected_ok = connected;
    if (connected) {
      std::mt19937 rng(opt.seed * 1000003u + static_cast<uint32_t>(idx));
      int64_t quota = opt.tuples_per_producer;
      int64_t seq = 0;
      while (seq < quota) {
        int burst = 1 + static_cast<int>(rng() % static_cast<uint32_t>(opt.burst));
        for (int i = 0; i < burst && seq < quota; ++i) {
          report.attempted += 1;
          if (gscope_send(ctx, seq, static_cast<double>(seq), name.c_str()) == 1) {
            report.last_sent_value = seq;
          }
          ++seq;
        }
        gscope_run_for_ms(ctx, 1);
      }
      gscope_queue_stats st{};
      Nanos deadline = RealNowNs() + MillisToNanos(opt.settle_ms);
      while (RealNowNs() < deadline && gscope_connected(ctx) != 0) {
        gscope_client_stats(ctx, &st);
        if (st.pending_bytes == 0) {
          break;
        }
        gscope_run_for_ms(ctx, 1);
      }
    }
    gscope_disconnect(ctx);  // folds any leftover backlog into frames_abandoned
    gscope_queue_stats st{};
    if (gscope_client_stats(ctx, &st) == 0) {
      report.sent = st.tuples_pushed;
      report.dropped = st.frames_dropped;
      report.evicted = st.frames_evicted;
      report.abandoned = st.frames_abandoned;
      report.bytes_sent = st.bytes_sent;
      report.bytes_dropped = st.bytes_dropped;
      report.block_time_ns = st.block_time_ns;
      report.high_water = st.backlog_high_water;
    }
    gscope_destroy(ctx);
  }
  // One small write: atomic for any pipe, so the parent reads all or nothing.
  static_assert(sizeof(ProducerReport) < 512, "report must fit a pipe write");
  ssize_t n = write(report_fd, &report, sizeof(report));
  (void)n;
  close(report_fd);
}

}  // namespace

int64_t Result::TotalAttempted() const {
  int64_t total = 0;
  for (const ProducerReport& p : producers) {
    total += p.attempted;
  }
  return total;
}

int64_t Result::TotalDelivered() const {
  int64_t total = 0;
  for (const std::vector<int64_t>& values : received) {
    total += static_cast<int64_t>(values.size());
  }
  return total;
}

std::string Result::CheckNoTornFrames() const {
  if (server_parse_errors != 0) {
    return "server counted " + std::to_string(server_parse_errors) +
           " parse errors: a drop decision tore a frame";
  }
  return "";
}

std::string Result::CheckSendAccounting() const {
  for (size_t i = 0; i < producers.size(); ++i) {
    const ProducerReport& p = producers[i];
    if (p.attempted != p.sent + p.dropped) {
      return "producer " + std::to_string(i) + ": attempted " + std::to_string(p.attempted) +
             " != sent " + std::to_string(p.sent) + " + dropped " + std::to_string(p.dropped);
    }
  }
  return "";
}

std::string Result::CheckDeliveryExact() const {
  if (restarts > 0) {
    return "";  // a torn-down connection loses kernel-buffered bytes
  }
  if (fault_stats.kills > 0) {
    return "";  // a mid-frame shutdown can discard kernel-buffered bytes
  }
  int64_t client_bytes = 0;
  for (size_t i = 0; i < producers.size(); ++i) {
    const ProducerReport& p = producers[i];
    int64_t expected = p.sent - p.evicted - p.abandoned;
    int64_t delivered = static_cast<int64_t>(received[i].size());
    if (delivered != expected) {
      return "producer " + std::to_string(i) + ": delivered " + std::to_string(delivered) +
             " != sent " + std::to_string(p.sent) + " - evicted " + std::to_string(p.evicted) +
             " - abandoned " + std::to_string(p.abandoned);
    }
    client_bytes += p.bytes_sent;
  }
  // Viewer connections add control-verb bytes to the server's read count,
  // so the wire-level identity only binds producer-only rigs.
  if (viewers.empty() && client_bytes != server_bytes) {
    return "bytes written by clients (" + std::to_string(client_bytes) +
           ") != bytes read by server (" + std::to_string(server_bytes) + ")";
  }
  return "";
}

std::string Result::CheckSequencesMonotone() const {
  for (size_t i = 0; i < received.size(); ++i) {
    for (size_t j = 1; j < received[i].size(); ++j) {
      if (received[i][j] <= received[i][j - 1]) {
        return "producer " + std::to_string(i) + ": value " + std::to_string(received[i][j]) +
               " at index " + std::to_string(j) + " not after " +
               std::to_string(received[i][j - 1]) + " (reorder/duplicate)";
      }
    }
  }
  return "";
}

std::string Result::CheckNewestPreserved() const {
  if (restarts > 0) {
    return "";
  }
  for (size_t i = 0; i < producers.size(); ++i) {
    const ProducerReport& p = producers[i];
    if (p.last_sent_value < 0) {
      continue;  // nothing was ever committed
    }
    if (p.wire_binary && p.dropped > 0) {
      continue;  // a dropped frame may have carried the newest staged value
    }
    if (received[i].empty()) {
      return "producer " + std::to_string(i) + ": committed up to " +
             std::to_string(p.last_sent_value) + " but nothing was delivered";
    }
    if (received[i].back() != p.last_sent_value) {
      return "producer " + std::to_string(i) + ": newest committed value " +
             std::to_string(p.last_sent_value) + " lost; last delivered " +
             std::to_string(received[i].back());
    }
  }
  return "";
}

std::string Result::CheckBlockDeadline(int64_t deadline_ms) const {
  for (size_t i = 0; i < producers.size(); ++i) {
    const ProducerReport& p = producers[i];
    // Each send may wait at most the deadline (plus poll granularity slop).
    int64_t bound = p.attempted * MillisToNanos(deadline_ms + 2);
    if (p.block_time_ns > bound) {
      return "producer " + std::to_string(i) + ": blocked " +
             std::to_string(p.block_time_ns) + " ns > bound " + std::to_string(bound) + " ns";
    }
  }
  return "";
}

std::string Result::CheckCommon() const {
  std::string err = CheckNoTornFrames();
  if (err.empty()) {
    err = CheckSendAccounting();
  }
  if (err.empty()) {
    err = CheckSequencesMonotone();
  }
  return err;
}

Result RunStress(const Options& opt) {
  Result result;
  result.producers.resize(static_cast<size_t>(opt.producers));
  result.received.resize(static_cast<size_t>(opt.producers));
  result.received_times.resize(static_cast<size_t>(opt.producers));

  bool has_drain = false;
  bool has_restart = false;
  for (const ScheduleStep& step : opt.schedule) {
    has_drain |= step.kind == ScheduleStep::Kind::kDrain;
    has_restart |= step.kind == ScheduleStep::Kind::kRestart;
  }
  if (!has_drain) {
    result.setup_error = "schedule has no drain step: producers could never finish";
    return result;
  }
  if (opt.use_processes && has_restart) {
    result.setup_error = "restart steps are not supported in process mode";
    return result;
  }
  if (opt.use_processes && opt.viewers > 0) {
    result.setup_error = "viewers are threads; they cannot mix with forked producers";
    return result;
  }
  if (opt.use_processes && opt.wire != Options::Wire::kText) {
    result.setup_error = "binary wire requires thread producers";
    return result;
  }
  if (opt.use_processes && opt.server_loops > 1) {
    result.setup_error = "sharded server loops are threads; they cannot mix with fork";
    return result;
  }
  result.viewers.resize(static_cast<size_t>(std::max(0, opt.viewers)));

  // Install the scripted fault schedule for the whole run (server included).
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<FaultInjector::ScopedInstall> injector_guard;
  if (!opt.faults.empty()) {
    injector = std::make_unique<FaultInjector>(opt.fault_seed);
    for (const FaultRule& rule : opt.faults) {
      injector->AddRule(rule);
    }
    injector_guard = std::make_unique<FaultInjector::ScopedInstall>(injector.get());
  }

  MainLoop server_loop;  // real clock: socket readiness is real
  Scope display(&server_loop, ScopeOptions{.name = "stress-display", .width = 64});
  display.SetPollingMode(5);
  // Sharded runs build route tables from worker loops while this scope's
  // tick runs on the primary; gate the tick (no-op at one loop).
  display.SetConcurrent(opt.server_loops > 1);
  StreamServerOptions sopt;
  sopt.max_clients = 128;
  sopt.loops = opt.server_loops;
  sopt.client_rcvbuf_bytes = opt.server_rcvbuf_bytes;
  StreamServer server(&server_loop, &display, sopt);
  if (!server.Listen(0)) {
    result.setup_error = "server listen failed";
    return result;
  }
  uint16_t port = server.port();
  display.StartPolling();

  // Record every parsed value per producer, in arrival order.  The mutex
  // serializes shard loops in sharded runs ("arrival order" then means each
  // producer's own order: one producer lands on one loop).
  std::mutex tap_mu;
  server.SetIngestTap([&result, &opt, &tap_mu](const TupleView& tuple) {
    if (tuple.name.size() < 2 || tuple.name.front() != 'p') {
      return;
    }
    int idx = 0;
    bool any_digit = false;
    for (size_t i = 1; i < tuple.name.size(); ++i) {
      char c = tuple.name[i];
      if (c == '_') {
        break;  // payload padding follows
      }
      if (c < '0' || c > '9') {
        return;
      }
      idx = idx * 10 + (c - '0');
      any_digit = true;
    }
    if (any_digit && idx >= 0 && idx < opt.producers) {
      std::lock_guard<std::mutex> lock(tap_mu);
      result.received[static_cast<size_t>(idx)].push_back(
          static_cast<int64_t>(std::llround(tuple.value)));
      result.received_times[static_cast<size_t>(idx)].push_back(tuple.time_ms);
    }
  });

  // Virtual time for tuple stamps, advanced in lockstep with the schedule.
  SimClock sim;

  auto run_step = [&](const ScheduleStep& step) {
    switch (step.kind) {
      case ScheduleStep::Kind::kDrain:
        server_loop.RunForMs(step.ms);
        break;
      case ScheduleStep::Kind::kPause:
        // The server stops reading entirely; kernel buffers fill and
        // backpressure reaches the producers' bounded backlogs.
        std::this_thread::sleep_for(std::chrono::milliseconds(step.ms));
        break;
      case ScheduleStep::Kind::kRestart: {
        server.Close();
        std::this_thread::sleep_for(std::chrono::milliseconds(step.ms));
        for (int attempt = 0; attempt < 100 && !server.Listen(port); ++attempt) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        result.restarts += 1;
        break;
      }
    }
    sim.AdvanceMs(step.ms);
  };

  std::atomic<bool> viewers_stop{false};
  std::vector<std::thread> viewer_threads;
  viewer_threads.reserve(result.viewers.size());
  for (int i = 0; i < opt.viewers; ++i) {
    viewer_threads.emplace_back(ViewerThread, std::cref(opt), i, port,
                                &result.viewers[static_cast<size_t>(i)], &viewers_stop);
  }

  if (!opt.use_processes) {
    std::atomic<int> running{opt.producers};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(opt.producers));
    for (int i = 0; i < opt.producers; ++i) {
      threads.emplace_back(ProducerThread, std::cref(opt), i, port, &sim,
                           &result.producers[static_cast<size_t>(i)], &running);
    }
    size_t step_i = 0;
    while (running.load(std::memory_order_acquire) > 0) {
      run_step(opt.schedule[step_i++ % opt.schedule.size()]);
    }
    for (std::thread& t : threads) {
      t.join();
    }
  } else {
    struct Child {
      pid_t pid = -1;
      int report_fd = -1;
      bool exited = false;
    };
    std::vector<Child> children(static_cast<size_t>(opt.producers));
    for (int i = 0; i < opt.producers; ++i) {
      int fds[2];
      if (pipe(fds) != 0) {
        result.setup_error = "pipe failed";
        return result;
      }
      pid_t pid = fork();
      if (pid < 0) {
        result.setup_error = "fork failed";
        close(fds[0]);
        close(fds[1]);
        return result;
      }
      if (pid == 0) {
        close(fds[0]);
        RunChildProducer(opt, i, port, fds[1]);
        _exit(0);  // no parent destructors / test machinery in the child
      }
      close(fds[1]);
      children[static_cast<size_t>(i)] = {pid, fds[0], false};
    }
    int alive = opt.producers;
    size_t step_i = 0;
    while (alive > 0) {
      run_step(opt.schedule[step_i++ % opt.schedule.size()]);
      for (Child& child : children) {
        if (!child.exited && waitpid(child.pid, nullptr, WNOHANG) == child.pid) {
          child.exited = true;
          alive -= 1;
        }
      }
    }
    for (size_t i = 0; i < children.size(); ++i) {
      ProducerReport& report = result.producers[i];
      size_t got = 0;
      while (got < sizeof(report)) {
        ssize_t n = read(children[i].report_fd,
                         reinterpret_cast<char*>(&report) + got, sizeof(report) - got);
        if (n <= 0) {
          break;  // child died before reporting: zeros, connected_ok false
        }
        got += static_cast<size_t>(n);
      }
      close(children[i].report_fd);
    }
  }

  // Settle: drain until every producer connection wound down and the count
  // is stable.  Viewers are still connected clients at this point, so the
  // floor is their count, not zero.
  size_t floor = result.viewers.size();
  Nanos deadline = RealNowNs() + MillisToNanos(opt.settle_ms);
  int64_t last_tuples = -1;
  while (RealNowNs() < deadline) {
    server_loop.RunForMs(10);
    if (server.client_count() <= floor && server.stats().tuples == last_tuples) {
      break;
    }
    last_tuples = server.stats().tuples;
  }

  if (!viewer_threads.empty()) {
    // One more drain so in-flight echoes reach the viewers, then stop them.
    server_loop.RunForMs(50);
    viewers_stop.store(true, std::memory_order_release);
    for (std::thread& t : viewer_threads) {
      t.join();
    }
    server_loop.RunForMs(10);  // observe their disconnects
  }

  result.server_tuples = server.stats().tuples;
  result.server_parse_errors = server.stats().parse_errors;
  result.server_bytes = server.stats().bytes;
  result.server_frames_rx = server.stats().frames_rx;
  result.server_frames_crc_errors = server.stats().frames_crc_errors;
  if (injector != nullptr) {
    result.fault_stats = injector->stats();
  }
  result.ran = true;
  return result;
}

}  // namespace stress
}  // namespace gscope
