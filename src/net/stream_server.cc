#include "net/stream_server.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <mutex>
#include <vector>

#include "core/tuple.h"
#include "freq/spectrum.h"

namespace gscope {
namespace {

bool IsAsciiLetter(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z');
}

// Pops the next space/tab-delimited token off `s` (empties `s` at the end).
std::string_view NextToken(std::string_view& s) {
  size_t begin = s.find_first_not_of(" \t");
  if (begin == std::string_view::npos) {
    s = {};
    return {};
  }
  size_t end = s.find_first_of(" \t", begin);
  std::string_view token = s.substr(begin, end == std::string_view::npos ? std::string_view::npos
                                                                         : end - begin);
  s = end == std::string_view::npos ? std::string_view{} : s.substr(end);
  return token;
}

// Echo samples staged per binary session (or stage group) before a frame is
// sealed mid-drain; whatever is staged is sealed at the drain's end anyway.
constexpr size_t kEgressFrameSamples = 128;

// Pacing granularity of a speed > 0 REPLAY (docs/protocol.md "Flight
// recorder"): recorded time is re-evaluated against the loop clock this
// often, so emission bursts are at most one tick's worth.
constexpr int64_t kReplayTickMs = 5;

// Tenants see their own bare names: the stored "<ns>\x1f" identity prefix is
// stripped before a sample is re-serialized down the session.  The prefix is
// matched, not assumed: right after an AUTH re-scope, samples routed under
// the previous identity may still drain from the session scope.
std::string_view StripTenantPrefix(const std::string& ns, std::string_view name) {
  if (!ns.empty() && name.size() > ns.size() + 1 &&
      name.compare(0, ns.size(), ns) == 0 && name[ns.size()] == kNamespaceSep) {
    name.remove_prefix(ns.size() + 1);
  }
  return name;
}

}  // namespace

// Decoder callbacks for one client's inbound binary stream.  A plain struct
// of pointers: the decoder template inlines through it, and nested types see
// StreamServer's private members.
struct StreamServer::FrameHandler {
  StreamServer* server;
  LoopShard* shard;
  int client_key;
  Client* client;
  void OnDictEntry(uint32_t id, std::string_view name) {
    server->BindDict(*client, id, name);
  }
  void OnSampleBatch(int64_t base_time_ms, const char* records, size_t n) {
    server->IngestRecords(*client, base_time_ms, records, n);
  }
  void OnTextLine(std::string_view line) {
    server->HandleLine(*shard, client_key, *client, line);
  }
};

StreamServer::StreamServer(MainLoop* loop, Scope* scope, StreamServerOptions options)
    : loop_(loop),
      options_(options),
      router_({.auto_create_signals = options.auto_create_signals}),
      pool_(loop, options.loops) {
  if (options_.control_poll_period_ms <= 0) {
    options_.control_poll_period_ms = 10;
  }
  options_.loops = pool_.size();  // clamped to >= 1
  // Route tables are built from (and ingest arrives on) any loop once the
  // server shards; at loops = 1 this leaves the router lock-free.
  router_.SetConcurrent(pool_.size() > 1);
  shards_.reserve(pool_.size());
  for (size_t i = 0; i < pool_.size(); ++i) {
    auto shard = std::make_unique<LoopShard>();
    shard->loop = pool_.loop(i);
    shard->index = i;
    shards_.push_back(std::move(shard));
  }
  if (scope != nullptr) {
    router_.AddScope(scope);
  }
}

bool StreamServer::AddScope(Scope* scope) { return router_.AddScope(scope); }

bool StreamServer::RemoveScope(Scope* scope) { return router_.RemoveScope(scope); }

StreamServer::~StreamServer() {
  {
    // Invalidate deferred closures before teardown.  Loop threads may still
    // be copying the token (WeakSelf) until Close() joins them.
    std::lock_guard<std::mutex> lock(self_alias_mu_);
    self_alias_.reset();
  }
  Close();
}

std::weak_ptr<StreamServer> StreamServer::WeakSelf() {
  std::lock_guard<std::mutex> lock(self_alias_mu_);
  return self_alias_;
}

bool StreamServer::Listen(uint16_t port) {
  Close();
  const size_t loops = pool_.size();
  pool_.Start();
  reuse_port_active_ = false;
  if (loops > 1 && options_.reuse_port && Socket::ReusePortSupported()) {
    // Listener per loop: the kernel spreads connections, no hand-off hop.
    Socket first = Socket::Listen(port, &port_, /*reuse_port=*/true);
    bool bound = first.valid();
    if (bound) {
      shards_[0]->listener = std::move(first);
      for (size_t i = 1; i < loops && bound; ++i) {
        shards_[i]->listener = Socket::Listen(port_, nullptr, /*reuse_port=*/true);
        bound = shards_[i]->listener.valid();
      }
    }
    if (bound) {
      reuse_port_active_ = true;
    } else {
      // A platform can pass the capability probe yet refuse the concrete
      // bind: fall back to the single-acceptor hand-off, don't fail Listen.
      for (auto& shard : shards_) {
        shard->listener.Close();
      }
      port_ = 0;
    }
  }
  if (!reuse_port_active_) {
    shards_[0]->listener = Socket::Listen(port, &port_);
    if (!shards_[0]->listener.valid()) {
      pool_.Stop();
      return false;
    }
  }

  // Maintenance sweep: idle-client reaping and/or echo-tap degradation.  The
  // period is half the shortest enabled window, so a deadline is observed at
  // most 1.5x late.  One sweep per shard: each loop reaps its own clients.
  int64_t window = 0;
  if (options_.idle_timeout_ms > 0) {
    window = options_.idle_timeout_ms;
  }
  if (options_.degrade_stalled_ms > 0 &&
      (window == 0 || options_.degrade_stalled_ms < window)) {
    window = options_.degrade_stalled_ms;
  }

  bool ok = true;
  for (size_t i = 0; i < loops; ++i) {
    LoopShard* shard = shards_[i].get();
    pool_.InvokeSync(i, [this, shard, window, &ok]() {
      if (shard->listener.valid()) {
        shard->accept_watch = shard->loop->AddIoWatch(
            shard->listener.fd(), IoCondition::kIn,
            [this, shard](int, IoCondition) { return OnAcceptReady(*shard); });
        if (shard->accept_watch == 0) {
          ok = false;
        }
      }
      if (window > 0) {
        shard->sweep_timer = shard->loop->AddTimeoutMs(
            std::max<int64_t>(1, window / 2),
            std::function<bool()>([this, shard]() { return Sweep(*shard); }));
      }
    });
  }
  if (!ok) {
    Close();
    return false;
  }
  return true;
}

void StreamServer::Close() {
  // Graceful drain, shard by shard: each loop removes its own watches and
  // timers and destroys its own clients (session scopes unregister from the
  // router first, under the router lock, so no in-flight flush from another
  // shard can touch a dying scope).
  for (size_t i = 0; i < pool_.size(); ++i) {
    LoopShard* shard = shards_[i].get();
    pool_.InvokeSync(i, [this, shard]() {
      if (shard->accept_watch != 0) {
        shard->loop->Remove(shard->accept_watch);
        shard->accept_watch = 0;
      }
      if (shard->sweep_timer != 0) {
        shard->loop->Remove(shard->sweep_timer);
        shard->sweep_timer = 0;
      }
      shard->listener.Close();
      for (auto& [key, client] : shard->clients) {
        if (client->watch != 0) {
          shard->loop->Remove(client->watch);
        }
        CancelReplay(*shard, *client);
        if (client->session != nullptr) {
          // Unregister before the scope is destroyed with the client map.
          router_.RemoveScope(client->session->scope.get());
        }
      }
      for (auto& [key, group] : shard->stage_groups) {
        // Stage-group scopes unregister like session scopes, before their
        // storage goes away with the map.
        router_.RemoveScope(group->scope.get());
        stats_.stages_active -= 1;
      }
      shard->stage_groups.clear();
      shard->clients.clear();
      shard->client_count.store(0, std::memory_order_relaxed);
      shard->session_count.store(0, std::memory_order_relaxed);
    });
  }
  {
    // A recording never outlives its server: seal and stop the capture
    // (the recorder's own thread joins here) before the loops wind down.
    std::lock_guard<std::mutex> lock(record_mu_);
    if (recorder_ != nullptr) {
      router_.RemoveScope(recorder_->scope());
      recorder_->Stop();
      FoldRecorderLocked();
      recorder_.reset();
    }
  }
  pool_.Stop();
  port_ = 0;
}

size_t StreamServer::client_count() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->client_count.load(std::memory_order_relaxed);
  }
  return n;
}

size_t StreamServer::shard_client_count(size_t i) const {
  return i < shards_.size() ? shards_[i]->client_count.load(std::memory_order_relaxed) : 0;
}

size_t StreamServer::control_session_count() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->session_count.load(std::memory_order_relaxed);
  }
  return n;
}

StreamServer::LoopShard* StreamServer::PickShard() {
  LoopShard* best = shards_[0].get();
  size_t best_n = best->client_count.load(std::memory_order_relaxed);
  for (size_t i = 1; i < shards_.size(); ++i) {
    size_t n = shards_[i]->client_count.load(std::memory_order_relaxed);
    if (n < best_n) {
      best = shards_[i].get();
      best_n = n;
    }
  }
  return best;
}

bool StreamServer::OnAcceptReady(LoopShard& shard) {
  while (true) {
    Socket conn = shard.listener.Accept();
    if (!conn.valid()) {
      break;
    }
    if (client_count() >= options_.max_clients) {
      stats_.refused += 1;
      continue;  // RAII closes the connection
    }
    if (reuse_port_active_ || pool_.size() == 1) {
      // This shard's own listener accepted: the connection already lives on
      // the right loop.
      SetupClient(shard, std::move(conn), /*counted=*/false);
      continue;
    }
    // Hand-off mode: this is the single acceptor on loop 0.  Land the
    // connection on the least-loaded loop; the count is charged at dispatch
    // so an accept burst balances against in-flight hand-offs.
    LoopShard* target = PickShard();
    if (target == &shard) {
      SetupClient(shard, std::move(conn), /*counted=*/false);
      continue;
    }
    target->client_count.fetch_add(1, std::memory_order_relaxed);
    std::weak_ptr<StreamServer> weak_self = WeakSelf();
    auto handoff = std::make_shared<Socket>(std::move(conn));
    target->loop->Invoke([weak_self, target, handoff]() {
      std::shared_ptr<StreamServer> server = weak_self.lock();
      if (server == nullptr) {
        return;  // server gone, and the shard storage with it
      }
      server->SetupClient(*target, std::move(*handoff), /*counted=*/true);
    });
  }
  return true;
}

void StreamServer::SetupClient(LoopShard& shard, Socket conn, bool counted) {
  if (options_.client_rcvbuf_bytes > 0) {
    conn.SetRecvBufferBytes(options_.client_rcvbuf_bytes);
  }
  auto client =
      std::make_unique<Client>(shard.loop, options_.max_line_bytes, options_.control_max_buffer);
  client->shard = &shard;
  client->loop = shard.loop;
  client->socket = std::move(conn);
  client->last_activity_ns = shard.loop->clock()->NowNs();
  int key = next_client_key_.fetch_add(1, std::memory_order_relaxed);
  int fd = client->socket.fd();
  LoopShard* sp = &shard;
  client->watch = shard.loop->AddIoWatch(
      fd, IoCondition::kIn,
      [this, sp, key](int, IoCondition cond) { return OnClientReady(*sp, key, cond); });
  if (client->watch == 0) {
    if (counted) {
      shard.client_count.fetch_sub(1, std::memory_order_relaxed);
    }
    return;
  }
  // Egress is armed on every connection (the HELLO reply must travel before
  // any session exists).  Overload discards whole frames only, victim per
  // the configured policy; a dead egress fd drops the client from a fresh
  // stack frame on its own loop, gated by the weak token against a
  // destroyed server.
  client->writer.SetPolicy(options_.control_overflow_policy,
                           MillisToNanos(options_.control_block_deadline_ms));
  // Writes leave when the server flushes: each reply at once, echo at the
  // end of the drain that produced it (one write per session per drain).
  client->writer.SetDeferredWrites(true);
  std::weak_ptr<StreamServer> weak_self = WeakSelf();
  client->writer.SetErrorCallback([sp, key, weak_self]() {
    sp->loop->Invoke([sp, key, weak_self]() {
      if (std::shared_ptr<StreamServer> server = weak_self.lock()) {
        server->DropClient(*sp, key);
      }
    });
  });
  client->writer.Attach(fd);
  shard.clients[key] = std::move(client);
  if (!counted) {
    shard.client_count.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.connections += 1;
}

bool StreamServer::OnClientReady(LoopShard& shard, int client_key, IoCondition cond) {
  auto it = shard.clients.find(client_key);
  if (it == shard.clients.end()) {
    return false;
  }
  Client& client = *it->second;

  if (Has(cond, IoCondition::kErr)) {
    DropClient(shard, client_key);
    return false;
  }

  char buf[65536];
  while (true) {
    IoResult r = client.socket.Read(buf, sizeof(buf));
    if (r.status == IoResult::Status::kOk) {
      stats_.bytes += static_cast<int64_t>(r.bytes);
      client.last_activity_ns = shard.loop->clock()->NowNs();
      ProcessData(shard, client_key, client, buf, r.bytes);
      if (shard.clients.count(client_key) == 0) {
        return false;  // a control failure dropped the client mid-chunk
      }
      continue;
    }
    if (r.status == IoResult::Status::kWouldBlock) {
      return true;
    }
    // EOF or error: flush any final unterminated line (text), or account a
    // torn partially-buffered frame (binary: the mid-frame-kill signal the
    // reliability contract counts), then drop.
    if (client.wire == WireMode::kBinary) {
      if (client.decoder != nullptr) {
        client.decoder->Finish();
        FoldDecoderStats(*client.decoder);
      }
    } else {
      client.framer.FlushTail(
          [&](std::string_view line) { HandleLine(shard, client_key, client, line); });
    }
    FlushIngest();
    DropClient(shard, client_key);
    return false;
  }
}

void StreamServer::ProcessData(LoopShard& shard, int client_key, Client& client,
                               const char* data, size_t len) {
  const char* p = data;
  size_t n = len;
  while (n > 0) {
    switch (client.wire) {
      case WireMode::kText: {
        // Stoppable: a HELLO line mid-chunk flips the mode and the remainder
        // of the chunk must be handled under the new one.
        int64_t overlong = 0;
        size_t used = client.framer.ConsumeStoppable(
            p, n, &overlong, [&](std::string_view line) {
              HandleLine(shard, client_key, client, line);
              return client.wire == WireMode::kText;
            });
        stats_.parse_errors += overlong;
        p += used;
        n -= used;
        break;
      }
      case WireMode::kBinaryPending: {
        // Text lines still parse; the first frame magic AT A LINE BOUNDARY
        // (chunk start with no line in progress, or right after a newline)
        // flips the connection to framed-binary for good.
        size_t flip = n;
        if (!client.framer.mid_line() &&
            static_cast<uint8_t>(p[0]) == wire::kMagic0) {
          flip = 0;
        } else {
          for (const char* q = p;;) {
            const char* nl = static_cast<const char*>(
                std::memchr(q, '\n', static_cast<size_t>(p + n - q)));
            if (nl == nullptr || nl + 1 >= p + n) {
              break;
            }
            q = nl + 1;
            if (static_cast<uint8_t>(*q) == wire::kMagic0) {
              flip = static_cast<size_t>(q - p);
              break;
            }
          }
        }
        if (flip > 0) {
          int64_t overlong = 0;
          client.framer.Consume(p, flip, &overlong,
                                [&](std::string_view line) {
                                  HandleLine(shard, client_key, client, line);
                                });
          stats_.parse_errors += overlong;
        }
        if (flip < n) {
          client.wire = WireMode::kBinary;
        }
        p += flip;
        n -= flip;
        break;
      }
      case WireMode::kBinary: {
        FrameHandler handler{this, &shard, client_key, &client};
        client.decoder->Consume(p, n, handler);
        FoldDecoderStats(*client.decoder);
        n = 0;
        break;
      }
    }
  }
  FlushIngest();
}

void StreamServer::FoldDecoderStats(wire::FrameDecoder& decoder) {
  wire::FrameDecoder::Stats s = decoder.Take();
  stats_.frames_rx += s.frames_rx;
  stats_.frames_crc_errors += s.crc_errors;
}

void StreamServer::FlushIngest() {
  IngestRouter::FlushStats flushed = router_.Flush();
  stats_.dropped_late += flushed.dropped_late;
}

void StreamServer::HandleLine(LoopShard& shard, int client_key, Client& client,
                              std::string_view line) {
  // Tuple lines start with a timestamp; a leading letter means a control
  // verb (tuple names sit in the third field, so the two grammars cannot
  // collide — docs/protocol.md).
  if (options_.enable_control && !line.empty() && IsAsciiLetter(line.front())) {
    HandleControlLine(shard, client_key, client, line);
    return;
  }
  if (ingest_tap_) {
    // Diagnostic-only second parse; the router parses authoritatively below.
    if (std::optional<TupleView> tuple = ParseTupleView(line); tuple.has_value()) {
      ingest_tap_(*tuple);
    }
  }
  int64_t tuples = 0;
  int64_t parse_errors = 0;
  router_.AppendTupleLine(line, client.ns, &tuples, &parse_errors);
  stats_.tuples += tuples;
  stats_.parse_errors += parse_errors;
}

void StreamServer::HandleControlLine(LoopShard& shard, int client_key, Client& client,
                                     std::string_view line) {
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);  // CRLF framing
  }
  std::string_view rest = line;
  std::string_view verb = NextToken(rest);

  if (verb == "HELLO") {
    // Wire-format negotiation (docs/protocol.md "Binary wire protocol").
    // Handled before the whitelist's argument-shape validation and WITHOUT
    // creating a session: a producer upgrading its upload format must not
    // cost a scope, a poll timer, and a router slot.
    HandleHello(client, rest);
    return;
  }
  if (verb == "AUTH") {
    // Tenant entry: like HELLO, before the whitelist and session-free
    // (authenticating a producer must not cost a scope).
    HandleAuth(client, rest);
    return;
  }

  const bool stage_verb = verb == "DECIMATE" || verb == "EWMA" ||
                          verb == "ENVELOPE" || verb == "SPECTRUM";
  if (verb != "SUB" && verb != "UNSUB" && verb != "DELAY" && verb != "LIST" &&
      verb != "STATS" && verb != "PING" && verb != "TIME" &&
      verb != "COALESCE" && verb != "RAW" && verb != "RECORD" &&
      verb != "REPLAY" && !stage_verb) {
    // Unknown verb: counted like any other malformed line so a garbage
    // producer cannot hide behind the control grammar; an existing session
    // additionally gets an ERR reply.
    stats_.parse_errors += 1;
    if (client.session != nullptr) {
      stats_.control_errors += 1;
      Reply(client, "ERR unknown-verb");
    }
    return;
  }

  stats_.control_commands += 1;
  std::string_view arg = NextToken(rest);
  std::string_view excess = NextToken(rest);
  std::string_view extra = NextToken(rest);
  std::string_view extra2 = NextToken(rest);

  // Validate the argument shape BEFORE creating a session: a structurally
  // malformed command must not cost this connection a scope, a poll timer,
  // and a router slot.  (The ERR reply still requires an existing session's
  // writer; a malformed first command is only counted.)
  std::string reject;
  int64_t delay_ms = -1;
  int64_t replay_t0 = 0;
  int64_t replay_t1 = 0;
  double replay_speed = 0.0;
  StageSpec stage;
  if ((verb == "REPLAY"     ? !extra2.empty()
       : verb == "SPECTRUM" ? !extra.empty()
                            : !excess.empty()) ||
      ((verb == "STATS" || verb == "TIME" || verb == "COALESCE" ||
        verb == "RAW") &&
       !arg.empty()) ||
      (verb == "LIST" && !arg.empty() && arg != "STAGES")) {
    // PING is the one verb with an optional argument: an opaque token echoed
    // back verbatim (clients stamp it with their send time for RTT).
    // SPECTRUM has two (block size and optional window), REPLAY three
    // (window bounds and optional speed), LIST one optional literal
    // ("STAGES": the stage catalog).
    reject.append("ERR ").append(verb).append(" trailing-junk");
  } else if ((verb == "SUB" || verb == "UNSUB") && arg.empty()) {
    reject.append("ERR ").append(verb).append(" missing-pattern");
  } else if (verb == "RECORD" && arg.empty()) {
    reject = "ERR RECORD missing-path";
  } else if (verb == "REPLAY") {
    // REPLAY <t0-ms> <t1-ms> [speed]; speed 0 (the default) = burst.
    auto parse_i64 = [](std::string_view s, int64_t& out) {
      auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
      return !s.empty() && ec == std::errc{} && p == s.data() + s.size();
    };
    if (!parse_i64(arg, replay_t0) || !parse_i64(excess, replay_t1) ||
        replay_t1 < replay_t0) {
      reject = "ERR REPLAY bad-window";
    } else if (!extra.empty()) {
      auto [p, ec] =
          std::from_chars(extra.data(), extra.data() + extra.size(), replay_speed);
      if (ec != std::errc{} || p != extra.data() + extra.size() ||
          replay_speed < 0.0) {
        reject = "ERR REPLAY bad-speed";
      }
    }
  } else if (verb == "DELAY") {
    auto [p, ec] = std::from_chars(arg.data(), arg.data() + arg.size(), delay_ms);
    if (arg.empty() || ec != std::errc{} || p != arg.data() + arg.size() || delay_ms < 0) {
      reject = "ERR DELAY bad-milliseconds";
    }
  } else if (stage_verb) {
    // On failure `reject` carries the verb-specific ERR shape.
    ParseStageSpec(verb, arg, excess, stage, reject);
  }
  if (!reject.empty()) {
    stats_.control_errors += 1;
    if (client.session != nullptr) {
      Reply(client, reject);
    }
    return;
  }

  ControlSession& session = EnsureSession(shard, client_key, client);

  // Subscription-churn quota: a tenant flapping SUB/UNSUB forces a route
  // table rebuild per verb; over the window the verb is refused before it
  // touches the filter.  Deterministic under a SimClock.
  if ((verb == "SUB" || verb == "UNSUB") && !ChurnAllowed(client)) {
    stats_.control_errors += 1;
    stats_.quota_drops += 1;
    std::string err;
    err.append("ERR ").append(verb).append(" quota-churn");
    Reply(client, err);
    return;
  }

  std::string reply;
  if (verb == "SUB") {
    if (options_.quota_max_patterns > 0 &&
        session.filter.pattern_count() >= options_.quota_max_patterns) {
      stats_.quota_drops += 1;
      reply.append("ERR SUB quota-patterns ").append(arg);
    } else {
      bool added;
      {
        // Filter mutation under the route lock: a rebuild on another loop
        // reads the pattern list (no-op lock at loops = 1).
        std::unique_lock<std::mutex> routes = router_.LockRoutes();
        added = session.filter.Add(arg);
      }
      if (!added) {
        reply.append("ERR SUB duplicate-pattern ").append(arg);
      } else {
        reply.append("OK SUB ").append(arg);
        // A staged session re-keys: the pattern set is part of the group
        // identity (outside the lock - re-keying registers scopes).
        ReattachStage(shard, client);
      }
    }
  } else if (verb == "UNSUB") {
    bool removed;
    {
      std::unique_lock<std::mutex> routes = router_.LockRoutes();
      removed = session.filter.Remove(arg);
    }
    if (!removed) {
      reply.append("ERR UNSUB unknown-pattern ").append(arg);
    } else {
      reply.append("OK UNSUB ").append(arg);
      ReattachStage(shard, client);
    }
  } else if (verb == "DELAY") {
    session.scope->SetDelayMs(delay_ms);
    ReattachStage(shard, client);  // the delay is part of the group identity
    reply.append("OK DELAY ").append(arg);
  } else if (verb == "COALESCE" || verb == "RAW") {
    // COALESCE flips the session's own echo tap to the last-wins fold (one
    // winner per signal per control_poll_period_ms); RAW restores the
    // per-sample contract.
    // Either verb first detaches an attached stage.
    TapMode mode = verb == "COALESCE" ? TapMode::kCoalesced : TapMode::kEverySample;
    if (session.group != nullptr) {
      DetachStage(shard, client, mode);
    } else {
      // Tap swap under the route lock: rebuilds read the tap's history need.
      std::unique_lock<std::mutex> routes = router_.LockRoutes();
      InstallEchoTap(client, mode);
    }
    reply.append("OK ").append(verb);
  } else if (stage_verb) {
    AttachStage(shard, client, stage);
    reply.append("OK ").append(stage.text);
  } else if (verb == "RECORD") {
    if (!client.ns.empty()) {
      // Recording captures EVERY tenant's signals: it is a server-operator
      // action, refused from inside a tenant namespace.
      reply.append("ERR RECORD not-authorized");
    } else {
      HandleRecord(arg, reply);
    }
  } else if (verb == "REPLAY") {
    // Open to tenants: the session filter gates the replayed window exactly
    // like live routing, so time travel cannot cross namespaces.  Sends its
    // own replies: OK + the (possibly paced) window + the DONE marker, or
    // an ERR.
    HandleReplay(shard, client_key, client, replay_t0, replay_t1, replay_speed);
    return;
  } else if (verb == "PING") {
    // Liveness probe.  Like every other verb it creates a session on first
    // use: the PONG needs the session's egress writer to travel back.
    stats_.pings_received += 1;
    reply.append("PONG");
    if (!arg.empty()) {
      reply.push_back(' ');
      reply.append(arg);
    }
  } else if (verb == "TIME") {
    // The server's scope time, on the shared display axis (AdoptTimeBase):
    // clients estimate clock offset from this plus the observed RTT, so a
    // cross-host late-drop delay is judged against honest timestamps.
    stats_.time_requests += 1;
    reply.append("OK TIME ").append(std::to_string(session.scope->NowMs()));
  } else if (verb == "STATS") {
    // One reply line of space-separated key/value pairs (docs/protocol.md):
    // ingest health plus the drain-coalescing counters summed over EVERY
    // display target on every loop.  The fold reads each scope's per-tick
    // coalesce mirror (relaxed atomics published at the end of its poll
    // tick) precisely so it can visit scopes owned by other loops: sharded
    // STATS answers are global, whichever loop answers (PR 8 shipped them
    // loop-local - the documented bug this fixes), at most one tick stale
    // per scope and with zero atomics on the per-sample drain path.
    int64_t coalesced = 0;
    int64_t retained = 0;
    router_.ForEachScope([&](Scope* s) {
      coalesced += s->coalesce_mirror().samples_coalesced;
      retained += s->coalesce_mirror().samples_retained;
    });
    reply.append("OK STATS tuples ").append(std::to_string(stats_.tuples.load()));
    reply.append(" parse_errors ").append(std::to_string(stats_.parse_errors.load()));
    reply.append(" dropped_late ").append(std::to_string(stats_.dropped_late.load()));
    reply.append(" echo_dropped ").append(std::to_string(stats_.echo_dropped.load()));
    reply.append(" echo_evicted ").append(std::to_string(stats_.echo_evicted.load()));
    reply.append(" excluded_route_slots ")
        .append(std::to_string(router_.excluded_route_slots()));
    reply.append(" samples_coalesced ").append(std::to_string(coalesced));
    reply.append(" samples_retained ").append(std::to_string(retained));
    // Robustness counters (appended: the key table is extend-only, clients
    // scan for keys they know and skip the rest).
    reply.append(" pings_received ").append(std::to_string(stats_.pings_received.load()));
    reply.append(" taps_downgraded ").append(std::to_string(stats_.taps_downgraded.load()));
    reply.append(" taps_restored ").append(std::to_string(stats_.taps_restored.load()));
    reply.append(" clients_idle_dropped ")
        .append(std::to_string(stats_.clients_idle_dropped.load()));
    // Writers never switch policy on their own; the key stays, always 0,
    // so the key order clients scan for does not shift.
    reply.append(" policy_switches 0");
    // Binary wire protocol (appended; wire_format is the REQUESTING
    // connection's inbound mode: 0 = text, 1 = negotiated binary).
    reply.append(" frames_rx ").append(std::to_string(stats_.frames_rx.load()));
    reply.append(" frames_crc_errors ")
        .append(std::to_string(stats_.frames_crc_errors.load()));
    reply.append(" dict_entries ").append(std::to_string(stats_.dict_entries.load()));
    reply.append(" wire_format ")
        .append(client.wire == WireMode::kText ? "0" : "1");
    // Sharding + multi-tenant hardening (appended).  loop_sessions is the
    // session count of the answering loop.
    reply.append(" loops ").append(std::to_string(pool_.size()));
    reply.append(" loop_sessions ")
        .append(std::to_string(shard.session_count.load(std::memory_order_relaxed)));
    reply.append(" auth_failures ").append(std::to_string(stats_.auth_failures.load()));
    reply.append(" quota_drops ").append(std::to_string(stats_.quota_drops.load()));
    // Derived pipelines + per-format egress quota accounting (appended).
    reply.append(" stage_evals ").append(std::to_string(stats_.stage_evals.load()));
    reply.append(" tuples_derived ")
        .append(std::to_string(stats_.tuples_derived.load()));
    reply.append(" stages_active ")
        .append(std::to_string(stats_.stages_active.load()));
    reply.append(" quota_drops_text ")
        .append(std::to_string(stats_.quota_drops_text.load()));
    reply.append(" quota_drops_bin ")
        .append(std::to_string(stats_.quota_drops_bin.load()));
    // Flight recorder (appended; docs/protocol.md "Flight recorder").
    // Retired tallies plus the live recorder's per-tick mirror, so the keys
    // stay monotone across RECORD OFF / RECORD cycles.
    {
      std::lock_guard<std::mutex> record_lock(record_mu_);
      int64_t sealed = record_retired_.extents_sealed;
      int64_t recovered = record_retired_.extents_recovered;
      int64_t dropped = record_retired_.extents_dropped;
      int64_t cap_bytes = record_retired_.capture_bytes;
      int64_t captured = record_retired_.samples_captured;
      int64_t degraded = 0;
      FsyncPolicy policy = options_.record_fsync_policy;
      if (recorder_ != nullptr) {
        const Recorder::Stats& r = recorder_->stats();
        sealed += r.extents_sealed.load();
        recovered += r.extents_recovered.load();
        dropped += r.extents_dropped.load();
        cap_bytes += r.capture_bytes.load();
        captured += r.samples_captured.load();
        degraded = r.degraded.load();
        policy = recorder_->fsync_policy();
      }
      reply.append(" recording ").append(recorder_ != nullptr ? "1" : "0");
      reply.append(" extents_sealed ").append(std::to_string(sealed));
      reply.append(" extents_recovered ").append(std::to_string(recovered));
      reply.append(" extents_dropped ").append(std::to_string(dropped));
      reply.append(" capture_bytes ").append(std::to_string(cap_bytes));
      reply.append(" samples_captured ").append(std::to_string(captured));
      reply.append(" capture_degraded ").append(std::to_string(degraded));
      reply.append(" fsync_policy ")
          .append(std::to_string(static_cast<int>(policy)));
    }
  } else {  // LIST / LIST STAGES
    if (arg == "STAGES") {
      // Stage catalog: every spec grammar a session could attach, plus the
      // live shared-group count server-wide.  The count goes first for the
      // same reason as LIST's.
      reply.append("OK STAGES 4 ACTIVE ")
          .append(std::to_string(stats_.stages_active.load()));
      Reply(client, reply);
      Reply(client, "INFO STAGE DECIMATE <n>");
      Reply(client, "INFO STAGE EWMA <alpha>");
      Reply(client, "INFO STAGE ENVELOPE <window-ms>");
      Reply(client, "INFO STAGE SPECTRUM <n> [window]");
      return;
    }
    // The count goes FIRST: if the egress backlog drops some of the INFO
    // frames (whole-frame policy), the client can still tell the listing
    // was incomplete.
    reply.append("OK LIST ")
        .append(std::to_string(session.filter.pattern_count()))
        .append(" DELAY ")
        .append(std::to_string(session.scope->delay_ms()));
    // MODE goes LAST: a stage spec contains spaces, so clients parse the
    // mode as "everything after MODE".  It answers "what is my tap right
    // now" - a reconnecting client that missed a NOTICE DEGRADE (or wants
    // to confirm its replayed stage) reads it here.
    reply.append(" MODE ");
    if (session.stage.kind != StageSpec::Kind::kNone) {
      reply.append(session.stage.text);
    } else if (session.tap_mode == TapMode::kCoalesced) {
      reply.append("coalesced");
    } else {
      reply.append("every-sample");
    }
    Reply(client, reply);
    for (const std::string& pattern : session.filter.patterns()) {
      std::string info;
      info.append("INFO SUB ").append(pattern);
      if (session.stage.kind != StageSpec::Kind::kNone) {
        info.append(" STAGE ").append(session.stage.text);
      }
      Reply(client, info);
    }
    return;
  }

  if (reply.compare(0, 3, "ERR") == 0) {
    stats_.control_errors += 1;
  }
  Reply(client, reply);
}

void StreamServer::HandleRecord(std::string_view arg, std::string& reply) {
  std::lock_guard<std::mutex> lock(record_mu_);
  if (arg == "OFF") {
    if (recorder_ == nullptr) {
      reply.append("ERR RECORD not-recording");
      return;
    }
    // Unregister before Stop: the final drain must not race new spans.
    router_.RemoveScope(recorder_->scope());
    recorder_->Stop();
    FoldRecorderLocked();
    recorder_.reset();
    // record_path_ survives: the sealed log stays replayable.
    reply.append("OK RECORD OFF");
    return;
  }
  if (recorder_ != nullptr) {
    reply.append("ERR RECORD already-recording");
    return;
  }
  RecorderOptions ropts;
  ropts.log.extent_bytes = options_.record_extent_bytes;
  ropts.log.max_extents = options_.record_max_extents;
  ropts.log.fsync_policy = options_.record_fsync_policy;
  ropts.log.fsync_interval_ms = options_.record_fsync_interval_ms;
  ropts.poll_period_ms = options_.record_poll_period_ms;
  auto recorder = std::make_unique<Recorder>(std::move(ropts));
  if (!recorder->Start(std::string(arg))) {
    reply.append("ERR RECORD open-failed");
    return;
  }
  // Unfiltered registration: the flight recorder captures everything the
  // router sees, every tenant included (stored names keep their prefixes).
  router_.AddScope(recorder->scope());
  record_path_.assign(arg);
  recorder_ = std::move(recorder);
  reply.append("OK RECORD ").append(arg);
}

void StreamServer::HandleReplay(LoopShard& shard, int client_key, Client& client,
                                int64_t t0, int64_t t1, double speed) {
  ControlSession& session = *client.session;
  auto fail = [&](std::string_view body) {
    stats_.control_errors += 1;
    std::string err;
    err.append("ERR REPLAY ").append(body);
    Reply(client, err);
  };
  if (session.replay != nullptr) {
    fail("busy");
    return;
  }
  std::string path;
  {
    std::lock_guard<std::mutex> lock(record_mu_);
    if (recorder_ != nullptr) {
      // Seal the staged extent so the window is durable up to "now"; the
      // reader only ever sees CRC-sealed extents.
      recorder_->FlushNow();
    }
    path = record_path_;
  }
  if (path.empty()) {
    fail("no-recording");
    return;
  }
  ExtentReader reader;
  if (!reader.Open(path)) {
    fail("open-failed");
    return;
  }
  std::vector<ReplayRecord> window;
  reader.ReadWindow(t0, t1, &window);
  auto job = std::make_unique<ReplayJob>();
  job->names.assign(reader.names().begin(), reader.names().end());
  // The session filter gates the replay exactly like live routing: stored
  // names carry tenant prefixes and a tenant's filter only matches its own,
  // so time travel cannot cross namespaces.
  job->records.reserve(window.size());
  for (const ReplayRecord& r : window) {
    if (!session.filter.Matches(job->names[r.name])) {
      continue;
    }
    job->records.push_back(r);
    if (job->records.size() >= options_.replay_max_samples) {
      break;  // bounded: one verb cannot buffer an unbounded window
    }
  }
  std::string ok;
  ok.append("OK REPLAY ").append(std::to_string(job->records.size()));
  Reply(client, ok);
  if (speed <= 0.0 || job->records.empty()) {
    // Burst: the whole window leaves between the OK and the DONE marker.
    for (const ReplayRecord& r : job->records) {
      EmitEcho(client, job->names[r.name], r.time_ms, r.value);
      job->emitted += 1;
    }
    std::string done;
    done.append("INFO REPLAY DONE ").append(std::to_string(job->emitted));
    Reply(client, done);
    return;
  }
  job->t0 = t0;
  job->speed = speed;
  job->start_ns = shard.loop->clock()->NowNs();
  session.replay = std::move(job);
  LoopShard* shard_ptr = &shard;
  session.replay->timer = shard.loop->AddTimeoutMs(
      kReplayTickMs,
      [this, shard_ptr, client_key]() { return ReplayTick(*shard_ptr, client_key); });
}

bool StreamServer::ReplayTick(LoopShard& shard, int client_key) {
  auto it = shard.clients.find(client_key);
  if (it == shard.clients.end()) {
    return false;  // unreachable: the timer dies with the client
  }
  Client& client = *it->second;
  if (client.session == nullptr || client.session->replay == nullptr) {
    return false;
  }
  ReplayJob& job = *client.session->replay;
  // Recorded time advances at speed x the loop clock (SimClock-exact).
  const Nanos elapsed = shard.loop->clock()->NowNs() - job.start_ns;
  const int64_t advanced_ms =
      static_cast<int64_t>(static_cast<double>(elapsed) / 1e6 * job.speed);
  const int64_t virtual_now = job.t0 + advanced_ms;
  while (job.next < job.records.size() &&
         job.records[job.next].time_ms <= virtual_now) {
    const ReplayRecord& r = job.records[job.next];
    EmitEcho(client, job.names[r.name], r.time_ms, r.value);
    job.emitted += 1;
    job.next += 1;
  }
  if (job.next >= job.records.size()) {
    std::string done;
    done.append("INFO REPLAY DONE ").append(std::to_string(job.emitted));
    job.timer = 0;
    client.session->replay.reset();  // before Reply: REPLAY re-arms allowed
    Reply(client, done);  // writes the tick's records ahead of the marker
    return false;
  }
  WriteEcho(client);
  return true;
}

void StreamServer::EmitEcho(Client& client, std::string_view stored_name,
                            int64_t time_ms, double value) {
  std::string_view name = StripTenantPrefix(client.ns, stored_name);
  if (!client.binary_egress) {
    if (!EgressAllowed(client)) {
      stats_.quota_drops += 1;
      stats_.quota_drops_text += 1;
      return;
    }
    int64_t evicted_before = client.writer.stats().units_evicted;
    std::string& buf = client.writer.BeginFrame();
    size_t begin = buf.size();
    AppendTuple(buf, time_ms, value, name);
    size_t frame_bytes = buf.size() - begin;
    if (client.writer.CommitFrame()) {
      stats_.tuples_echoed += 1;
      ChargeEgress(client, frame_bytes);
    } else {
      stats_.echo_dropped += 1;
    }
    stats_.echo_evicted += client.writer.stats().units_evicted - evicted_before;
    return;
  }
  wire::StageResult r = client.egress_enc.Add(name, time_ms, value);
  if (r == wire::StageResult::kFrameFull) {
    FlushEgress(client);
    r = client.egress_enc.Add(name, time_ms, value);
  }
  if (r != wire::StageResult::kStaged) {
    stats_.echo_dropped += 1;
    return;
  }
  if (client.egress_enc.staged_samples() >= kEgressFrameSamples) {
    FlushEgress(client);
  }
}

void StreamServer::WriteEcho(Client& client) {
  FlushEgress(client);
  client.writer.Flush();
}

void StreamServer::CancelReplay(LoopShard& shard, Client& client) {
  if (client.session == nullptr || client.session->replay == nullptr) {
    return;
  }
  if (client.session->replay->timer != 0) {
    shard.loop->Remove(client.session->replay->timer);
  }
  client.session->replay.reset();
}

void StreamServer::FoldRecorderLocked() {
  const Recorder::Stats& r = recorder_->stats();
  record_retired_.samples_captured += r.samples_captured.load();
  record_retired_.extents_sealed += r.extents_sealed.load();
  record_retired_.extents_recovered += r.extents_recovered.load();
  record_retired_.extents_dropped += r.extents_dropped.load();
  record_retired_.capture_bytes += r.capture_bytes.load();
}

void StreamServer::HandleHello(Client& client, std::string_view rest) {
  stats_.control_commands += 1;
  std::string_view proto = NextToken(rest);
  std::string_view version = NextToken(rest);
  std::string_view excess = NextToken(rest);
  if (proto != "BIN" || version != "1" || !excess.empty() ||
      client.wire != WireMode::kText) {
    // Unsupported protocol/version (or a repeated HELLO): the connection
    // STAYS text - negotiation failure is never fatal, the client just keeps
    // the format it already has.
    stats_.control_errors += 1;
    Reply(client, "ERR HELLO unsupported-version");
    return;
  }
  // The acknowledgment travels as a text line (the client flips its parser
  // only after reading it); everything after it is framed.
  Reply(client, "OK HELLO BIN 1");
  client.wire = WireMode::kBinaryPending;
  client.decoder = std::make_unique<wire::FrameDecoder>();
  client.binary_egress = true;
}

void StreamServer::HandleAuth(Client& client, std::string_view rest) {
  stats_.control_commands += 1;
  std::string_view token = NextToken(rest);
  std::string_view excess = NextToken(rest);
  auto it = options_.auth_tokens.end();
  if (!token.empty() && excess.empty()) {
    it = options_.auth_tokens.find(token);
  }
  if (it == options_.auth_tokens.end()) {
    // One failure answer for every shape (missing token, trailing junk,
    // unknown token): a probe learns nothing about the token table.  The
    // failure is NOT fatal - the connection stays usable in whatever
    // namespace it already had.
    stats_.auth_failures += 1;
    stats_.control_errors += 1;
    Reply(client, "ERR AUTH bad-token");
    return;
  }
  client.ns = it->second;
  // The dictionary bound its routes under the previous identity; unbind so
  // binary ingest re-resolves under the new one.
  client.dict.clear();
  if (client.session != nullptr) {
    {
      // Re-scoping the registered filter bumps its epoch (route tables
      // re-snapshot); under the route lock because a rebuild on another loop
      // reads the namespace.  Spans already queued keep their old table and
      // drain as the identity they were routed under.
      std::unique_lock<std::mutex> routes = router_.LockRoutes();
      client.session->filter.SetNamespace(client.ns);
    }
    // A staged session re-keys: the namespace is part of the group identity
    // (and the group's own filter must re-scope with it).
    ReattachStage(*client.shard, client);
  }
  std::string reply;
  reply.append("OK AUTH ").append(client.ns);
  Reply(client, reply);
}

bool StreamServer::ChurnAllowed(Client& client) {
  if (options_.quota_sub_churn == 0) {
    return true;
  }
  Nanos now = client.loop->clock()->NowNs();
  Nanos window = MillisToNanos(std::max<int64_t>(1, options_.quota_churn_window_ms));
  if (client.churn_window_start_ns < 0 || now - client.churn_window_start_ns >= window) {
    client.churn_window_start_ns = now;
    client.churn_count = 0;
  }
  if (client.churn_count >= options_.quota_sub_churn) {
    return false;
  }
  client.churn_count += 1;
  return true;
}

bool StreamServer::EgressAllowed(Client& client) {
  int64_t rate = options_.quota_egress_bytes_per_sec;
  if (rate <= 0) {
    return true;
  }
  Nanos now = client.loop->clock()->NowNs();
  if (client.egress_refill_ns < 0) {
    client.egress_refill_ns = now;
    client.egress_tokens = rate;  // full burst on first use
  } else if (now > client.egress_refill_ns) {
    Nanos dt = now - client.egress_refill_ns;
    client.egress_refill_ns = now;
    if (dt >= 1'000'000'000) {
      client.egress_tokens = rate;  // a second idle refills outright
    } else {
      // dt < 1e9 bounds the product for any sane rate; double keeps the
      // intermediate safe for absurd ones.
      int64_t refill = static_cast<int64_t>(static_cast<double>(dt) * 1e-9 *
                                            static_cast<double>(rate));
      client.egress_tokens = std::min<int64_t>(rate, client.egress_tokens + refill);
    }
  }
  return client.egress_tokens > 0;
}

void StreamServer::ChargeEgress(Client& client, size_t bytes) {
  if (options_.quota_egress_bytes_per_sec <= 0) {
    return;
  }
  // Deficit bucket: the frame that spends the last token may overdraw; the
  // refill pays the debt before the next frame passes.
  client.egress_tokens -= static_cast<int64_t>(bytes);
}

StreamServer::ControlSession& StreamServer::EnsureSession(LoopShard& shard, int client_key,
                                                          Client& client) {
  if (client.session != nullptr) {
    return *client.session;
  }
  auto session = std::make_unique<ControlSession>();
  if (options_.control_sndbuf_bytes > 0) {
    client.socket.SetSendBufferBytes(options_.control_sndbuf_bytes);
  }
  // A drained scope never paints: one trace column per signal is all the
  // storage it keeps.
  session->scope = std::make_unique<Scope>(
      shard.loop, ScopeOptions{.name = "control-" + std::to_string(client_key), .width = 1});
  Scope* scope = session->scope.get();
  // Sharded servers build route tables from any loop: the scope must gate
  // its drain against them (no-op at loops = 1).
  scope->SetConcurrent(pool_.size() > 1);
  scope->SetPollingMode(options_.control_poll_period_ms);
  // Judge producer timestamps on the server's existing display axis: a
  // session created mid-stream must not restart scope time at zero.
  if (Scope* reference = router_.FirstScope()) {
    scope->AdoptTimeBase(*reference);
  }
  // Tenant scoping before registration (no route lock needed: the filter is
  // not yet visible to rebuilds): this session only ever matches names
  // carrying its namespace prefix.
  session->filter.SetNamespace(client.ns);
  client.session = std::move(session);
  // Egress: every sample routed to the session scope is re-serialized down
  // the connection (through the client's writer, armed at accept); overload
  // discards whole tuples only, victim per the configured policy
  // (drop-oldest evictions surface as echo_evicted).  Session scopes are
  // pure display-only consumers EXCEPT for this tap: the echo contract is
  // per-sample, so the tap registers as kEverySample and the route table
  // keeps the session's slots on the history path.  A session pinned at its
  // egress cap for degrade_stalled_ms is downgraded to TapMode::kCoalesced
  // by Sweep() - the full last-wins fold for free - and restored once the
  // backlog drains calm.  The scope drains at each echo deadline (at least
  // once per control_poll_period_ms) and ends every drain with the
  // session's one write.
  InstallEchoTap(client, TapMode::kEverySample);
  Client* cp = &client;
  scope->StartDraining([this, cp]() { WriteEcho(*cp); });
  router_.AddScope(scope, &client.session->filter);
  shard.session_count.fetch_add(1, std::memory_order_relaxed);
  stats_.sessions_opened += 1;
  return *client.session;
}

void StreamServer::Reply(Client& client, std::string_view line) {
  if (client.binary_egress && !client.egress_enc.empty()) {
    // Staged echo samples precede the reply on the wire (ordering).
    FlushEgress(client);
  }
  // Control replies are exempt from the egress quota: protocol liveness
  // (PONG, ERR, NOTICE) must survive a tenant spending its byte budget.
  int64_t evicted_before = client.writer.stats().units_evicted;
  std::string& buf = client.writer.BeginFrame();
  uint32_t weight = 1;
  if (client.binary_egress) {
    wire::WireEncoder::EmitTextLineFrame(buf, line);
    weight = 0;  // replies carry no tuples; evicting one costs no samples
  } else {
    buf.append(line);
    buf.push_back('\n');
  }
  if (!client.writer.CommitFrame(weight)) {
    stats_.echo_dropped += 1;
  }
  stats_.echo_evicted += client.writer.stats().units_evicted - evicted_before;
  client.writer.Flush();
}

void StreamServer::InstallEchoTap(Client& client, TapMode mode) {
  client.session->tap_mode = mode;
  // The Client object is stable (owned by unique_ptr in the shard map, and
  // the tap dies with the session scope before it does); the tap runs on
  // the client's own loop at scope drain time, and the drain's end writes.
  Client* cp = &client;
  client.session->scope->SetBufferedTap(
      [this, cp](std::string_view name, int64_t time_ms, double value) {
        EmitEcho(*cp, name, time_ms, value);
      },
      mode);
}

void StreamServer::FlushEgress(Client& client) {
  size_t n = client.egress_enc.staged_samples();
  if (n == 0) {
    return;
  }
  // Seal outside the writer, then quota-gate the WHOLE frame at its actual
  // wire size: a refused frame is discarded in one piece (quota_drops keeps
  // the per-tuple tally, quota_drops_bin counts the frame).
  client.egress_scratch.clear();
  client.egress_enc.EmitFrame(client.egress_scratch);
  if (!EgressAllowed(client)) {
    stats_.quota_drops += static_cast<int64_t>(n);
    stats_.quota_drops_bin += 1;
    return;
  }
  int64_t evicted_before = client.writer.stats().units_evicted;
  std::string& buf = client.writer.BeginFrame();
  buf.append(client.egress_scratch);
  if (client.writer.CommitFrame(static_cast<uint32_t>(n))) {
    stats_.tuples_echoed += static_cast<int64_t>(n);
    ChargeEgress(client, client.egress_scratch.size());
  } else {
    stats_.echo_dropped += static_cast<int64_t>(n);
  }
  stats_.echo_evicted += client.writer.stats().units_evicted - evicted_before;
}

void StreamServer::BindDict(Client& client, uint32_t id, std::string_view name) {
  // The decoder validated id's range and the name's length; resize is
  // bounded by kMaxDictId.
  if (client.dict.size() < id) {
    client.dict.resize(id);
  }
  DictEntry& entry = client.dict[id - 1];
  if (entry.bound && entry.name == name) {
    return;  // steady state: every frame redeclares its bindings, a no-op
  }
  if (name.find(kNamespaceSep) != std::string_view::npos) {
    // The namespace separator is the server's own tenant-identity byte: a
    // wire name carrying it could impersonate another tenant.  Rejected
    // like any malformed declaration; the id stays unbound.
    entry.bound = false;
    stats_.parse_errors += 1;
    return;
  }
  entry.name.assign(name);
  entry.routed_name = NamespacedName(client.ns, name);
  entry.bound = true;
  uint32_t route = 0;
  entry.has_route = router_.ResolveRoute(entry.routed_name, &route);
  entry.route = route;
  stats_.dict_entries += 1;
}

void StreamServer::IngestRecords(Client& client, int64_t base_time_ms,
                                 const char* records, size_t n) {
  // Streams repeat ids in runs (a producer emits a burst per signal): the
  // dict entry is looked up once per run, not per sample.
  uint32_t run_id = 0;
  bool run_valid = false;
  const DictEntry* entry = nullptr;
  for (size_t i = 0; i < n; ++i, records += wire::kSampleRecordBytes) {
    uint32_t id = wire::LoadU32(records);
    int64_t time_ms = base_time_ms + wire::LoadI32(records + 4);
    double value = wire::LoadF64(records + 8);
    if (id == 0) {
      // Unnamed two-field form: the single-signal shim path.
      stats_.tuples += 1;
      if (ingest_tap_) {
        ingest_tap_(TupleView{time_ms, value, {}});
      }
      router_.Append({}, time_ms, value);
      continue;
    }
    if (!run_valid || id != run_id) {
      run_id = id;
      run_valid = true;
      entry = id <= client.dict.size() && client.dict[id - 1].bound
                  ? &client.dict[id - 1]
                  : nullptr;
    }
    if (entry == nullptr) {
      // Unknown id: the frame's dict section did not declare it (producer
      // bug); counted like any other malformed tuple.
      stats_.parse_errors += 1;
      continue;
    }
    stats_.tuples += 1;
    if (ingest_tap_) {
      ingest_tap_(TupleView{time_ms, value, entry->name});
    }
    if (entry->has_route) {
      router_.AppendRoute(entry->route, time_ms, value);
    } else {
      router_.Append(entry->routed_name, time_ms, value);
    }
  }
}

// -- Derived-signal pipelines (docs/protocol.md "Derived-signal pipelines") --

bool StreamServer::ParseStageSpec(std::string_view verb, std::string_view arg,
                                  std::string_view arg2, StageSpec& spec,
                                  std::string& err) {
  auto parse_int = [](std::string_view s, int64_t& out) {
    auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    return !s.empty() && ec == std::errc{} && p == s.data() + s.size();
  };
  if (verb == "DECIMATE") {
    spec.kind = StageSpec::Kind::kDecimate;
    if (!parse_int(arg, spec.factor) || spec.factor < 1) {
      err = "ERR DECIMATE bad-factor";
      return false;
    }
    spec.text.append("DECIMATE ").append(std::to_string(spec.factor));
    return true;
  }
  if (verb == "EWMA") {
    spec.kind = StageSpec::Kind::kEwma;
    auto [p, ec] = std::from_chars(arg.data(), arg.data() + arg.size(), spec.alpha);
    if (arg.empty() || ec != std::errc{} || p != arg.data() + arg.size() ||
        !(spec.alpha > 0.0) || spec.alpha > 1.0) {
      err = "ERR EWMA bad-alpha";
      return false;
    }
    // Canonical shortest form: "EWMA .5" and "EWMA 0.50" key the same group.
    char buf[32];
    auto r = std::to_chars(buf, buf + sizeof(buf), spec.alpha);
    spec.text.append("EWMA ").append(buf, static_cast<size_t>(r.ptr - buf));
    return true;
  }
  if (verb == "ENVELOPE") {
    spec.kind = StageSpec::Kind::kEnvelope;
    if (!parse_int(arg, spec.window_ms) || spec.window_ms < 1) {
      err = "ERR ENVELOPE bad-window";
      return false;
    }
    spec.text.append("ENVELOPE ").append(std::to_string(spec.window_ms));
    return true;
  }
  // SPECTRUM n [window]
  spec.kind = StageSpec::Kind::kSpectrum;
  if (!parse_int(arg, spec.factor) || spec.factor < 2 || spec.factor > 65536) {
    err = "ERR SPECTRUM bad-size";
    return false;
  }
  std::string_view window = arg2.empty() ? std::string_view("hann") : arg2;
  if (window == "rect" || window == "rectangular") {
    spec.window = WindowKind::kRectangular;
    window = "rect";
  } else if (window == "hann") {
    spec.window = WindowKind::kHann;
  } else if (window == "hamming") {
    spec.window = WindowKind::kHamming;
  } else if (window == "blackman") {
    spec.window = WindowKind::kBlackman;
  } else {
    err = "ERR SPECTRUM bad-window";
    return false;
  }
  spec.text.append("SPECTRUM ")
      .append(std::to_string(spec.factor))
      .append(" ")
      .append(window);
  return true;
}

std::string StreamServer::StageKey(std::string_view ns, int64_t delay_ms,
                                   const SignalFilter& filter,
                                   std::string_view spec) {
  // The namespace separator cannot appear in a pattern, a namespace or a
  // spec (BindDict and the text grammar both reject it), so the join is
  // unambiguous.  Patterns sorted: subscription order must not split groups.
  std::vector<std::string> patterns = filter.patterns();
  std::sort(patterns.begin(), patterns.end());
  std::string key;
  key.append(ns);
  key.push_back(kNamespaceSep);
  key.append(std::to_string(delay_ms));
  key.push_back(kNamespaceSep);
  key.append(spec);
  for (const std::string& pattern : patterns) {
    key.push_back(kNamespaceSep);
    key.append(pattern);
  }
  return key;
}

void StreamServer::AttachStage(LoopShard& shard, Client& client,
                               const StageSpec& spec) {
  ControlSession& session = *client.session;
  std::string key =
      StageKey(client.ns, session.scope->delay_ms(), session.filter, spec.text);
  if (session.group != nullptr && session.group->key == key) {
    session.stage = spec;  // same group (e.g. a replayed verb): nothing moves
    return;
  }
  if (session.group != nullptr) {
    LeaveGroup(shard, client);
  } else {
    // The session's own scope goes dormant while staged: the group's scope
    // is the one the router feeds, and the member count is what keeps the
    // shared evaluation honest.
    router_.RemoveScope(session.scope.get());
  }
  session.stage = spec;
  auto it = shard.stage_groups.find(key);
  if (it == shard.stage_groups.end()) {
    auto group = std::make_unique<StageGroup>();
    StageGroup* g = group.get();
    g->key = key;
    g->ns = client.ns;
    g->spec = session.stage;
    for (const std::string& pattern : session.filter.patterns()) {
      g->filter.Add(pattern);
    }
    g->filter.SetNamespace(client.ns);
    int id = next_stage_id_.fetch_add(1, std::memory_order_relaxed);
    g->scope = std::make_unique<Scope>(
        shard.loop, ScopeOptions{.name = "stage-" + std::to_string(id), .width = 1});
    Scope* scope = g->scope.get();
    scope->SetConcurrent(pool_.size() > 1);
    scope->SetPollingMode(options_.control_poll_period_ms);
    // Same time axis and late-drop window as the sessions it serves.
    scope->AdoptTimeBase(*session.scope);
    scope->SetDelayMs(session.scope->delay_ms());
    // The evaluation tap: every routed sample evaluates the stage ONCE,
    // however many members ride the group (stats_.stage_evals is the
    // share-once proof the tests assert on).
    scope->SetBufferedTap(
        [this, g](std::string_view name, int64_t time_ms, double value) {
          EvaluateStage(*g, name, time_ms, value);
        },
        TapMode::kEverySample);
    // Each drain ends with the relay frame and the members' writes.
    scope->StartDraining([this, g]() { EndGroupDrain(*g); });
    router_.AddScope(scope, &g->filter);
    stats_.stages_active += 1;
    it = shard.stage_groups.emplace(std::move(key), std::move(group)).first;
  }
  session.group = it->second.get();
  it->second->members.push_back(&client);
}

void StreamServer::ReattachStage(LoopShard& shard, Client& client) {
  if (client.session == nullptr ||
      client.session->stage.kind == StageSpec::Kind::kNone) {
    return;
  }
  AttachStage(shard, client, client.session->stage);
}

void StreamServer::DetachStage(LoopShard& shard, Client& client, TapMode mode) {
  LeaveGroup(shard, client);
  client.session->stage = StageSpec{};
  // Restore the session's own scope: tap first (the scope is unregistered,
  // so no rebuild can read it mid-swap), then re-register.
  InstallEchoTap(client, mode);
  router_.AddScope(client.session->scope.get(), &client.session->filter);
}

void StreamServer::LeaveGroup(LoopShard& shard, Client& client) {
  StageGroup* g = client.session->group;
  client.session->group = nullptr;
  auto member = std::find(g->members.begin(), g->members.end(), &client);
  if (member != g->members.end()) {
    g->members.erase(member);
  }
  if (!g->members.empty()) {
    return;
  }
  // Last member out: the group dies (epoch bump: routes re-snapshot).
  router_.RemoveScope(g->scope.get());
  stats_.stages_active -= 1;
  shard.stage_groups.erase(g->key);
}

void StreamServer::EvaluateStage(StageGroup& g, std::string_view name,
                                 int64_t time_ms, double value) {
  stats_.stage_evals += 1;
  // Members share the group's namespace (part of the key): strip once.
  name = StripTenantPrefix(g.ns, name);
  auto it = g.signals.find(name);
  if (it == g.signals.end()) {
    it = g.signals.try_emplace(std::string(name)).first;
  }
  StageGroup::SignalState& st = it->second;
  switch (g.spec.kind) {
    case StageSpec::Kind::kDecimate:
      // The first sample of a signal emits, then every factor-th after it:
      // a subscriber sees data immediately at 1/n the rate.
      if (st.count++ % g.spec.factor == 0) {
        EmitDerived(g, name, time_ms, value);
      }
      return;
    case StageSpec::Kind::kEwma:
      st.ewma = st.has_ewma
                    ? g.spec.alpha * value + (1.0 - g.spec.alpha) * st.ewma
                    : value;
      st.has_ewma = true;
      EmitDerived(g, name, time_ms, st.ewma);
      return;
    case StageSpec::Kind::kEnvelope: {
      if (st.has_window && time_ms - st.window_start_ms >= g.spec.window_ms) {
        // Close the window: one <name>.min and one <name>.max tuple,
        // stamped at the window's end.
        int64_t end_ms = st.window_start_ms + g.spec.window_ms;
        st.scratch_name.assign(name);
        size_t base = st.scratch_name.size();
        st.scratch_name.append(".min");
        EmitDerived(g, st.scratch_name, end_ms, st.env.LowAt(0));
        st.scratch_name.resize(base);
        st.scratch_name.append(".max");
        EmitDerived(g, st.scratch_name, end_ms, st.env.HighAt(0));
        st.env.Reset();
        st.has_window = false;
      }
      if (!st.has_window) {
        st.has_window = true;
        st.window_start_ms = time_ms;
      }
      // A width-1 envelope is a running min/max fold over the open window.
      st.one[0] = value;
      st.env.AddSweep(st.one);
      return;
    }
    case StageSpec::Kind::kSpectrum: {
      if (st.block.empty()) {
        st.block_start_ms = time_ms;
      }
      st.block.push_back(value);
      st.last_ms = time_ms;
      if (st.block.size() < static_cast<size_t>(g.spec.factor)) {
        return;
      }
      // Sample rate from the block's own timestamps (producers own the
      // clock); degenerate spacing falls back to 1 kHz.
      double rate_hz = 1000.0;
      if (st.last_ms > st.block_start_ms) {
        rate_hz = static_cast<double>(st.block.size() - 1) * 1000.0 /
                  static_cast<double>(st.last_ms - st.block_start_ms);
      }
      Spectrum spectrum =
          ComputeSpectrum(st.block, rate_hz, {.window = g.spec.window});
      st.block.clear();
      // Bins stream as synthetic signals <name>.bin0 .. <name>.binN/2, all
      // stamped at the block's last sample.
      for (size_t bin = 0; bin < spectrum.power_db.size(); ++bin) {
        st.scratch_name.assign(name);
        st.scratch_name.append(".bin");
        st.scratch_name.append(std::to_string(bin));
        EmitDerived(g, st.scratch_name, st.last_ms, spectrum.power_db[bin]);
      }
      return;
    }
    case StageSpec::Kind::kNone:
      return;
  }
}

void StreamServer::EmitDerived(StageGroup& g, std::string_view name,
                               int64_t time_ms, double value) {
  bool any_text = false;
  bool any_binary = false;
  for (Client* member : g.members) {
    (member->binary_egress ? any_binary : any_text) = true;
  }
  if (any_text) {
    // Formatted ONCE; every text member commits the same bytes.
    g.text_scratch.clear();
    AppendTuple(g.text_scratch, time_ms, value, name);
    for (Client* member : g.members) {
      if (member->binary_egress) {
        continue;
      }
      if (!EgressAllowed(*member)) {
        stats_.quota_drops += 1;
        stats_.quota_drops_text += 1;
        continue;
      }
      FramedWriter& writer = member->writer;
      int64_t evicted_before = writer.stats().units_evicted;
      std::string& buf = writer.BeginFrame();
      buf.append(g.text_scratch);
      if (writer.CommitFrame()) {
        stats_.tuples_echoed += 1;
        stats_.tuples_derived += 1;
        ChargeEgress(*member, g.text_scratch.size());
      } else {
        stats_.echo_dropped += 1;
      }
      stats_.echo_evicted += writer.stats().units_evicted - evicted_before;
    }
  }
  if (any_binary) {
    // Frame-relay: staged once into the group's encoder; the sealed frame
    // broadcasts byte-identical to every binary member (SAMPLES frames are
    // self-contained - per-frame dictionaries - so sharing is sound).
    wire::StageResult r = g.enc.Add(name, time_ms, value);
    if (r == wire::StageResult::kFrameFull) {
      FlushGroupEgress(g);
      r = g.enc.Add(name, time_ms, value);
    }
    if (r != wire::StageResult::kStaged) {
      stats_.echo_dropped += 1;
      return;
    }
    if (g.enc.staged_samples() >= kEgressFrameSamples) {
      FlushGroupEgress(g);
    }
  }
}

void StreamServer::FlushGroupEgress(StageGroup& g) {
  size_t n = g.enc.staged_samples();
  if (n == 0) {
    return;
  }
  g.frame_scratch.clear();
  g.enc.EmitFrame(g.frame_scratch);
  for (Client* member : g.members) {
    if (!member->binary_egress) {
      continue;
    }
    if (!EgressAllowed(*member)) {
      stats_.quota_drops += static_cast<int64_t>(n);
      stats_.quota_drops_bin += 1;
      continue;
    }
    FramedWriter& writer = member->writer;
    int64_t evicted_before = writer.stats().units_evicted;
    std::string& buf = writer.BeginFrame();
    buf.append(g.frame_scratch);
    if (writer.CommitFrame(static_cast<uint32_t>(n))) {
      stats_.tuples_echoed += static_cast<int64_t>(n);
      stats_.tuples_derived += static_cast<int64_t>(n);
      ChargeEgress(*member, g.frame_scratch.size());
    } else {
      stats_.echo_dropped += static_cast<int64_t>(n);
    }
    stats_.echo_evicted += writer.stats().units_evicted - evicted_before;
  }
}

void StreamServer::EndGroupDrain(StageGroup& g) {
  FlushGroupEgress(g);
  for (Client* member : g.members) {
    member->writer.Flush();
  }
}

bool StreamServer::Sweep(LoopShard& shard) {
  Nanos now = shard.loop->clock()->NowNs();

  if (options_.idle_timeout_ms > 0) {
    Nanos cutoff = MillisToNanos(options_.idle_timeout_ms);
    std::vector<int> idle;  // collect first: DropClient mutates the map
    for (const auto& [key, client] : shard.clients) {
      if (now - client->last_activity_ns >= cutoff) {
        idle.push_back(key);
      }
    }
    for (int key : idle) {
      stats_.clients_idle_dropped += 1;
      DropClient(shard, key);
    }
  }

  if (options_.degrade_stalled_ms > 0) {
    Nanos window = MillisToNanos(options_.degrade_stalled_ms);
    for (auto& [key, client] : shard.clients) {
      ControlSession* s = client->session.get();
      if (s == nullptr) {
        continue;
      }
      if (s->group != nullptr) {
        // Staged sessions are not degraded: their own tap is dormant, and
        // the stage already bounds the rate by design - a member that still
        // cannot keep up sheds whole frames via its writer policy.
        continue;
      }
      FramedWriter& writer = client->writer;
      const FramedWriter::Stats& w = writer.stats();
      int64_t loss = w.frames_dropped + w.frames_evicted;
      // "Pinned" = the backlog is holding at least half its cap, or frames
      // were lost since the last sweep - either way the subscriber is not
      // keeping up with the per-sample echo.
      bool pinned = writer.pending_bytes() * 2 >= options_.control_max_buffer ||
                    loss != s->last_loss_frames;
      // "Calm" = backlog nearly drained AND no loss for a whole window.
      bool calm = writer.pending_bytes() * 8 <= options_.control_max_buffer &&
                  loss == s->last_loss_frames;
      s->last_loss_frames = loss;

      if (s->tap_mode == TapMode::kEverySample) {
        s->calm_since_ns = -1;
        if (!pinned) {
          s->stalled_since_ns = -1;
        } else if (s->stalled_since_ns < 0) {
          s->stalled_since_ns = now;
        } else if (now - s->stalled_since_ns >= window) {
          // Degrade instead of evicting: the subscriber keeps the freshest
          // value of every signal at display granularity.  The NOTICE rides
          // the same (pinned) writer, so delivery is best-effort - the
          // taps_downgraded counter is the authoritative record.  Tap swap
          // under the route lock: rebuilds read the tap's history need.
          {
            std::unique_lock<std::mutex> routes = router_.LockRoutes();
            InstallEchoTap(*client, TapMode::kCoalesced);
          }
          stats_.taps_downgraded += 1;
          Reply(*client, "NOTICE DEGRADE coalesced");
          s->stalled_since_ns = -1;
        }
      } else {
        s->stalled_since_ns = -1;
        if (!calm) {
          s->calm_since_ns = -1;
        } else if (s->calm_since_ns < 0) {
          s->calm_since_ns = now;
        } else if (now - s->calm_since_ns >= window) {
          {
            std::unique_lock<std::mutex> routes = router_.LockRoutes();
            InstallEchoTap(*client, TapMode::kEverySample);
          }
          stats_.taps_restored += 1;
          Reply(*client, "NOTICE RESTORE every-sample");
          s->calm_since_ns = -1;
        }
      }
    }
  }
  return true;
}

void StreamServer::DropClient(LoopShard& shard, int client_key) {
  auto it = shard.clients.find(client_key);
  if (it == shard.clients.end()) {
    return;
  }
  if (it->second->watch != 0) {
    shard.loop->Remove(it->second->watch);
  }
  // An in-flight paced replay dies with its client (timer first: it must
  // not fire against the erased entry).
  CancelReplay(shard, *it->second);
  if (it->second->session != nullptr) {
    if (it->second->session->group != nullptr) {
      // Leave the shared stage first (possibly tearing the group down); the
      // session's own scope is unregistered while staged, so the
      // RemoveScope below is then a no-op.
      LeaveGroup(shard, *it->second);
    }
    // Unregister the session scope (epoch bump: routes re-snapshot) before
    // its storage goes away with the client entry.
    router_.RemoveScope(it->second->session->scope.get());
    shard.session_count.fetch_sub(1, std::memory_order_relaxed);
  }
  shard.clients.erase(it);
  shard.client_count.fetch_sub(1, std::memory_order_relaxed);
  stats_.disconnections += 1;
}

}  // namespace gscope
