#include "net/control_client.h"

#include <algorithm>
#include <charconv>

namespace gscope {

namespace {

// Parses a non-negative integer argument after `prefix` ("PONG 123",
// "OK TIME 456").  Returns false when absent or malformed.
bool ParseIntArg(std::string_view line, std::string_view prefix, int64_t* out) {
  if (line.size() <= prefix.size() || line.rfind(prefix, 0) != 0 ||
      line[prefix.size()] != ' ') {
    return false;
  }
  std::string_view arg = line.substr(prefix.size() + 1);
  auto [p, ec] = std::from_chars(arg.data(), arg.data() + arg.size(), *out);
  return ec == std::errc{} && p == arg.data() + arg.size();
}

}  // namespace

ControlClient::ControlClient(MainLoop* loop, ControlClientOptions options)
    : loop_(loop),
      options_(options),
      framer_(options.max_line_bytes),
      stream_(loop, StreamClient::Options{.max_buffer = options.max_buffer,
                                          .overflow_policy = options.overflow_policy,
                                          .block_deadline_ms = options.block_deadline_ms,
                                          .sndbuf_bytes = options.sndbuf_bytes,
                                          .reconnect = options.reconnect,
                                          .wire_format = options.wire_format,
                                          .frame_samples = options.frame_samples}) {
  stream_.SetInboundCallback([this](std::string_view bytes) { OnInbound(bytes); });
  stream_.SetStateCallback([this](ConnectState state) { OnStateChange(state); });
  stream_.SetConnectCallback([this](bool ok, int error) { OnConnectResolved(ok, error); });
}

ControlClient::~ControlClient() { Close(); }

// Decoder callbacks for the server's framed egress.
struct ControlClient::RxHandler {
  ControlClient* client;
  void OnDictEntry(uint32_t id, std::string_view name) {
    client->BindRxName(id, name);
  }
  void OnSampleBatch(int64_t base_time_ms, const char* records, size_t n) {
    client->DeliverRecords(base_time_ms, records, n);
  }
  void OnTextLine(std::string_view line) { client->HandleLine(line); }
};

int64_t ControlClient::LocalNowMs() const {
  return loop_->clock()->NowNs() / kNanosPerMilli;
}

bool ControlClient::Connect(uint16_t port) { return stream_.Connect(port); }

void ControlClient::Close() {
  StopLiveness();
  stream_.Close();
}

void ControlClient::OnStateChange(ConnectState state) {
  if (state == ConnectState::kConnecting) {
    // A new attempt: verbs declared from here on ride its queued frames
    // (flushed at establishment) and must not be replayed.
    handshake_subs_.clear();
    handshake_delay_ = false;
    handshake_auth_ = false;
    handshake_stage_ = false;
  } else if (state != ConnectState::kConnected) {
    StopLiveness();  // the connection is gone
  }
  if (on_state_) {
    on_state_(state);
  }
}

void ControlClient::OnConnectResolved(bool ok, int error) {
  if (ok) {
    OnEstablished();
  }
  if (on_connect_) {
    on_connect_(ok, error);
  }
}

void ControlClient::OnEstablished() {
  // The frames queued during the handshake, then (binary) HELLO BIN 1, are
  // already ahead in the backlog; the session replay follows them (the SUBs
  // still travel as text: the server parses text until our first binary
  // frame).
  framer_.Reset();
  decoder_.Reset();
  rx_names_.clear();
  time_req_sent_ms_ = -1;
  if (options_.auto_resubscribe) {
    // Session resumption: replay the CURRENT remembered state (so an
    // Unsubscribe/SetDelay issued mid-handshake is never overridden by a
    // stale snapshot), skipping verbs already queued during this handshake
    // - they are ahead in the backlog, and a duplicate SUB would draw an ERR.
    // The transport's SendCommand (not Subscribe), so nothing re-records.
    // AUTH goes first: the server scopes the session's filter at SUB time
    // from the tenant identity, so replayed SUBs must land inside the
    // namespace.
    if (has_auth_ && !handshake_auth_) {
      if (stream_.SendCommand("AUTH", auth_token_)) {
        stats_.resumed_commands += 1;
      }
    }
    for (const std::string& pattern : sub_patterns_) {
      if (std::find(handshake_subs_.begin(), handshake_subs_.end(), pattern) !=
          handshake_subs_.end()) {
        continue;
      }
      if (stream_.SendCommand("SUB", pattern)) {
        stats_.resumed_commands += 1;
      }
    }
    if (has_delay_ && !handshake_delay_) {
      char buf[24];
      auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), delay_ms_);
      (void)ec;
      if (stream_.SendCommand("DELAY", std::string_view(buf, static_cast<size_t>(p - buf)))) {
        stats_.resumed_commands += 1;
      }
    }
    if (has_stage_ && !handshake_stage_) {
      // The stage replays LAST: the server keys stage groups on the
      // session's (namespace, delay, pattern set), all restored above.
      std::string_view spec = stage_spec_;
      size_t space = spec.find(' ');
      std::string_view verb = spec.substr(0, space);
      std::string_view spec_arg =
          space == std::string_view::npos ? std::string_view{} : spec.substr(space + 1);
      if (stream_.SendCommand(verb, spec_arg)) {
        stats_.resumed_commands += 1;
      }
    }
  }
  if (options_.sync_time_on_connect) {
    RequestTime();
  }
  last_rx_ns_ = loop_->clock()->NowNs();
  tx_idle_since_ns_ = last_rx_ns_;
  tx_commits_seen_ = CommitsExceptPings();
  // A hard write error during the replay may already have dropped the
  // connection; liveness then waits for the next establishment.
  if (connected() && (options_.ping_interval_ms > 0 || options_.idle_timeout_ms > 0)) {
    int64_t period = 0;
    if (options_.ping_interval_ms > 0) {
      period = options_.ping_interval_ms;
    }
    if (options_.idle_timeout_ms > 0) {
      // Check often enough that a dead link is declared within ~1.25x the
      // configured timeout even without pings.
      int64_t check = std::max<int64_t>(1, options_.idle_timeout_ms / 4);
      period = period == 0 ? check : std::min(period, check);
    }
    liveness_timer_ = loop_->AddTimeoutMs(
        period, std::function<bool()>([this]() { return OnLivenessTick(); }));
  }
}

bool ControlClient::OnLivenessTick() {
  Nanos now = loop_->clock()->NowNs();
  if (options_.idle_timeout_ms > 0 &&
      now - last_rx_ns_ >= MillisToNanos(options_.idle_timeout_ms)) {
    // Nothing received for the whole window (pings included, when enabled):
    // the peer is gone even if TCP has not noticed.  Tear down; reconnect
    // takes over when enabled.
    stats_.liveness_timeouts += 1;
    liveness_timer_ = 0;  // self-removal via return false below
    stream_.DropConnection();
    return false;
  }
  if (options_.ping_interval_ms > 0) {
    // Send-idleness is read here, once per tick, rather than stamped on
    // every Send: any commit since the last tick counts as traffic at this
    // tick.
    int64_t commits = CommitsExceptPings();
    if (commits != tx_commits_seen_) {
      tx_commits_seen_ = commits;
      tx_idle_since_ns_ = now;
    } else if (now - tx_idle_since_ns_ >= MillisToNanos(options_.ping_interval_ms) &&
               Ping()) {
      tx_idle_since_ns_ = now;
    }
  }
  return true;
}

void ControlClient::StopLiveness() {
  if (liveness_timer_ != 0) {
    loop_->Remove(liveness_timer_);
    liveness_timer_ = 0;
  }
}

void ControlClient::OnInbound(std::string_view bytes) {
  if (bytes.empty()) {
    // End of stream: a torn partially-buffered frame counts once; a line
    // without its terminator is still handed over.
    if (stream_.wire_binary()) {
      decoder_.Finish();
      stats_.parse_errors += decoder_.Take().crc_errors;
    } else {
      framer_.FlushTail([this](std::string_view line) { HandleLine(line); });
    }
    return;
  }
  stats_.bytes_received += static_cast<int64_t>(bytes.size());
  last_rx_ns_ = loop_->clock()->NowNs();
  const char* p = bytes.data();
  size_t n = bytes.size();
  while (n > 0) {
    if (stream_.wire_binary()) {
      RxHandler handler{this};
      decoder_.Consume(p, n, handler);
      stats_.parse_errors += decoder_.Take().crc_errors;
      break;
    }
    // The "OK HELLO BIN 1" line is the exact flip point: everything the
    // server sends after it is framed, so the line parser must stop there
    // and hand the chunk's remainder to the decoder.
    size_t used = framer_.ConsumeStoppable(
        p, n, &stats_.parse_errors, [this](std::string_view line) {
          bool was_binary = stream_.wire_binary();
          HandleLine(line);
          return stream_.wire_binary() == was_binary;
        });
    p += used;
    n -= used;
  }
}

void ControlClient::BindRxName(uint32_t id, std::string_view name) {
  if (rx_names_.size() < id) {
    rx_names_.resize(id);
  }
  rx_names_[id - 1].assign(name);
}

void ControlClient::DeliverRecords(int64_t base_time_ms, const char* records,
                                   size_t n) {
  for (size_t i = 0; i < n; ++i, records += wire::kSampleRecordBytes) {
    uint32_t id = wire::LoadU32(records);
    int64_t time_ms = base_time_ms + wire::LoadI32(records + 4);
    double value = wire::LoadF64(records + 8);
    std::string_view name;
    if (id != 0) {
      if (id > rx_names_.size()) {
        stats_.parse_errors += 1;  // frame did not declare the id
        continue;
      }
      name = rx_names_[id - 1];
    }
    stats_.tuples_received += 1;
    if (on_tuple_) {
      on_tuple_(TupleView{time_ms, value, name});
    }
  }
}

void ControlClient::HandleLine(std::string_view line) {
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
  }
  if (line.empty()) {
    return;
  }
  char c = line.front();
  if ((c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z')) {
    if (line.rfind("OK", 0) == 0) {
      stats_.replies_ok += 1;
      stream_.TakeHelloReply(line);  // "OK HELLO BIN 1": both directions framed
      int64_t server_ms = 0;
      if (time_req_sent_ms_ >= 0 && ParseIntArg(line, "OK TIME", &server_ms)) {
        // Midpoint estimate: the server stamped its scope time somewhere in
        // the round trip; assume halfway.  Good to ~RTT/2, which on the
        // links gscope targets is far finer than the late-drop delay.
        int64_t now = LocalNowMs();
        int64_t rtt = now - time_req_sent_ms_;
        last_rtt_ms_ = rtt;
        time_offset_ms_ = server_ms + rtt / 2 - now;
        has_time_offset_ = true;
        stats_.time_syncs += 1;
        time_req_sent_ms_ = -1;
      }
    } else if (line.rfind("ERR", 0) == 0) {
      stats_.replies_err += 1;
      stream_.TakeHelloReply(line);  // "ERR HELLO": declined, text for good
    } else if (line.rfind("INFO", 0) == 0) {
      stats_.replies_info += 1;
    } else if (line.rfind("PONG", 0) == 0) {
      stats_.pongs_received += 1;
      int64_t token = 0;
      if (ParseIntArg(line, "PONG", &token)) {
        last_rtt_ms_ = LocalNowMs() - token;  // token = our clock at send
      }
    } else if (line.rfind("NOTICE", 0) == 0) {
      stats_.notices += 1;
    } else {
      stats_.parse_errors += 1;
      return;
    }
    if (on_reply_) {
      on_reply_(line);
    }
    return;
  }
  std::optional<TupleView> tuple = ParseTupleView(line);
  if (!tuple.has_value()) {
    if (!IsIgnorableLine(line)) {
      stats_.parse_errors += 1;
    }
    return;
  }
  stats_.tuples_received += 1;
  if (on_tuple_) {
    on_tuple_(*tuple);
  }
}

bool ControlClient::Subscribe(std::string_view glob) {
  // Remember the pattern even when the send fails (e.g. disconnected):
  // declared intent is what a reconnect replays.
  if (std::find(sub_patterns_.begin(), sub_patterns_.end(), glob) == sub_patterns_.end()) {
    sub_patterns_.emplace_back(glob);
  }
  bool sent = stream_.SendCommand("SUB", glob);
  if (sent && state() == ConnectState::kConnecting) {
    handshake_subs_.emplace_back(glob);  // already queued; replay must skip it
  }
  return sent;
}

bool ControlClient::Auth(std::string_view token) {
  // Like Subscribe: remember the declared identity even when the send fails,
  // so the next establishment replays it (ahead of the SUB replay - tenant
  // scoping must exist before subscriptions re-land).
  has_auth_ = true;
  auth_token_.assign(token.data(), token.size());
  bool sent = stream_.SendCommand("AUTH", token);
  if (sent && state() == ConnectState::kConnecting) {
    handshake_auth_ = true;  // the queued AUTH frame already carries it
  }
  return sent;
}

bool ControlClient::Unsubscribe(std::string_view glob) {
  auto it = std::find(sub_patterns_.begin(), sub_patterns_.end(), glob);
  if (it != sub_patterns_.end()) {
    sub_patterns_.erase(it);
  }
  return stream_.SendCommand("UNSUB", glob);
}

bool ControlClient::SetDelay(int64_t delay_ms) {
  if (delay_ms >= 0) {
    has_delay_ = true;
    delay_ms_ = delay_ms;
  }
  char buf[24];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), delay_ms);
  (void)ec;
  bool sent = stream_.SendCommand("DELAY", std::string_view(buf, static_cast<size_t>(p - buf)));
  if (sent && delay_ms >= 0 && state() == ConnectState::kConnecting) {
    handshake_delay_ = true;  // the queued DELAY frame already carries it
  }
  return sent;
}

bool ControlClient::Stage(std::string_view spec) {
  // Like Subscribe: remember the declared stage even when the send fails,
  // so the next establishment replays it (after the SUB/DELAY replay - the
  // server keys shared stages on the restored subscription set).
  has_stage_ = true;
  stage_spec_.assign(spec.data(), spec.size());
  size_t space = spec.find(' ');
  std::string_view verb = spec.substr(0, space);
  std::string_view arg =
      space == std::string_view::npos ? std::string_view{} : spec.substr(space + 1);
  bool sent = stream_.SendCommand(verb, arg);
  if (sent && state() == ConnectState::kConnecting) {
    handshake_stage_ = true;  // the queued frame already carries it
  }
  return sent;
}

bool ControlClient::ClearStage() {
  has_stage_ = false;
  stage_spec_.clear();
  handshake_stage_ = false;
  return stream_.SendCommand("RAW", {});
}

bool ControlClient::RequestList() { return stream_.SendCommand("LIST", {}); }

bool ControlClient::RequestStages() { return stream_.SendCommand("LIST", "STAGES"); }

bool ControlClient::RequestStats() { return stream_.SendCommand("STATS", {}); }

bool ControlClient::Record(std::string_view path) {
  if (path.empty()) {
    return false;
  }
  return stream_.SendCommand("RECORD", path);
}

bool ControlClient::StopRecord() { return stream_.SendCommand("RECORD", "OFF"); }

bool ControlClient::Replay(int64_t t0, int64_t t1, double speed) {
  std::string arg;
  arg.append(std::to_string(t0)).push_back(' ');
  arg.append(std::to_string(t1));
  if (speed > 0.0) {
    char buf[32];
    auto r = std::to_chars(buf, buf + sizeof(buf), speed);
    arg.push_back(' ');
    arg.append(buf, static_cast<size_t>(r.ptr - buf));
  }
  return stream_.SendCommand("REPLAY", arg);
}

bool ControlClient::Ping() {
  char buf[24];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), LocalNowMs());
  (void)ec;
  bool sent = stream_.SendCommand("PING", std::string_view(buf, static_cast<size_t>(p - buf)));
  if (sent) {
    stats_.pings_sent += 1;
  }
  return sent;
}

bool ControlClient::RequestTime() {
  bool sent = stream_.SendCommand("TIME", {});
  if (sent) {
    time_req_sent_ms_ = LocalNowMs();
  }
  return sent;
}

int64_t ControlClient::ServerNowMs() const {
  if (!has_time_offset_) {
    return 0;
  }
  return LocalNowMs() + time_offset_ms_;
}

void ControlClient::ForgetSession() {
  sub_patterns_.clear();
  handshake_subs_.clear();
  has_delay_ = false;
  handshake_delay_ = false;
  has_auth_ = false;
  auth_token_.clear();
  handshake_auth_ = false;
  has_stage_ = false;
  stage_spec_.clear();
  handshake_stage_ = false;
}

bool ControlClient::Send(int64_t time_ms, double value, std::string_view name) {
  return stream_.Send(time_ms, value, name);
}

}  // namespace gscope
