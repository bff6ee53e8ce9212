#include "net/stream_client.h"

#include <algorithm>
#include <string>

namespace gscope {

StreamClient::StreamClient(MainLoop* loop, Options options)
    : loop_(loop),
      options_(options),
      writer_(loop, options.max_buffer),
      jitter_rng_(options.reconnect.seed) {
  writer_.SetPolicy(options.overflow_policy, MillisToNanos(options.block_deadline_ms));
  // A hard write error after establishment means the connection is gone; the
  // writer has already dropped the backlog and detached.
  writer_.SetErrorCallback([this]() { DropConnection(); });
}

StreamClient::~StreamClient() {
  self_alias_.reset();  // invalidate deferred flush closures before teardown
  Close();
}

void StreamClient::SetState(ConnectState state) {
  if (state_ == state) {
    return;
  }
  state_ = state;
  if (on_state_) {
    on_state_(state);
  }
}

bool StreamClient::Connect(uint16_t port) {
  Close();
  port_ = port;
  cur_backoff_ms_ = std::max<int64_t>(1, options_.reconnect.initial_backoff_ms);
  failed_attempts_ = 0;
  return StartConnect();
}

bool StreamClient::StartConnect() {
  stats_.connect_attempts += 1;
  socket_ = Socket::Connect(port_);
  if (!socket_.valid()) {
    return FailAttempt(0);
  }
  if (options_.sndbuf_bytes > 0) {
    socket_.SetSendBufferBytes(options_.sndbuf_bytes);
  }
  SetState(ConnectState::kConnecting);
  // The handshake outcome is signalled by the first writability event; the
  // FramedWriter attaches only after SO_ERROR confirms establishment, so a
  // refused connect never looks like a drained backlog.
  connect_watch_ = loop_->AddIoWatch(
      socket_.fd(), IoCondition::kOut | IoCondition::kErr,
      [this](int, IoCondition cond) { return OnConnectReady(cond); });
  if (connect_watch_ == 0) {
    socket_.Close();
    return FailAttempt(0);
  }
  return true;
}

void StreamClient::Close() {
  if (connect_watch_ != 0) {
    loop_->Remove(connect_watch_);
    connect_watch_ = 0;
  }
  if (read_watch_ != 0) {
    loop_->Remove(read_watch_);
    read_watch_ = 0;
  }
  if (retry_timer_ != 0) {
    loop_->Remove(retry_timer_);
    retry_timer_ = 0;
  }
  DropStagedWire();
  if (state_ == ConnectState::kConnecting) {
    AbandonHandshake();
  } else {
    writer_.Reset();
  }
  socket_.Close();
  SetState(ConnectState::kDisconnected);
  preconnect_ = {};
  wire_ = WireState::kTextOnly;
  hello_rx_.Reset();
}

void StreamClient::AbandonHandshake() {
  // Nothing committed behind the handshake left the process, so every such
  // frame resolves to dropped.  The writer already counted some of them
  // evicted (kDropOldest made room for newer ones) and abandons the rest
  // here; both are backed out in stats() / frame_stats(), so each frame
  // ends in exactly one outcome and delivered == sent - evicted - abandoned
  // keeps holding.  The writer was empty when the handshake began.
  stats_.tuples_dropped += preconnect_.tuples;
  frames_lost_ += preconnect_.frames;
  const int64_t frames_before = writer_.stats().frames_abandoned;
  const int64_t abandoned_tuples = static_cast<int64_t>(writer_.Reset());
  const int64_t abandoned_frames = writer_.stats().frames_abandoned - frames_before;
  preconnect_discards_.tuples += abandoned_tuples;
  preconnect_discards_.frames += abandoned_frames;
  preconnect_evictions_.tuples += preconnect_.tuples - abandoned_tuples;
  preconnect_evictions_.frames += preconnect_.frames - abandoned_frames;
  preconnect_ = {};
}

bool StreamClient::OnConnectReady(IoCondition) {
  // Both kOut and kErr resolve through SO_ERROR: poll(2) reports a failed
  // non-blocking connect as writable-with-error, and reading the option
  // also clears it.
  connect_watch_ = 0;
  ResolveConnect(socket_.PendingError());
  return false;  // one-shot: the FramedWriter owns writability from here
}

void StreamClient::ResolveConnect(int error) {
  if (error != 0) {
    AbandonHandshake();
    socket_.Close();
    FailAttempt(error);
    if (on_connect_) {
      on_connect_(false, error);
    }
    return;
  }
  SetState(ConnectState::kConnected);
  failed_attempts_ = 0;
  cur_backoff_ms_ = std::max<int64_t>(1, options_.reconnect.initial_backoff_ms);
  establishments_ += 1;
  if (establishments_ > 1) {
    stats_.reconnects += 1;
  }
  stats_.tuples_sent += preconnect_.tuples;
  preconnect_ = {};
  writer_.Attach(socket_.fd());  // flushes anything queued pre-connect
  wire_ = WireState::kTextOnly;
  if (options_.wire_format == WireFormat::kBinary) {
    // Negotiate on EVERY establishment: a reconnect renegotiates HELLO (and
    // the dictionary rides inside each frame, so nothing else needs replay).
    // The line travels behind any pre-connect frames already queued; sends
    // stay text until the acknowledgment arrives.  A HELLO lost at the cap
    // leaves the connection in text.
    hello_rx_.Reset();
    encoder_.ResetDict();
    if (SendCommand("HELLO", "BIN 1")) {
      wire_ = WireState::kHelloSent;
    }
  }
  // A pure producer never expects data back, so without an inbound owner
  // the read watch exists to notice the server going away promptly
  // (EOF/reset arrives as readable) instead of on the next failed write.
  read_watch_ =
      loop_->AddIoWatch(socket_.fd(), IoCondition::kIn | IoCondition::kHup | IoCondition::kErr,
                        [this](int, IoCondition cond) { return OnSocketReadable(cond); });
  if (on_connect_) {
    on_connect_(true, 0);
  }
}

bool StreamClient::TakeHelloReply(std::string_view line) {
  if (wire_ != WireState::kHelloSent) {
    return false;
  }
  if (line.rfind("OK HELLO BIN 1", 0) == 0) {
    wire_ = WireState::kBinary;
  } else if (line.rfind("ERR HELLO", 0) == 0) {
    wire_ = WireState::kTextOnly;  // declined: stay text for good
  } else {
    return false;
  }
  return true;
}

bool StreamClient::OnSocketReadable(IoCondition cond) {
  // A callback below may close or drop this connection; the watch it
  // removed is then no longer ours to read from.
  const SourceId watch = read_watch_;
  if (!Has(cond, IoCondition::kErr)) {
    char buf[65536];
    while (true) {
      IoResult r = socket_.Read(buf, sizeof(buf));
      if (r.status == IoResult::Status::kOk) {
        if (on_inbound_) {
          on_inbound_(std::string_view(buf, r.bytes));
        } else {
          stats_.bytes_discarded += static_cast<int64_t>(r.bytes);
          if (wire_ == WireState::kHelloSent) {
            // The only reply a producer awaits: the HELLO verdict.  Anything
            // after it (there is nothing today) is discarded as before.
            hello_rx_.ConsumeStoppable(
                buf, r.bytes, &hello_rx_overlong_,
                [this](std::string_view line) { return !TakeHelloReply(line); });
          }
        }
        if (read_watch_ != watch) {
          return false;
        }
        continue;
      }
      if (r.status == IoResult::Status::kWouldBlock) {
        return true;
      }
      // EOF or hard error: the connection is gone.  The owner may still
      // hold a partial line or frame.
      if (on_inbound_) {
        on_inbound_({});
        if (read_watch_ != watch) {
          return false;
        }
      }
      break;
    }
  }
  read_watch_ = 0;  // returning false removes this watch
  DropConnection();
  return false;
}

void StreamClient::DropConnection() {
  if (state_ != ConnectState::kConnected) {
    return;
  }
  if (read_watch_ != 0) {
    loop_->Remove(read_watch_);
    read_watch_ = 0;
  }
  DropStagedWire();
  writer_.Reset();  // unsent frames are lost with the connection (abandoned)
  socket_.Close();
  HandleConnectionDeath();
}

void StreamClient::HandleConnectionDeath() {
  wire_ = WireState::kTextOnly;  // a future connection renegotiates
  const ReconnectOptions& r = options_.reconnect;
  if (r.enabled && port_ != 0 &&
      (r.max_attempts == 0 || failed_attempts_ < r.max_attempts)) {
    EnterBackoff();
    return;
  }
  SetState(ConnectState::kDisconnected);
}

bool StreamClient::FailAttempt(int error) {
  last_error_ = error;
  stats_.connect_failures += 1;
  failed_attempts_ += 1;
  const ReconnectOptions& r = options_.reconnect;
  if (r.enabled && (r.max_attempts == 0 || failed_attempts_ < r.max_attempts)) {
    EnterBackoff();
    return true;
  }
  SetState(ConnectState::kFailed);
  return false;
}

void StreamClient::EnterBackoff() {
  int64_t delay = cur_backoff_ms_;
  if (options_.reconnect.jitter_frac > 0) {
    std::uniform_real_distribution<double> jitter(0.0, options_.reconnect.jitter_frac);
    delay += static_cast<int64_t>(jitter(jitter_rng_) * static_cast<double>(cur_backoff_ms_));
  }
  delay = std::max<int64_t>(1, delay);
  last_backoff_ms_ = delay;
  cur_backoff_ms_ = std::min<int64_t>(
      std::max<int64_t>(1, options_.reconnect.max_backoff_ms),
      static_cast<int64_t>(static_cast<double>(cur_backoff_ms_) *
                           std::max(1.0, options_.reconnect.multiplier)));
  retry_timer_ = loop_->AddTimeoutMs(delay, std::function<bool()>([this]() {
                                       retry_timer_ = 0;
                                       StartConnect();
                                       return false;
                                     }));
  // Announce the state only after the delay is armed and published:
  // observers of the kBackoff edge read a consistent last_backoff_ms().
  SetState(ConnectState::kBackoff);
}

bool StreamClient::SendTuple(const Tuple& tuple) {
  return Send(tuple.time_ms, tuple.value, tuple.name);
}

bool StreamClient::Send(int64_t time_ms, double value, std::string_view name) {
  if (state_ != ConnectState::kConnected && state_ != ConnectState::kConnecting) {
    // Includes kBackoff: data produced while the link is down is disposable
    // (the paper's stance); it is counted dropped rather than queued
    // unboundedly against a server that may never come back.
    stats_.tuples_dropped += 1;
    frames_lost_ += 1;
    return false;
  }
  if (wire_ == WireState::kBinary) {
    // kBinary implies kConnected: the flip happens only after the server's
    // acknowledgment arrives on an established connection.
    return SendBinary(time_ms, value, name);
  }
  // Format in place at the end of the output backlog (its capacity is reused
  // across drains, so steady-state sends do not allocate); the writer rolls
  // the whole frame back if it would overflow the cap.
  AppendTuple(writer_.BeginFrame(), time_ms, value, name);
  if (!writer_.CommitFrame()) {
    stats_.tuples_dropped += 1;
    return false;
  }
  if (state_ == ConnectState::kConnected) {
    stats_.tuples_sent += 1;
  } else {
    preconnect_.tuples += 1;
    preconnect_.frames += 1;
  }
  return true;
}

bool StreamClient::SendCommand(std::string_view verb, std::string_view arg) {
  if (state_ != ConnectState::kConnected && state_ != ConnectState::kConnecting) {
    frames_lost_ += 1;
    return false;
  }
  if (wire_ == WireState::kBinary && !encoder_.empty()) {
    FlushWire();  // staged samples precede the verb on the wire
  }
  std::string line(verb);  // verbs are cold-path; one scratch copy is fine
  if (!arg.empty()) {
    line.push_back(' ');
    line.append(arg);
  }
  std::string& buf = writer_.BeginFrame();
  if (wire_ == WireState::kBinary) {
    wire::WireEncoder::EmitTextLineFrame(buf, line);
  } else {
    buf.append(line).push_back('\n');
  }
  // Weight 0: a verb carries no tuples, so evicting or abandoning it never
  // perturbs the tuple accounting.
  if (!writer_.CommitFrame(0)) {
    return false;
  }
  lines_sent_ += 1;
  if (state_ == ConnectState::kConnecting) {
    preconnect_.frames += 1;
  }
  return true;
}

bool StreamClient::SendBinary(int64_t time_ms, double value, std::string_view name) {
  wire::StageResult r = encoder_.Add(name, time_ms, value);
  if (r == wire::StageResult::kFrameFull) {
    FlushWire();
    r = encoder_.Add(name, time_ms, value);
  }
  if (r != wire::StageResult::kStaged) {
    stats_.tuples_dropped += 1;
    frames_lost_ += 1;
    return false;
  }
  if (encoder_.staged_samples() >= options_.frame_samples) {
    // The frame's worth accumulated: seal inline.  The sample is staged
    // either way; a full backlog surfaces in tuples_dropped, not here.
    FlushWire();
  } else {
    ScheduleWireFlush();
  }
  return true;
}

bool StreamClient::FlushWire() {
  size_t n = encoder_.staged_samples();
  if (n == 0) {
    return true;
  }
  if (state_ != ConnectState::kConnected || wire_ != WireState::kBinary) {
    // The connection died between staging and the deferred flush; a fresh
    // connection must not receive frames negotiated on the old one.
    DropStagedWire();
    return false;
  }
  std::string& buf = writer_.BeginFrame();
  encoder_.EmitFrame(buf);
  if (!writer_.CommitFrame(static_cast<uint32_t>(n))) {
    stats_.tuples_dropped += static_cast<int64_t>(n);
    return false;
  }
  stats_.tuples_sent += static_cast<int64_t>(n);
  return true;
}

void StreamClient::ScheduleWireFlush() {
  if (wire_flush_pending_) {
    return;
  }
  wire_flush_pending_ = true;
  std::weak_ptr<StreamClient> weak_self = self_alias_;
  loop_->Invoke([weak_self]() {
    if (std::shared_ptr<StreamClient> client = weak_self.lock()) {
      client->wire_flush_pending_ = false;
      client->FlushWire();
    }
  });
}

void StreamClient::DropStagedWire() {
  size_t n = encoder_.ClearStaged();
  if (n > 0) {
    stats_.tuples_dropped += static_cast<int64_t>(n);
    frames_lost_ += 1;  // the open frame's worth of tuples
  }
}

}  // namespace gscope
