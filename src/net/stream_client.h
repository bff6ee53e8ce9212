// Gscope stream client (Section 4.4).
//
// "Clients use the gscope client API to connect to a server ... Clients
// asynchronously send BUFFER signal data in tuple format."  The client is
// single-threaded and I/O driven: SendTuple appends one framed tuple line to
// a bounded output backlog (FramedWriter) that drains through a writability
// watch, so the application never blocks.  When the backlog cap would be
// exceeded the newest tuple is rolled back whole - the server can never
// observe a truncated line (see docs/protocol.md, "Backlog and drop
// semantics").
//
// Connect() is non-blocking: the TCP handshake completes (or fails) later,
// signalled by the first writability event on the socket.  The client reads
// SO_ERROR there, so a refused or failed connect is surfaced through
// state()/last_error() and the optional connect callback instead of being
// silently swallowed.  Tuples sent while the connect is in flight are
// queued; they count as sent only once the connection is established, and
// as dropped - even one kDropOldest evicted meanwhile - if it fails.
//
// It is also the transport under ControlClient, which adds a session on top:
// the inbound bytes go to the session's demux instead of being discarded
// (SetInboundCallback), verbs commit as lines (SendCommand), the session's
// HELLO verdict is fed back (TakeHelloReply), and liveness can drop a silent
// link (DropConnection).  FrameStats counts the same traffic in frames, the
// unit ControlClient reports.
#ifndef GSCOPE_NET_STREAM_CLIENT_H_
#define GSCOPE_NET_STREAM_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string_view>

#include "core/tuple.h"
#include "net/frame_codec.h"
#include "net/line_framer.h"
#include "net/socket.h"
#include "runtime/event_loop.h"
#include "runtime/framed_writer.h"

namespace gscope {

enum class ConnectState : uint8_t {
  kDisconnected,  // never connected, or an established connection ended
  kConnecting,    // non-blocking connect in flight
  kConnected,     // handshake completed (SO_ERROR was 0)
  kFailed,        // connect failed for good (last_error() holds the errno)
  kBackoff,       // connection lost/refused; a reconnect timer is armed
};

// Automatic reconnect with capped exponential backoff.  Disabled by default:
// a failed/lost connection then resolves to kFailed/kDisconnected exactly as
// before.  When enabled, every lost or refused connection arms a one-shot
// retry timer (state kBackoff) whose delay doubles up to the cap, plus a
// deterministic jitter drawn from `seed` - concurrent clients spread out,
// yet a fixed seed replays the exact schedule in tests.
struct ReconnectOptions {
  bool enabled = false;
  int64_t initial_backoff_ms = 10;
  int64_t max_backoff_ms = 1000;
  double multiplier = 2.0;
  double jitter_frac = 0.1;  // each delay stretched by up to this fraction
  uint32_t seed = 1;
  // Consecutive failed attempts before giving up (state kFailed);
  // 0 = retry forever.  Resets on every successful establishment.
  int max_attempts = 0;
};

class StreamClient {
 public:
  struct Options {
    // Bounds the unsent byte backlog.
    size_t max_buffer = 1 << 20;
    // What happens when a tuple would push the backlog past the cap: drop
    // the newest (default - visualization data is disposable, blocking the
    // app is not acceptable), evict the oldest whole frames to keep the
    // newest, or wait for drainage up to block_deadline_ms per send.
    OverflowPolicy overflow_policy = OverflowPolicy::kDropNewest;
    int64_t block_deadline_ms = 5;  // kBlockWithDeadline budget per commit
    // SO_SNDBUF for the connection, 0 = kernel default.  A small value
    // moves backpressure from kernel buffering into this client's backlog,
    // where the overflow policy (and its counters) can see it.
    int sndbuf_bytes = 0;
    // Self-healing: automatic reconnect.
    ReconnectOptions reconnect;
    // Upload format.  kBinary sends HELLO BIN 1 after every establishment
    // and switches to length-prefixed binary frames once the server
    // acknowledges; until then (and whenever the server declines) tuples
    // travel as text, so the option is safe against any server.
    WireFormat wire_format = WireFormat::kText;
    // Binary only: samples staged per frame before it is sealed into the
    // output backlog.  Larger frames amortize the header/dict bytes;
    // anything staged is flushed at the end of the loop iteration anyway,
    // so latency stays bounded.
    size_t frame_samples = 128;
  };

  struct Stats {
    // Tuples committed to an ESTABLISHED connection's backlog.  Tuples
    // queued while a connect is in flight count only once it completes.
    int64_t tuples_sent = 0;
    int64_t bytes_sent = 0;
    int64_t tuples_dropped = 0;  // backlog overflow, pre-connect failure
    // Committed (counted sent) but later discarded: evicted by kDropOldest,
    // or abandoned unsent when the connection died / was closed.  Delivered
    // tuples = tuples_sent - tuples_evicted - tuples_abandoned (minus any
    // bytes the kernel had in flight when a connection was torn down).
    int64_t tuples_evicted = 0;
    int64_t tuples_abandoned = 0;
    int64_t bytes_dropped = 0;       // bytes of dropped+evicted+abandoned tuples
    int64_t block_time_ns = 0;       // kBlockWithDeadline waits
    int64_t backlog_high_water = 0;  // max unsent backlog bytes observed
    int64_t connect_failures = 0;
    int64_t connect_attempts = 0;    // every TCP connect started (incl. retries)
    int64_t reconnects = 0;          // successful re-establishments after the first
    int64_t bytes_discarded = 0;     // inbound bytes read and ignored (the
                                     // read watch only exists to detect EOF)
  };

  // The same traffic counted in frames: a text tuple or a verb line is one
  // frame, a binary batch of n tuples is one frame.  Verb lines carry no
  // tuples, so they never show in Stats.
  struct FrameStats {
    int64_t frames_committed = 0;  // every frame that entered the backlog
    int64_t lines_sent = 0;        // verb lines committed (HELLO included)
    // Tuples committed to the backlog, those queued behind a handshake
    // included (Stats::tuples_sent counts those only once it completes).
    int64_t tuples_committed = 0;
    // Frames lost before the wire: rolled back at the cap, refused while
    // disconnected, staged but never sealed, or queued behind a handshake
    // that failed.
    int64_t frames_dropped = 0;
    int64_t frames_evicted = 0;
    int64_t frames_abandoned = 0;  // committed, then lost with the connection
  };

  // Invoked each time a connect attempt resolves (with reconnect enabled
  // that can be many times per Connect() call): ok = true with error 0, or
  // ok = false with the SO_ERROR errno value.
  using ConnectFn = std::function<void(bool ok, int error)>;
  // Invoked on every state transition, including those inside reconnect
  // cycles.  Tests observe kConnected/kBackoff edges here instead of
  // sleeping.
  using StateFn = std::function<void(ConnectState state)>;
  // Receives the connection's inbound bytes, in reads of up to 64 KiB; an
  // empty view marks the end of the stream (EOF or a read error), just
  // before the connection is torn down.
  using InboundFn = std::function<void(std::string_view bytes)>;

  // `loop` is not owned.
  StreamClient(MainLoop* loop, Options options);
  // Backwards-compatible shape: default options with `max_buffer`.
  explicit StreamClient(MainLoop* loop, size_t max_buffer = 1 << 20)
      : StreamClient(loop, Options{.max_buffer = max_buffer}) {}
  ~StreamClient();

  StreamClient(const StreamClient&) = delete;
  StreamClient& operator=(const StreamClient&) = delete;

  // Starts a non-blocking connect to 127.0.0.1:`port`.  True means the
  // attempt is in flight (not that the connection is established); the
  // outcome arrives through the connect callback / state().
  bool Connect(uint16_t port);
  void Close();

  // The connect callback runs once the established connection has flushed
  // the queued frames and (binary) committed its HELLO.
  void SetConnectCallback(ConnectFn fn) { on_connect_ = std::move(fn); }
  void SetStateCallback(StateFn fn) { on_state_ = std::move(fn); }
  // Hands inbound bytes to `fn` instead of discarding them.  The owner then
  // parses the replies, so it feeds the HELLO verdict to TakeHelloReply.
  void SetInboundCallback(InboundFn fn) { on_inbound_ = std::move(fn); }

  ConnectState state() const { return state_; }
  // The delay the most recent backoff armed (ms); for tests and diagnostics.
  int64_t last_backoff_ms() const { return last_backoff_ms_; }
  // True only once the handshake has actually completed - never while the
  // connect is still in flight or after it failed.
  bool connected() const { return state_ == ConnectState::kConnected; }
  // errno of the last failed connect (0 if none failed yet).
  int last_error() const { return last_error_; }

  // Queues one tuple for asynchronous delivery.  Returns false if the
  // client is disconnected/failed or the backlog is full.
  bool SendTuple(const Tuple& tuple);

  // Same without a materialized Tuple: formats directly into the output
  // buffer, so steady-state sends perform no per-tuple allocation.
  bool Send(int64_t time_ms, double value, std::string_view name);

  // Commits one verb line, "<verb> <arg>", behind any staged binary
  // samples: as text, or as a TEXT frame once HELLO was acknowledged.
  // Returns false if the client is disconnected or the backlog is full.
  bool SendCommand(std::string_view verb, std::string_view arg);
  // Applies one reply line to a pending HELLO BIN 1.  Returns true if the
  // line was the verdict; after "OK HELLO BIN 1" the server's next byte is
  // framed, so the caller switches its inbound parser there.
  bool TakeHelloReply(std::string_view line);
  // Drops the established connection as if it had died: the backlog is
  // abandoned, and reconnect (when enabled) takes over.
  void DropConnection();

  // Switches the overflow policy mid-stream (between sends).
  void SetQueuePolicy(OverflowPolicy policy, int64_t block_deadline_ms = 5) {
    writer_.SetPolicy(policy, MillisToNanos(block_deadline_ms));
  }
  OverflowPolicy queue_policy() const { return writer_.policy(); }

  // Re-caps the backlog (live) and the kernel send buffer (next Connect;
  // 0 leaves the kernel default).
  void SetQueueLimit(size_t max_buffer, int sndbuf_bytes = 0) {
    writer_.SetMaxBuffer(max_buffer);
    options_.max_buffer = max_buffer;
    options_.sndbuf_bytes = sndbuf_bytes;
  }

  // Unsent bytes currently queued (binary: staged-but-unsealed samples
  // included, so "drain until empty" loops cover the open frame too).
  size_t pending_bytes() const { return writer_.pending_bytes() + encoder_.staged_bytes(); }
  // True once HELLO BIN was acknowledged on the current connection.
  bool wire_binary() const { return wire_ == WireState::kBinary; }
  const Stats& stats() const {
    // Writer-side counters are folded in lazily: drains happen async.  The
    // units_* mirrors keep the mapping tuple-exact when binary frames carry
    // many tuples each (they equal the frame counters for text).
    const FramedWriter::Stats& w = writer_.stats();
    stats_.bytes_sent = w.bytes_written;
    // Pre-connect frames of a failed/aborted handshake are already in
    // tuples_dropped; they never counted as sent, so the writer's eviction
    // or abandonment of them is backed out.  (Both are tallied in writer
    // units, so weight-0 verb lines queued alongside never skew them.)
    stats_.tuples_evicted = w.units_evicted - preconnect_evictions_.tuples;
    stats_.tuples_abandoned = w.units_abandoned - preconnect_discards_.tuples;
    stats_.bytes_dropped = w.bytes_dropped;
    stats_.block_time_ns = w.block_time_ns;
    stats_.backlog_high_water = static_cast<int64_t>(w.high_water_bytes);
    return stats_;
  }
  FrameStats frame_stats() const {
    const FramedWriter::Stats& w = writer_.stats();
    return FrameStats{
        .frames_committed = w.frames_committed,
        .lines_sent = lines_sent_,
        // Verb lines commit with weight 0, so the writer's units are tuples.
        .tuples_committed = w.units_committed,
        .frames_dropped = w.frames_dropped + frames_lost_,
        .frames_evicted = w.frames_evicted - preconnect_evictions_.frames,
        .frames_abandoned = w.frames_abandoned - preconnect_discards_.frames,
    };
  }

 private:
  // Upload-side wire negotiation state (Options::wire_format == kBinary).
  enum class WireState : uint8_t {
    kTextOnly,   // text for the connection's lifetime (default, or declined)
    kHelloSent,  // HELLO BIN 1 committed; replies parsed for the verdict
    kBinary,     // acknowledged: sends stage into binary frames
  };

  // A tally kept in both units: tuples (Stats) and frames (FrameStats).
  struct Tally {
    int64_t tuples = 0;
    int64_t frames = 0;
  };

  bool StartConnect();
  bool OnConnectReady(IoCondition cond);
  void ResolveConnect(int error);
  bool OnSocketReadable(IoCondition cond);
  // Ends a handshake that never completed (refused, or closed in flight):
  // the frames queued behind it resolve to dropped and the backlog empties.
  void AbandonHandshake();
  bool SendBinary(int64_t time_ms, double value, std::string_view name);
  // Seals the staged samples into one wire frame in the output backlog.
  bool FlushWire();
  void ScheduleWireFlush();
  // Connection death/teardown: staged-but-unsealed samples are lost; they
  // never counted as sent, so they fold into tuples_dropped (one frame).
  void DropStagedWire();
  // A previously-established connection died (read EOF/error, a hard write
  // error, or DropConnection).  Enters backoff or settles in kDisconnected.
  void HandleConnectionDeath();
  // A connect attempt failed.  Arms the backoff timer when retries remain,
  // else settles in kFailed.  Returns true if a retry was armed.
  bool FailAttempt(int error);
  void EnterBackoff();
  void SetState(ConnectState state);

  MainLoop* loop_;
  Options options_;
  Socket socket_;
  FramedWriter writer_;
  SourceId connect_watch_ = 0;
  SourceId read_watch_ = 0;
  SourceId retry_timer_ = 0;
  ConnectState state_ = ConnectState::kDisconnected;
  int last_error_ = 0;
  uint16_t port_ = 0;
  int64_t cur_backoff_ms_ = 0;
  int64_t last_backoff_ms_ = 0;
  int failed_attempts_ = 0;    // consecutive, since the last establishment
  int64_t establishments_ = 0;
  std::mt19937 jitter_rng_;
  // Commits made while state_ == kConnecting; folded into sent or dropped
  // when the handshake resolves.
  Tally preconnect_;
  // What the writer counted abandoned or evicted that were frames of a
  // failed handshake (already accounted as dropped); subtracted in stats()
  // / frame_stats().
  Tally preconnect_discards_;
  Tally preconnect_evictions_;
  int64_t frames_lost_ = 0;  // frame drops the writer never saw
  int64_t lines_sent_ = 0;
  ConnectFn on_connect_;
  StateFn on_state_;
  InboundFn on_inbound_;
  mutable Stats stats_;
  // Binary wire state.
  WireState wire_ = WireState::kTextOnly;
  wire::WireEncoder encoder_;
  LineFramer hello_rx_{256};     // parses replies while kHelloSent
  int64_t hello_rx_overlong_ = 0;
  bool wire_flush_pending_ = false;
  // Liveness token for the deferred flush closure (declared LAST: reset
  // first in destruction order, so a queued flush never touches a dead
  // client).
  std::shared_ptr<StreamClient> self_alias_{this, [](StreamClient*) {}};
};

}  // namespace gscope

#endif  // GSCOPE_NET_STREAM_CLIENT_H_
