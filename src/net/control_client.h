// Client side of the remote scope control channel (docs/protocol.md).
//
// A display target uses this to attach to a gscope StreamServer over the
// wire instead of a process-local AddScope call: it subscribes to signal
// names by glob (SUB/UNSUB), sets its server-side late-drop delay (DELAY),
// and receives the matched tuples streamed back down the same connection.
// Incoming lines are demultiplexed by first byte: letters are control
// replies (OK / ERR / INFO), everything else parses as a tuple line.
//
// The channel is bidirectional: Send() pushes tuples upstream on the same
// connection, so one process can both produce signals and subscribe to
// others' (or, for a loopback check, its own).
//
// Built on a StreamClient, which owns the socket, the bounded whole-frame
// egress backlog, the connect/backoff state machine, HELLO BIN negotiation
// and binary staging.  This class adds what a session needs on top: the
// inbound demux, the verbs, the session memory replayed at every
// establishment, liveness (PING, idle timeout) and TIME sync.
// Single-threaded and I/O driven.
#ifndef GSCOPE_NET_CONTROL_CLIENT_H_
#define GSCOPE_NET_CONTROL_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/tuple.h"
#include "net/frame_codec.h"
#include "net/line_framer.h"
#include "net/stream_client.h"
#include "runtime/event_loop.h"
#include "runtime/framed_writer.h"

namespace gscope {

struct ControlClientOptions {
  // Outgoing (commands + pushed tuples) backlog cap; whole frames only on
  // overflow, victim selected by `overflow_policy`.
  size_t max_buffer = 1 << 20;
  // Longest accepted incoming line (tuple or reply).
  size_t max_line_bytes = 4096;
  // Overload behaviour for the outgoing backlog (see runtime/framed_writer.h):
  // drop the newest frame (default), evict the oldest whole frames, or wait
  // up to block_deadline_ms per commit before falling back to drop-newest.
  OverflowPolicy overflow_policy = OverflowPolicy::kDropNewest;
  int64_t block_deadline_ms = 5;
  // SO_SNDBUF for the connection, 0 = kernel default.  Small values move
  // backpressure out of kernel buffering into the bounded backlog above,
  // where the overflow policy (and its counters) can see it.
  int sndbuf_bytes = 0;
  // Session resumption: the client remembers its subscription pattern set
  // and delay, and replays them (SUB per pattern, then DELAY) on every
  // connect establishment — a server restart or flaky link costs only the
  // in-flight tuples, not the subscription state.  The replay reflects the
  // remembered state at establishment time (an Unsubscribe issued while the
  // handshake is in flight is honored, not overridden); verbs queued during
  // the handshake ride their own frames and are not replayed twice.
  bool auto_resubscribe = true;
  // Automatic reconnect (see net/stream_client.h).  With auto_resubscribe
  // this closes the self-healing loop: lost link -> backoff -> reconnect ->
  // session replayed, no caller involvement.
  ReconnectOptions reconnect;
  // Liveness (docs/protocol.md, PING/PONG): with ping_interval_ms > 0 the
  // client PINGs whenever the link has been send-idle that long; with
  // idle_timeout_ms > 0 a link that delivered nothing for that long is
  // declared dead (liveness_timeouts) and torn down — reconnect, when
  // enabled, takes over.  Pair them (interval well under the timeout): the
  // pings provoke the PONG traffic that proves liveness.
  int64_t ping_interval_ms = 0;
  int64_t idle_timeout_ms = 0;
  // Issue a TIME request on every establishment, so time_offset_ms() is
  // populated without a manual RequestTime().
  bool sync_time_on_connect = false;
  // Wire format (docs/protocol.md "Binary wire protocol").  kBinary sends
  // HELLO BIN 1 on every establishment - BEFORE the session replay, so a
  // reconnect renegotiates automatically - and, once acknowledged, both
  // directions switch to length-prefixed frames: pushed tuples batch into
  // sample frames, verbs/replies ride text frames, and echoed tuples arrive
  // as decoded sample batches.  Declined or unanswered HELLOs leave the
  // connection in text, so the option is safe against any server.
  WireFormat wire_format = WireFormat::kText;
  // Binary only: samples staged per pushed frame before sealing (anything
  // staged still flushes at the end of the loop iteration).
  size_t frame_samples = 128;
};

class ControlClient {
 public:
  struct Stats {
    int64_t commands_sent = 0;
    int64_t tuples_pushed = 0;
    int64_t frames_dropped = 0;  // outgoing backlog overflow (whole frames)
    // Frames committed but later discarded: evicted by kDropOldest, or
    // abandoned unsent at disconnect/close (see StreamClient::Stats).
    int64_t frames_evicted = 0;
    int64_t frames_abandoned = 0;
    int64_t bytes_sent = 0;  // bytes the kernel accepted (drains are async)
    int64_t bytes_dropped = 0;
    int64_t block_time_ns = 0;
    int64_t backlog_high_water = 0;
    int64_t tuples_received = 0;
    int64_t replies_ok = 0;
    int64_t replies_err = 0;
    int64_t replies_info = 0;
    int64_t parse_errors = 0;
    int64_t bytes_received = 0;
    int64_t connect_failures = 0;
    // SUB/DELAY commands replayed by session resumption (auto_resubscribe);
    // also counted in commands_sent.
    int64_t resumed_commands = 0;
    int64_t connect_attempts = 0;   // every TCP connect started (incl. retries)
    int64_t reconnects = 0;         // successful re-establishments after the first
    int64_t pings_sent = 0;
    int64_t pongs_received = 0;
    int64_t notices = 0;            // NOTICE lines (server degradation events)
    int64_t liveness_timeouts = 0;  // links declared dead by idle_timeout_ms
    int64_t time_syncs = 0;         // completed TIME round-trips
  };

  using TupleFn = std::function<void(const TupleView& tuple)>;
  using ReplyFn = std::function<void(std::string_view line)>;
  using ConnectFn = std::function<void(bool ok, int error)>;
  using StateFn = std::function<void(ConnectState state)>;

  explicit ControlClient(MainLoop* loop, ControlClientOptions options = {});
  ~ControlClient();

  ControlClient(const ControlClient&) = delete;
  ControlClient& operator=(const ControlClient&) = delete;

  // Starts a non-blocking connect to 127.0.0.1:`port`; the outcome arrives
  // through the connect callback / state().  Commands issued while the
  // connect is in flight are queued and flushed on establishment.
  bool Connect(uint16_t port);
  void Close();

  ConnectState state() const { return stream_.state(); }
  bool connected() const { return stream_.connected(); }
  int last_error() const { return stream_.last_error(); }

  // Control verbs; each returns false if the frame could not be queued
  // (disconnected or backlog full).  Replies arrive asynchronously through
  // the reply callback.  Subscribe/Unsubscribe/SetDelay also update the
  // remembered session state (even while disconnected — declared intent is
  // replayed at the next establishment when auto_resubscribe is on).
  bool Subscribe(std::string_view glob);
  bool Unsubscribe(std::string_view glob);
  bool SetDelay(int64_t delay_ms);
  // Establishes a tenant identity (`AUTH <token>`).  The token is remembered
  // and replayed on every re-establishment BEFORE the subscription replay,
  // so resumed SUBs land inside the tenant namespace; a rejected token
  // (`ERR AUTH ...`) leaves the session anonymous but otherwise usable.
  bool Auth(std::string_view token);
  // Attaches (or replaces) the session's server-side processing stage;
  // `spec` is the verbatim stage verb line - "COALESCE", "DECIMATE 10",
  // "EWMA 0.2", "ENVELOPE 100", "SPECTRUM 256 hann" (docs/protocol.md,
  // "Derived-signal pipelines").  Remembered and replayed on reconnect
  // AFTER the SUB/DELAY replay, so the replayed stage keys against the
  // restored subscription set.
  bool Stage(std::string_view spec);
  // Detaches the stage (sends RAW) and stops replaying it.
  bool ClearStage();
  bool RequestList();
  // Asks for the server's stage catalog (`OK STAGES <n> ACTIVE <m>` plus
  // one INFO STAGE line per spec grammar).
  bool RequestStages();
  // Asks for the server's counter line (`OK STATS key value ...`); the
  // reply arrives through the reply callback like any OK line.
  bool RequestStats();
  // Flight recorder (docs/protocol.md "Flight recorder").  Record starts a
  // server-side capture into an extent log at `path` (server filesystem;
  // anonymous sessions only); StopRecord seals and stops it.  Replay
  // streams recorded window [t0, t1] back through this session's filter -
  // speed <= 0 bursts the whole window, speed > 0 paces recorded time at
  // that multiple of real time.  Not remembered for reconnect: a replay is
  // a one-shot query, not session state.
  bool Record(std::string_view path);
  bool StopRecord();
  bool Replay(int64_t t0, int64_t t1, double speed = 0.0);
  // Sends one PING (token = local ms clock); the PONG echo feeds
  // pongs_received / last_rtt_ms().  The liveness timer calls this
  // automatically when ping_interval_ms is set.
  bool Ping();
  // Asks for the server's scope time (`OK TIME <ms>`).  When the reply
  // lands, time_offset_ms() maps the local ms clock onto the server's scope
  // clock (RTT/2 midpoint estimate), so stamps can be made honest across
  // hosts without synchronized clocks.
  bool RequestTime();

  bool has_time_offset() const { return has_time_offset_; }
  // server_scope_time_ms ~= local_clock_ms + time_offset_ms().
  int64_t time_offset_ms() const { return time_offset_ms_; }
  // The server's scope time right now, per the last TIME sync (0 before
  // any sync completed).
  int64_t ServerNowMs() const;
  // RTT of the last completed PING or TIME round-trip, ms (-1 before any).
  int64_t last_rtt_ms() const { return last_rtt_ms_; }
  // The delay the most recent backoff armed (ms).
  int64_t last_backoff_ms() const { return stream_.last_backoff_ms(); }

  // The remembered subscription state that a reconnect would replay.
  const std::vector<std::string>& remembered_patterns() const { return sub_patterns_; }
  bool has_remembered_delay() const { return has_delay_; }
  int64_t remembered_delay_ms() const { return delay_ms_; }
  bool has_remembered_auth() const { return has_auth_; }
  bool has_remembered_stage() const { return has_stage_; }
  const std::string& remembered_stage() const { return stage_spec_; }
  // Drops the remembered state (nothing replayed until re-declared).
  void ForgetSession();

  // Pushes one tuple upstream on the same connection.
  bool Send(int64_t time_ms, double value, std::string_view name);

  // Switches the outgoing backlog's overflow policy mid-stream.
  void SetQueuePolicy(OverflowPolicy policy, int64_t block_deadline_ms = 5) {
    stream_.SetQueuePolicy(policy, block_deadline_ms);
  }
  OverflowPolicy queue_policy() const { return stream_.queue_policy(); }

  // Re-caps the outgoing backlog (live) and the kernel send buffer (next
  // Connect; 0 leaves the kernel default).
  void SetQueueLimit(size_t max_buffer, int sndbuf_bytes = 0) {
    stream_.SetQueueLimit(max_buffer, sndbuf_bytes);
  }

  // Unsent bytes currently queued toward the server (binary: staged-but-
  // unsealed samples included).
  size_t pending_bytes() const { return stream_.pending_bytes(); }
  // True once HELLO BIN was acknowledged on the current connection; the
  // server's replies and echo are framed from then on too.
  bool wire_binary() const { return stream_.wire_binary(); }

  // Received matched tuples.  The view borrows the read buffer: copy what
  // must outlive the callback.
  void SetTupleCallback(TupleFn fn) { on_tuple_ = std::move(fn); }
  // OK / ERR / INFO / PONG / NOTICE lines, verbatim.
  void SetReplyCallback(ReplyFn fn) { on_reply_ = std::move(fn); }
  void SetConnectCallback(ConnectFn fn) { on_connect_ = std::move(fn); }
  // Every state transition, including those inside reconnect cycles; tests
  // observe kConnected/kBackoff edges here instead of sleeping.
  void SetStateCallback(StateFn fn) { on_state_ = std::move(fn); }

  const Stats& stats() const {
    // Transport counters are folded in lazily: drains happen async.
    const StreamClient::Stats& t = stream_.stats();
    const StreamClient::FrameStats f = stream_.frame_stats();
    stats_.commands_sent = f.lines_sent;
    stats_.tuples_pushed = f.tuples_committed;
    stats_.frames_dropped = f.frames_dropped;
    stats_.frames_evicted = f.frames_evicted;
    stats_.frames_abandoned = f.frames_abandoned;
    stats_.bytes_sent = t.bytes_sent;
    stats_.bytes_dropped = t.bytes_dropped;
    stats_.block_time_ns = t.block_time_ns;
    stats_.backlog_high_water = t.backlog_high_water;
    stats_.connect_failures = t.connect_failures;
    stats_.connect_attempts = t.connect_attempts;
    stats_.reconnects = t.reconnects;
    return stats_;
  }

 private:
  struct RxHandler;  // decoder callbacks -> HandleLine / tuple delivery

  // Transport callbacks.
  void OnInbound(std::string_view bytes);
  void OnStateChange(ConnectState state);
  void OnConnectResolved(bool ok, int error);
  // A new connection: reset the inbound demux, replay the session, sync
  // TIME and start the liveness timer.
  void OnEstablished();
  void HandleLine(std::string_view line);
  // Installs one rx dictionary binding / delivers one decoded sample batch.
  void BindRxName(uint32_t id, std::string_view name);
  void DeliverRecords(int64_t base_time_ms, const char* records, size_t n);
  bool OnLivenessTick();
  void StopLiveness();
  // Frames committed so far, the client's own PINGs left out: a change
  // between liveness ticks means the link was not send-idle.
  int64_t CommitsExceptPings() const {
    return stream_.frame_stats().frames_committed - stats_.pings_sent;
  }
  int64_t LocalNowMs() const;

  MainLoop* loop_;
  ControlClientOptions options_;
  LineFramer framer_;
  wire::FrameDecoder decoder_;
  std::vector<std::string> rx_names_;  // echo dictionary, by id - 1
  SourceId liveness_timer_ = 0;
  Nanos last_rx_ns_ = 0;          // last byte received (idle timeout)
  Nanos tx_idle_since_ns_ = 0;    // tick that last saw a commit (ping pacing)
  int64_t tx_commits_seen_ = 0;   // CommitsExceptPings() at that tick
  int64_t time_req_sent_ms_ = -1;  // local ms when the pending TIME left
  bool has_time_offset_ = false;
  int64_t time_offset_ms_ = 0;
  int64_t last_rtt_ms_ = -1;
  // Remembered session state (survives Close/Disconnect by design).
  // Establishment replays the CURRENT remembered state so verbs issued
  // while the handshake is in flight are never overridden by a stale
  // snapshot; the handshake_* trackers mark what already rides the queued
  // frames (flushed first at establishment) so the replay does not
  // duplicate it.
  std::vector<std::string> sub_patterns_;
  bool has_delay_ = false;
  int64_t delay_ms_ = 0;
  bool has_auth_ = false;
  std::string auth_token_;
  bool has_stage_ = false;
  std::string stage_spec_;
  std::vector<std::string> handshake_subs_;
  bool handshake_delay_ = false;
  bool handshake_auth_ = false;
  bool handshake_stage_ = false;
  TupleFn on_tuple_;
  ReplyFn on_reply_;
  ConnectFn on_connect_;
  StateFn on_state_;
  mutable Stats stats_;
  // The transport (declared LAST: destroyed first, so its teardown never
  // calls back into a half-destroyed session).
  StreamClient stream_;
};

}  // namespace gscope

#endif  // GSCOPE_NET_CONTROL_CLIENT_H_
