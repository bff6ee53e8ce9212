// Gscope stream server (Section 4.4) with the remote scope control channel.
//
// "Clients asynchronously send BUFFER signal data in tuple format to the
// server.  The server receives data from one or more clients asynchronously
// and buffers the data.  It then displays these BUFFER signals to one or
// more scopes with a user-specified delay.  Data arriving at the server
// after this delay is not buffered but dropped immediately."
//
// Wire protocol (tuple lines AND the control verbs): docs/protocol.md.
//
// I/O driven: a listen watch accepts clients, per-client watches parse
// newline-delimited lines and push tuples into the display scopes' sample
// buffers (which apply the delay/late-drop policy).  The router hands each
// flush to every scope on the loop thread that read it, so a loops = 1
// server without RECORD runs no thread of its own.  Every accepted
// connection has Nagle off, and the server writes each reply at once and
// each session's echo at the end of the drain that produced it, so echo
// leaves at its display deadline (control_poll_period_ms).
//
// Sharded accept (options.loops > 1): accepted connections spread across N
// per-core event loops (runtime/loop_pool.h).  Each loop owns its clients
// end to end — fd watch, line framing, control sessions, session scopes,
// FramedWriter egress, liveness/degradation sweep — so the per-iteration
// costs that grow with session count (the poll(2) fd set, the timer heap,
// the sweep walk) divide by N.  Preferred mechanism is one SO_REUSEPORT
// listener per loop (the kernel spreads connections); when the platform
// lacks it the primary loop keeps a single acceptor and hands each
// connection to the least-loaded loop.  Shared state crosses loops at
// exactly two points, both serialized inside the router when loops > 1:
// the IngestRouter's route tables (epoch-snapshot rebuilds under its lock)
// and the scopes' span queues (thread-safe: one loop's flush pushes spans
// into sessions on other loops).  Server-wide Stats are relaxed per-field
// atomics (runtime/relaxed_counter.h).  loops = 1 (the default) takes none
// of the locks and spawns no threads: byte-identical to the pre-sharding
// server.
//
// Control channel: a client line starting with a letter is a control verb
// (AUTH / SUB / UNSUB / DELAY / LIST / STATS / PING / TIME).  The first
// whitelisted verb turns the connection into a *remote scope session*: the
// server creates a dedicated Scope, registers it with the IngestRouter
// under the session's SignalFilter — so the route table excludes
// non-subscribed signals at build time, never per sample — and streams
// every sample routed to that scope back down the same connection in tuple
// format, through a bounded FramedWriter (whole tuples are dropped on
// backlog overflow, never partial lines).  Display targets thus attach over
// the network, with their own glob subscriptions and late-drop delay,
// without any process-local AddScope call.
//
// Multi-tenant hardening: "AUTH <token>" (validated against
// options.auth_tokens) moves the connection into a tenant namespace.  Every
// tuple the connection ingests afterwards is stored under
// "<ns>\x1f<name>", and its session filter only ever matches names carrying
// that prefix — so one tenant's "SUB *" can never observe another tenant's
// (or the anonymous default's) signals, and vice versa.  The echo tap
// strips the prefix again: tenants see their own bare names.  Failed AUTH
// replies "ERR AUTH bad-token" and leaves the connection usable as
// anonymous.  Per-session quotas (quota_* options) bound what one tenant
// can cost the server: subscription pattern count, SUB/UNSUB churn rate,
// and echo egress bytes/sec (control replies are exempt — quota pressure
// must not make the protocol itself unresponsive).
//
// Ingest fast path: complete lines are framed with memchr and parsed in
// place from the read buffer (no copy except for lines split across reads).
// Routing and fan-out go through a shared IngestRouter: each read chunk is
// parsed once into a shared block and every scope receives an O(1) span, so
// adding display targets does not multiply per-tuple work (see
// core/ingest_bus.h).
#ifndef GSCOPE_NET_STREAM_SERVER_H_
#define GSCOPE_NET_STREAM_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/envelope.h"
#include "core/ingest_router.h"
#include "core/scope.h"
#include "core/tuple.h"
#include "core/signal_filter.h"
#include "freq/window.h"
#include "net/frame_codec.h"
#include "net/line_framer.h"
#include "net/socket.h"
#include "record/recorder.h"
#include "runtime/event_loop.h"
#include "runtime/framed_writer.h"
#include "runtime/loop_pool.h"
#include "runtime/relaxed_counter.h"

namespace gscope {

struct StreamServerOptions {
  // Create a BUFFER signal on the scope the first time a new tuple name
  // appears (remote signals are not known in advance).
  bool auto_create_signals = true;
  // Cap on concurrent clients; further connections are refused.  With
  // loops > 1 the cap is enforced against a relaxed sum of per-loop counts,
  // so a simultaneous accept burst across loops may briefly overshoot by at
  // most loops-1 connections.
  size_t max_clients = 32;
  // Longest accepted line.  A client that exceeds it (e.g. streams garbage
  // with no newlines) has the line counted as one parse error and discarded;
  // framing resynchronizes at the next newline.  A line of exactly this many
  // bytes (newline excluded) parses, however it is split across reads.
  size_t max_line_bytes = 4096;
  // Ignored: ingest fan-out runs on the loop thread that read the tuples.
  // Kept so that existing callers, which set them, keep compiling.
  size_t fanout_shards = 4;
  int fanout_workers = -1;
  // Accept sharding: per-core event loops owning the accepted connections
  // (header comment).  1 = the single-loop pre-sharding server; values are
  // clamped to >= 1.
  size_t loops = 1;
  // Prefer one SO_REUSEPORT listener per loop (kernel-spread accepts) when
  // loops > 1; off — or unsupported at runtime — falls back to a single
  // acceptor on the primary loop handing connections to the least-loaded
  // loop.
  bool reuse_port = true;
  // Multi-tenant access control: token -> namespace.  Empty = every AUTH
  // fails and all connections stay in the anonymous default namespace.
  // (std::less<> keys: token lookup straight from the wire string_view.)
  std::map<std::string, std::string, std::less<>> auth_tokens;
  // Per-session quotas, each 0 = unlimited.  Violations reply
  // deterministically ("ERR SUB quota-patterns", "ERR <verb> quota-churn")
  // or silently drop echo frames (egress), and count in stats().quota_drops.
  size_t quota_max_patterns = 0;            // SUB patterns per session
  size_t quota_sub_churn = 0;               // SUB/UNSUB verbs per window
  int64_t quota_churn_window_ms = 1000;     // the churn window
  int64_t quota_egress_bytes_per_sec = 0;   // echo bytes/sec (token bucket)
  // Control channel (docs/protocol.md).  Off = every line is a tuple line,
  // the pre-control behaviour.
  bool enable_control = true;
  // Per-session egress backlog cap; overload discards whole tuples only,
  // never partial lines.  The victim is chosen by control_overflow_policy:
  // drop-newest (counted in echo_dropped, the default), or drop-oldest
  // (evict from the backlog head, counted in echo_evicted, so a stalled
  // viewer resumes at the newest data).  kBlockWithDeadline is accepted but
  // blocks the owning loop up to control_block_deadline_ms per frame - only
  // sensible for single-viewer embeddings.
  size_t control_max_buffer = 1 << 20;
  OverflowPolicy control_overflow_policy = OverflowPolicy::kDropNewest;
  int64_t control_block_deadline_ms = 0;
  // SO_SNDBUF for a session's egress socket, 0 = kernel default.  Small
  // values surface a slow subscriber in the session writer's backlog - where
  // the overflow policy and the degradation sweep can see it - instead of in
  // kernel buffering.
  int control_sndbuf_bytes = 0;
  // SO_RCVBUF applied to every accepted connection, 0 = kernel default.  A
  // small value makes a deliberately slow/paused server exert backpressure
  // on producers quickly (stress harnesses) instead of hiding behind kernel
  // buffering.
  int client_rcvbuf_bytes = 0;
  // The longest a session (or stage group) goes between drains, and the
  // cadence of coalesced sessions.  An every-sample session drains at each
  // echo's display deadline (Scope::StartDraining), so a tuple leaves at its
  // deadline; the period bounds only what a drain cannot see coming - a
  // span pushed from another loop, or a sample reaching an idle session
  // less than one period before its deadline - to one period late.
  int64_t control_poll_period_ms = 10;
  // Liveness: drop a client that has sent nothing (tuples, verbs or PINGs)
  // for this long.  0 = never; the pre-robustness behaviour.  Clients that
  // enable their own ping_interval_ms stay alive through idle periods.
  int64_t idle_timeout_ms = 0;
  // Graceful degradation: when a session's egress backlog stays pinned (at
  // or above half the cap, or losing frames) for this long, its echo tap is
  // downgraded to TapMode::kCoalesced - the subscriber keeps seeing the
  // freshest value of every signal instead of being evicted - and a
  // "NOTICE DEGRADE coalesced" reply is sent.  Once the backlog drains calm
  // for the same window the per-sample tap is restored ("NOTICE RESTORE
  // every-sample").  0 = never degrade.
  int64_t degrade_stalled_ms = 0;
  // Flight recorder (docs/protocol.md "Flight recorder").  RECORD <path>
  // starts a crash-safe columnar capture of every routed sample into an
  // extent log at <path> (record/extent_log.h geometry below); REPLAY
  // streams a window back through the session filter.  RECORD is an
  // operator action restricted to anonymous (non-tenant) sessions; REPLAY
  // is open to tenants (the filter keeps time travel inside the namespace).
  size_t record_extent_bytes = 64 * 1024;
  size_t record_max_extents = 256;
  FsyncPolicy record_fsync_policy = FsyncPolicy::kNone;
  int64_t record_fsync_interval_ms = 1000;
  int64_t record_poll_period_ms = 10;
  // Hard cap on the records one REPLAY verb may buffer (the window is read
  // into memory before emission); excess records past the cap are cut.
  size_t replay_max_samples = 1 << 20;
};

class StreamServer {
 public:
  // Server-wide counters.  RelaxedCounter fields: with loops > 1 every loop
  // thread bumps and any thread reads; each counter is an independent
  // monotone tally, so relaxed atomics are the whole contract.
  struct Stats {
    RelaxedCounter connections;
    RelaxedCounter disconnections;
    RelaxedCounter refused;
    RelaxedCounter tuples;
    RelaxedCounter parse_errors;
    RelaxedCounter dropped_late;
    RelaxedCounter bytes;
    // Control channel.
    RelaxedCounter control_commands;  // recognized verbs, accepted or rejected
    // Rejected control interactions: recognized verbs that failed
    // (malformed arguments - counted even before a session exists, when no
    // ERR reply can be carried - or semantic failures like a duplicate
    // pattern or a quota) plus unknown verbs on an existing session.
    // Unknown verbs without a session count only as parse_errors, like any
    // garbage line.
    RelaxedCounter control_errors;
    RelaxedCounter sessions_opened;   // connections that became scope sessions
    RelaxedCounter tuples_echoed;     // tuples streamed back to subscribers
    RelaxedCounter echo_dropped;      // egress overflow: newest frame dropped
    RelaxedCounter echo_evicted;      // egress overflow: oldest frames evicted
    // Liveness and degradation (all 0 unless the matching option is on).
    RelaxedCounter pings_received;      // PING verbs answered with PONG
    RelaxedCounter time_requests;       // TIME verbs answered with OK TIME
    RelaxedCounter taps_downgraded;     // echo taps switched to kCoalesced
    RelaxedCounter taps_restored;       // echo taps switched back to kEverySample
    RelaxedCounter clients_idle_dropped;  // clients dropped by idle_timeout_ms
    // Binary wire protocol v2 (docs/protocol.md "Binary wire protocol").
    RelaxedCounter frames_rx;          // binary frames accepted (CRC-verified)
    RelaxedCounter frames_crc_errors;  // loss-of-sync events (bad CRC/header/torn)
    RelaxedCounter dict_entries;       // dictionary bindings installed/changed
    // Multi-tenant hardening.
    RelaxedCounter auth_failures;      // AUTH verbs with an unknown token
    RelaxedCounter quota_drops;        // quota rejections + egress quota drops
    // Derived-signal pipelines (docs/protocol.md "Derived-signal
    // pipelines").  stage_evals counts stage evaluations, once per input
    // sample per stage group - N identical subscriptions sharing a group
    // add 1, not N, per sample (the share-once proof tests assert on it).
    RelaxedCounter stage_evals;
    RelaxedCounter tuples_derived;     // derived tuples delivered to members
    RelaxedCounter stages_active;      // live stage groups (gauge)
    // Egress quota drops split by wire format: text counts dropped tuple
    // lines, binary counts dropped SAMPLES frames (each worth many tuples;
    // the per-tuple tally stays in quota_drops).
    RelaxedCounter quota_drops_text;
    RelaxedCounter quota_drops_bin;
  };

  // Observes every successfully parsed ingest tuple line, before routing and
  // late-drop.  The view borrows the read buffer: copy what must outlive the
  // call.  For harnesses/diagnostics; parsing is repeated for the tap, so
  // leave it unset on hot production paths.  Set before Listen(): with
  // loops > 1 the tap runs on whichever loop owns the producer.
  using IngestTapFn = std::function<void(const TupleView& tuple)>;
  void SetIngestTap(IngestTapFn fn) { ingest_tap_ = std::move(fn); }

  // `loop` and `scope` are not owned and must outlive the server.  `loop`
  // is shard 0 (the caller keeps running it); options.loops-1 further loops
  // get dedicated threads between Listen() and Close().  `scope` is the
  // first display target; AddScope attaches more ("displays these BUFFER
  // signals to one or more scopes").  `scope` may be null for a
  // control-only server whose display targets all attach over the wire.
  StreamServer(MainLoop* loop, Scope* scope, StreamServerOptions options = {});
  ~StreamServer();

  // Fans incoming tuples out to an additional scope.  O(1); returns false
  // for null/duplicate scopes.  Scopes must outlive the server.  App scopes
  // live on the primary loop; with loops > 1 put them in concurrent mode
  // (Scope::SetConcurrent) before registering.
  bool AddScope(Scope* scope);
  bool RemoveScope(Scope* scope);
  size_t scope_count() const { return router_.scope_count(); }

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  // Binds 127.0.0.1:`port` (0 = ephemeral), starts the loop pool and begins
  // accepting.
  bool Listen(uint16_t port);
  uint16_t port() const { return port_; }
  // Graceful shutdown: every shard drains on its own loop (watches removed,
  // sessions unregistered, clients destroyed where they live), then the
  // worker loops stop.  Safe to call from the primary thread only.
  void Close();

  size_t client_count() const;
  // Connected clients currently holding a remote scope session.
  size_t control_session_count() const;
  // Sharding introspection (tests/benches): loop count, the accept
  // mechanism in use, and the per-shard client spread.
  size_t loop_count() const { return pool_.size(); }
  bool reuse_port_active() const { return reuse_port_active_; }
  size_t shard_client_count(size_t i) const;
  // Folds every loop's timer accounting (sum + worst loop): the sharded
  // "is the server keeping up?" answer.  Primary thread only.
  TimerStatsAggregate GatherTimerStats() { return pool_.GatherTimerStats(); }
  const Stats& stats() const { return stats_; }
  const IngestRouter& router() const { return router_; }

 private:
  struct LoopShard;
  struct Client;
  struct StageGroup;

  // One parsed server-side processing stage (docs/protocol.md
  // "Derived-signal pipelines").  `text` is the canonical spec - numbers
  // re-rendered shortest-form, the SPECTRUM window always spelled out - so
  // equal stages key equal regardless of how the client wrote them.
  struct StageSpec {
    enum class Kind : uint8_t { kNone, kDecimate, kEwma, kEnvelope, kSpectrum };
    Kind kind = Kind::kNone;
    int64_t factor = 0;       // DECIMATE n / SPECTRUM block size
    double alpha = 0.0;       // EWMA smoothing factor, (0, 1]
    int64_t window_ms = 0;    // ENVELOPE window
    WindowKind window = WindowKind::kHann;  // SPECTRUM taper
    std::string text;         // canonical spec, e.g. "DECIMATE 10"
  };

  // One paced time-travel replay (REPLAY with speed > 0): the filtered
  // window is buffered up front and a shard-loop timer emits records as
  // recorded time advances at `speed` x the loop clock - deterministic
  // under a SimClock.  Owned by the session; the timer is cancelled with
  // the client (DropClient / Close).
  struct ReplayJob {
    std::vector<ReplayRecord> records;  // filtered, time-ordered window
    std::vector<std::string> names;     // record name ids -> stored names
    size_t next = 0;
    int64_t t0 = 0;
    double speed = 1.0;
    Nanos start_ns = 0;
    SourceId timer = 0;
    int64_t emitted = 0;
  };

  // One remote scope session: the server-side half of a control connection.
  // The egress FramedWriter lives on the Client (every connection can carry
  // replies - e.g. the HELLO negotiation - before it becomes a session).
  struct ControlSession {
    SignalFilter filter;          // registered with the router; epoch-coupled
    std::unique_ptr<Scope> scope; // the session's display target
    // Degradation sweep state (loop clock; see Sweep()).
    TapMode tap_mode = TapMode::kEverySample;
    Nanos stalled_since_ns = -1;  // first sweep that saw the backlog pinned
    Nanos calm_since_ns = -1;     // first sweep that saw it calm again
    int64_t last_loss_frames = 0; // writer drops+evictions at the last sweep
    // Attached processing stage (kind == kNone when raw).  While staged the
    // session's own scope is unregistered from the router and `group`
    // points at the shared stage the session rides.
    StageSpec stage;
    StageGroup* group = nullptr;
    // In-flight paced replay (null when none).
    std::unique_ptr<ReplayJob> replay;
  };

  // Inbound wire format of one connection (docs/protocol.md).  Text is the
  // default forever; HELLO BIN upgrades one way.  kBinaryPending covers the
  // window between "OK HELLO" and the client's first binary frame: text
  // lines still parse, and the first frame magic at a line boundary flips
  // the connection to kBinary.
  enum class WireMode : uint8_t { kText, kBinaryPending, kBinary };

  // One dictionary binding of a binary connection: id -> interned name and
  // (when resolvable) the server-wide route index, so steady-state ingest
  // never touches the name bytes.  routed_name carries the tenant prefix
  // (the stored identity); name stays the bare wire form for echo/tap use.
  struct DictEntry {
    std::string name;
    std::string routed_name;
    uint32_t route = 0;
    bool has_route = false;
    bool bound = false;
  };

  struct Client {
    Client(MainLoop* loop, size_t max_line_bytes, size_t max_buffer)
        : framer(max_line_bytes), writer(loop, max_buffer) {}
    LoopShard* shard = nullptr;   // owning shard (stable; see shards_)
    MainLoop* loop = nullptr;     // == shard->loop; every callback runs here
    Socket socket;
    SourceId watch = 0;
    LineFramer framer;
    FramedWriter writer;          // server -> client egress (replies + tuples)
    std::unique_ptr<ControlSession> session;
    Nanos last_activity_ns = 0;   // loop clock at the last byte received
    // Tenant namespace ("" = anonymous); set by a successful AUTH.
    std::string ns;
    // SUB/UNSUB churn quota window (loop clock).
    Nanos churn_window_start_ns = -1;
    size_t churn_count = 0;
    // Echo egress token bucket (quota_egress_bytes_per_sec); deficit
    // semantics: a frame that fits the last token may overdraw, the refill
    // pays the debt.  Burst capacity = one second's worth.
    int64_t egress_tokens = 0;
    Nanos egress_refill_ns = -1;
    // Binary wire protocol v2 state.
    WireMode wire = WireMode::kText;
    std::unique_ptr<wire::FrameDecoder> decoder;  // created at HELLO accept
    std::vector<DictEntry> dict;  // by id - 1 (per-connection namespace)
    bool binary_egress = false;   // replies/echo leave as binary frames
    wire::WireEncoder egress_enc; // staged echo samples (binary sessions)
    std::string egress_scratch;   // one sealed egress frame (quota-gated whole)
  };

  // One shared processing stage: every session on this shard whose
  // (namespace, delay, pattern set, stage spec) tuple matches `key` rides
  // this group.  The group owns its own router-registered Scope; the
  // every-sample tap evaluates the stage once per input sample and fans the
  // derived tuples out to every member - N identical subscriptions cost one
  // evaluation (stats_.stage_evals) and N deliveries (stats_.tuples_derived).
  // Owned by (and only touched from) the shard's loop.
  struct StageGroup {
    std::string key;
    std::string ns;               // members' shared tenant namespace
    StageSpec spec;
    SignalFilter filter;          // copy of the members' pattern set
    std::unique_ptr<Scope> scope; // router-registered evaluation tap
    std::vector<Client*> members; // stable Client pointers (see clients map)
    // Per-signal stage state, keyed by the bare (prefix-stripped) name.
    struct SignalState {
      int64_t count = 0;              // DECIMATE position
      bool has_ewma = false;
      double ewma = 0.0;
      Envelope env{1};                // width-1 envelope = running min/max
      bool has_window = false;        // ENVELOPE window open
      int64_t window_start_ms = 0;
      std::vector<double> one = {0.0};  // reusable 1-sample sweep
      std::vector<double> block;      // SPECTRUM accumulation
      int64_t block_start_ms = 0;
      int64_t last_ms = 0;
      std::string scratch_name;       // derived-name assembly buffer
    };
    std::map<std::string, SignalState, std::less<>> signals;
    // Frame-relay egress: derived samples staged once, the sealed SAMPLES
    // frame broadcast byte-identical to every binary member (per-frame
    // dictionaries make frames self-contained).
    wire::WireEncoder enc;
    std::string text_scratch;       // one formatted tuple line
    std::string frame_scratch;      // one sealed SAMPLES frame
  };

  // One accept shard: everything below is owned by (and only touched from)
  // `loop`, except the two atomics, which any thread may read.  Shards are
  // heap-allocated once in the constructor and never move: raw LoopShard*
  // stays valid in every deferred closure for the server's lifetime.
  struct LoopShard {
    MainLoop* loop = nullptr;
    size_t index = 0;
    Socket listener;              // reuse-port mode: every shard; else shard 0
    SourceId accept_watch = 0;
    SourceId sweep_timer = 0;
    std::map<int, std::unique_ptr<Client>> clients;
    // Shared stage groups, keyed by StageKey(ns, delay, patterns, spec).
    // Per shard: members always share the owning loop, so evaluation and
    // fan-out never cross threads.
    std::map<std::string, std::unique_ptr<StageGroup>, std::less<>> stage_groups;
    std::atomic<size_t> client_count{0};
    std::atomic<size_t> session_count{0};
  };

  struct FrameHandler;  // decoder callbacks -> BindDict/IngestRecords/HandleLine

  bool OnAcceptReady(LoopShard& shard);
  // Finishes an accepted connection on its owning loop.  `counted` = the
  // hand-off acceptor already charged shard.client_count (it pre-counts so
  // a burst balances against in-flight hand-offs).
  void SetupClient(LoopShard& shard, Socket conn, bool counted);
  LoopShard* PickShard();
  bool OnClientReady(LoopShard& shard, int client_key, IoCondition cond);
  void ProcessData(LoopShard& shard, int client_key, Client& client,
                   const char* data, size_t len);
  void HandleLine(LoopShard& shard, int client_key, Client& client,
                  std::string_view line);
  void HandleControlLine(LoopShard& shard, int client_key, Client& client,
                         std::string_view line);
  // HELLO negotiation (before the verb whitelist: no session is created).
  void HandleHello(Client& client, std::string_view rest);
  // AUTH <token>: tenant namespace entry (before the whitelist, like HELLO:
  // authenticating must not cost a scope).
  void HandleAuth(Client& client, std::string_view rest);
  // Quota primitives (docs/protocol.md "Quotas").
  bool ChurnAllowed(Client& client);
  bool EgressAllowed(Client& client);
  void ChargeEgress(Client& client, size_t bytes);
  ControlSession& EnsureSession(LoopShard& shard, int client_key, Client& client);
  void Reply(Client& client, std::string_view line);
  // Installs/updates one dictionary binding of a binary connection.
  void BindDict(Client& client, uint32_t id, std::string_view name);
  // Ingests a decoded sample batch (`n` records of kSampleRecordBytes).
  void IngestRecords(Client& client, int64_t base_time_ms, const char* records, size_t n);
  // Seals the staged echo samples of a binary session into one wire frame.
  void FlushEgress(Client& client);
  // The one echo emitter: the session's echo tap and REPLAY both call it.
  // Strips the tenant prefix, applies the egress quota (a text line is
  // gated here; a binary frame when FlushEgress seals it) and appends a
  // tuple line or stages a binary sample - a replayed sample is
  // indistinguishable from a live one on the wire.  Writing belongs to the
  // caller: the end of a drain, a burst REPLAY's DONE reply, or a paced
  // ReplayTick.
  void EmitEcho(Client& client, std::string_view stored_name, int64_t time_ms,
                double value);
  // Seals staged binary echo, then writes the session's backlog once: the
  // end of each session drain and of each paced ReplayTick.
  void WriteEcho(Client& client);
  // Folds a decoder's counters into stats_ (frames_rx / frames_crc_errors).
  void FoldDecoderStats(wire::FrameDecoder& decoder);
  // (Re)installs the session scope's echo tap in `mode`; records the mode.
  // For a registered scope, call under router_.LockRoutes() when loops > 1
  // (a table rebuild reads the tap's history requirement).
  void InstallEchoTap(Client& client, TapMode mode);
  // Derived-signal pipelines (docs/protocol.md "Derived-signal pipelines").
  // ParseStageSpec fills `spec` from a stage verb + argument tokens; on
  // failure returns false and fills `err` with the ERR reply body.
  static bool ParseStageSpec(std::string_view verb, std::string_view arg,
                             std::string_view arg2, StageSpec& spec,
                             std::string& err);
  // The group identity: namespace, session delay, sorted pattern set and
  // canonical spec text, joined so equal subscriptions share one group.
  static std::string StageKey(std::string_view ns, int64_t delay_ms,
                              const SignalFilter& filter, std::string_view spec);
  // Moves the session into the group matching (its current filter/delay/ns,
  // `spec`), creating the group on first use; the session's own scope is
  // unregistered while staged.  No-op when already in the right group.
  void AttachStage(LoopShard& shard, Client& client, const StageSpec& spec);
  // Re-keys a staged session after its filter/delay/namespace changed.
  void ReattachStage(LoopShard& shard, Client& client);
  // Leaves the stage group (destroying it when it empties) and restores the
  // session's own scope + echo tap in `mode`.
  void DetachStage(LoopShard& shard, Client& client, TapMode mode);
  // Removes the client from its group; tears the group down when empty.
  void LeaveGroup(LoopShard& shard, Client& client);
  // The group scope's every-sample tap: evaluates the stage once and fans
  // derived tuples out to every member.
  void EvaluateStage(StageGroup& group, std::string_view name, int64_t time_ms,
                     double value);
  // Delivers one derived tuple: text members get the line formatted once;
  // binary members share the group's staged SAMPLES frame.
  void EmitDerived(StageGroup& group, std::string_view name, int64_t time_ms,
                   double value);
  // Seals the group's staged samples into one frame and broadcasts the
  // identical bytes to every binary member (per-member quota gated).
  void FlushGroupEgress(StageGroup& group);
  // A stage group's end of drain: the relay frame, then one write per
  // member.
  void EndGroupDrain(StageGroup& group);
  // Flight recorder (docs/protocol.md "Flight recorder").  HandleRecord
  // resolves RECORD <path> / RECORD OFF into `reply`; HandleReplay sends its
  // own replies (OK + the window + INFO REPLAY DONE, or an ERR).
  void HandleRecord(std::string_view arg, std::string& reply);
  void HandleReplay(LoopShard& shard, int client_key, Client& client,
                    int64_t t0, int64_t t1, double speed);
  // Paced-replay timer body: emits and writes the records due at the
  // current virtual time; false (removing the timer) after the DONE marker.
  bool ReplayTick(LoopShard& shard, int client_key);
  void CancelReplay(LoopShard& shard, Client& client);
  // Folds the live recorder's counters into record_retired_ before it is
  // destroyed (record_mu_ held), so STATS stays monotone across RECORD OFF.
  void FoldRecorderLocked();
  // Maintenance sweep (idle_timeout_ms / degrade_stalled_ms): drops idle
  // clients and downgrades/restores pinned sessions' echo taps.  One per
  // shard, on the shard's loop.
  bool Sweep(LoopShard& shard);
  // Hands the chunk's shared batch to every scope (one O(1) span each).
  void FlushIngest();
  void DropClient(LoopShard& shard, int client_key);
  // Snapshot of the liveness token for deferred closures.  Loop threads take
  // this while the owner thread may be resetting self_alias_ in the
  // destructor, and shared_ptr is not safe for a concurrent read and write
  // of the same object - hence the lock (cold path: connection setup and
  // flush scheduling only).
  std::weak_ptr<StreamServer> WeakSelf();

  MainLoop* loop_;
  StreamServerOptions options_;
  IngestRouter router_;
  LoopPool pool_;
  std::vector<std::unique_ptr<LoopShard>> shards_;
  bool reuse_port_active_ = false;
  uint16_t port_ = 0;

  std::atomic<int> next_client_key_{1};
  std::atomic<int> next_stage_id_{1};
  IngestTapFn ingest_tap_;
  // Flight recorder: one capture per server, started/stopped by RECORD
  // verbs that may arrive on any shard loop - hence the mutex (cold path;
  // the capture itself runs on the recorder's own thread).  record_path_
  // survives RECORD OFF so a stopped recording stays replayable.
  std::mutex record_mu_;
  std::unique_ptr<Recorder> recorder_;
  std::string record_path_;
  // Counters of recorders already retired (STATS monotonicity).
  struct RecordTallies {
    int64_t samples_captured = 0;
    int64_t extents_sealed = 0;
    int64_t extents_recovered = 0;
    int64_t extents_dropped = 0;
    int64_t capture_bytes = 0;
  };
  RecordTallies record_retired_;
  // Liveness token for closures deferred through MainLoop::Invoke (session
  // egress errors, cross-loop hand-offs): reset in the destructor, so a
  // queued DropClient cannot run against a destroyed server.  Guarded by
  // self_alias_mu_; read via WeakSelf().
  std::mutex self_alias_mu_;
  std::shared_ptr<StreamServer> self_alias_{this, [](StreamServer*) {}};
  Stats stats_;
};

}  // namespace gscope

#endif  // GSCOPE_NET_STREAM_SERVER_H_
