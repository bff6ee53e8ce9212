// Scope: the GtkScope analogue (Sections 2 and 3).
//
// A Scope owns a set of signals, samples them on a polling period through the
// main loop's timeout mechanism, and retains one Trace (pixel-column ring)
// per signal for display.  Every action that the paper's GUI offers has a
// method here ("a programmatic interface for every action that can be
// performed from the GUI"):
//
//   GUI element (Figures 1-2)      method
//   -------------------------      -----------------------------------
//   sampling period widget         SetPollingMode / SetPollingPeriodMs
//   zoom / bias widgets            SetZoom / SetBias
//   delay widget                   SetDelayMs
//   left-click on signal name      ToggleHidden / SetHidden
//   right-click parameter window   SetRange / SetColor / SetLineMode /
//                                  SetFilterAlpha
//   Value button                   LatestValue
//   record                         StartRecording / StopRecording
//   playback                       SetPlaybackMode
//   time/frequency selector        SetDomain
//
// Acquisition modes (Section 3.1): polling (sample the live program) and
// playback (replay a tuple file).  Both display one sampling point per pixel
// column per polling period.  Lost polling timeouts advance the traces by the
// number of missed columns (Section 4.5).
//
// Threading: all Scope methods must run on the loop thread, except
// PushBuffered, PushBufferedBatch and PushIngestSpan, which are thread-safe
// (this is the paper's GTK-lock discipline; cross-thread calls go through
// MainLoop::Invoke).
//
// Concurrent mode (SetConcurrent): when the net layer shards sessions
// across per-core loops, an IngestRouter running on another loop must read
// this scope's signal table while building route snapshots (FindSignal /
// FindOrAddBufferSignal / SignalNeedsHistory) — and auto-creation mutates
// it.  Concurrent mode gates those table-build entry points, the signal-set
// mutators, the consumer mutators and the poll tick behind one internal
// mutex so the owner loop's tick never walks a reallocating signal vector.
// Off (the default) nothing locks and behaviour is byte-identical; on, the
// tick pays one uncontended lock per tick, never per sample.  Consumer
// mutators (AttachSampleSink and friends) must then not be called from
// inside a tick callback (a sink or tap body) — that would self-deadlock.
#ifndef GSCOPE_CORE_SCOPE_H_
#define GSCOPE_CORE_SCOPE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/aggregate.h"
#include "core/filter.h"
#include "core/ingest_bus.h"
#include "core/signal_spec.h"
#include "core/string_index.h"
#include "core/trace.h"
#include "core/trigger.h"
#include "core/tuple_io.h"
#include "core/value.h"
#include "runtime/event_loop.h"
#include "runtime/relaxed_counter.h"

namespace gscope {

enum class AcquisitionMode : uint8_t { kPolling, kPlayback };
enum class DisplayDomain : uint8_t { kTime, kFrequency };

struct ScopeOptions {
  std::string name = "scope";
  // Canvas geometry; width is also the number of trace columns retained.
  int width = 512;
  int height = 256;
  // Playback: auto-create signals for tuple names not seen before.
  bool auto_create_playback_signals = true;
  // Samples the scope's one ingest queue holds for BUFFER signals: queued
  // spans and staged direct pushes together.
  size_t buffer_capacity = 1 << 16;
};

// How a buffered tap (SetBufferedTap) interacts with drain coalescing.
enum class TapMode : uint8_t {
  // The tap is an every-sample consumer (e.g. the stream server's remote
  // session echo): every signal of this scope needs the full history path.
  kEverySample,
  // The tap only wants what the display shows: for display-only signals it
  // fires once per signal per tick with the tick's last-wins winner,
  // however many batches arrived, and coalescing stays effective.  Signals
  // that independently need history (a sample sink attached) still deliver
  // per sample to the tap — the tap never suppresses data a co-attached
  // consumer forced onto the history path.
  kCoalesced,
};

class Scope {
 public:
  // `loop` is not owned and must outlive the scope.
  explicit Scope(MainLoop* loop, ScopeOptions options = {});
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  const std::string& name() const { return options_.name; }
  int width() const { return options_.width; }
  int height() const { return options_.height; }
  MainLoop* loop() const { return loop_; }

  // Enables the cross-loop table-build locking described in the header
  // comment.  Call before the scope is visible to another thread; the flag
  // itself is not synchronized.
  void SetConcurrent(bool on) { concurrent_ = on; }
  bool concurrent() const { return concurrent_; }

  // -- Signals (gtk_scope_signal_new / dynamic addition and removal) -------

  // Adds a signal; returns its id (0 on invalid spec, e.g. duplicate name).
  SignalId AddSignal(const SignalSpec& spec);
  bool RemoveSignal(SignalId id);
  // Id for a name, 0 if unknown.  O(1) through the interned name index.
  SignalId FindSignal(std::string_view name) const;
  // FindSignal, but creates a BUFFER signal named `name` when unknown (the
  // stream server's auto-create, without a second index lookup).
  SignalId FindOrAddBufferSignal(std::string_view name);
  std::vector<SignalId> SignalIds() const;
  size_t signal_count() const { return signals_.size(); }
  // Bumped on every AddSignal/RemoveSignal; lets callers (e.g. the stream
  // server's per-client name->id caches) cheaply detect staleness.  Relaxed
  // atomic: routers on other loops poll it when building route snapshots.
  uint64_t signals_epoch() const { return signals_epoch_.load(std::memory_order_relaxed); }

  // -- Per-signal parameters (Figure 2 window) ------------------------------

  bool SetHidden(SignalId id, bool hidden);
  bool ToggleHidden(SignalId id);
  bool SetFilterAlpha(SignalId id, double alpha);
  bool SetRange(SignalId id, double min, double max);
  bool SetColor(SignalId id, Rgb color);
  bool SetLineMode(SignalId id, LineMode mode);

  // Current (possibly GUI-modified) spec; null for unknown ids.  Signals
  // live in dense storage: the returned pointers are invalidated by any
  // subsequent AddSignal/RemoveSignal — re-fetch rather than caching them
  // across signal-set mutations.
  const SignalSpec* SpecFor(SignalId id) const;
  const Trace* TraceFor(SignalId id) const;
  // The Value button: most recent displayed (filtered) value.
  std::optional<double> LatestValue(SignalId id) const;
  // Most recent raw (pre-filter) sample.
  std::optional<double> LatestRaw(SignalId id) const;
  // Producer timestamp of the most recent buffered sample routed (or
  // coalesced) to this signal; nullopt before any buffered data arrived.
  std::optional<int64_t> LatestBufferedTime(SignalId id) const;

  // Maps a signal value to the 0..100 y ruler using the signal's min/max and
  // the scope zoom/bias: ruler = ((v - min) / (max - min) * 100) * zoom + bias.
  double NormalizeValue(SignalId id, double value) const;

  // -- Acquisition ----------------------------------------------------------

  // gtk_scope_set_polling_mode(scope, period_ms).
  bool SetPollingMode(int64_t period_ms);
  // Playback from a recorded tuple file at the given display period.
  bool SetPlaybackMode(const std::string& path, int64_t period_ms);
  AcquisitionMode mode() const { return mode_; }

  // gtk_scope_start_polling / stop.  Start installs the timeout source.
  bool StartPolling();
  void StopPolling();
  bool IsRunning() const { return poll_source_ != 0; }

  // The drained start, for a scope that exists only to feed its buffered
  // tap (the stream server's session and stage-group scopes, whose traces
  // nothing reads): each tick hands every displayable sample to the tap,
  // publishes the coalesce mirror and runs `after_drain`, but never samples
  // signals or paints trace columns.  While an every-sample tap is attached,
  // each drain also brings the timer forward to the instant the earliest
  // queued sample becomes displayable (origin + stamp + delay), so a sample
  // leaves at its deadline, never before it, instead of up to one period
  // after it.  The polling period stays the longest gap between drains; a
  // kCoalesced tap (or none) drains once per period.  A sample that reaches
  // an idle scope less than one period before its deadline, or a span
  // pushed from another loop after the last drain, is found at the next
  // drain or period tick.  Starts the scope's clock if no time base was
  // adopted.
  using DrainFn = std::function<void()>;
  bool StartDraining(DrainFn after_drain);

  int64_t polling_period_ms() const { return period_ms_; }
  // Adjusts the period while running (the sampling-period widget).
  bool SetPollingPeriodMs(int64_t period_ms);

  // -- Display parameters ---------------------------------------------------

  void SetZoom(double zoom);
  double zoom() const { return zoom_; }
  void SetBias(double bias);
  double bias() const { return bias_; }
  void SetDelayMs(int64_t delay_ms);
  int64_t delay_ms() const { return delay_ms_.load(std::memory_order_relaxed); }
  void SetDomain(DisplayDomain domain) { domain_ = domain; }
  DisplayDomain domain() const { return domain_; }

  // -- Buffered data (BUFFER signals) ---------------------------------------

  // Thread-safe, allocation-free push of a timestamped sample for the signal
  // with id `id` (from FindSignal / AddSignal), staged into the scope's one
  // ingest queue (IngestSpanQueue::Stage).  id 0 is accepted and counted as
  // buffered_unmatched at drain time.  Returns false if the sample was late
  // and dropped.
  bool PushBuffered(SignalId id, int64_t time_ms, double value);

  // Batched fast path: stages `count` pre-keyed samples (key = SignalId or
  // the staged sentinels of core/ingest_bus.h) with one scope-time read and
  // one lock round-trip.  Returns the number accepted; rejects are late
  // drops.  Thread-safe.
  size_t PushBufferedBatch(const Sample* samples, size_t count);

  // Name-keyed shim over the id fast path: resolves `signal_name` through
  // the interned index (empty name = the single-signal special case, routed
  // to the first BUFFER signal at drain time; an unknown name is re-resolved
  // at drain time).  Thread-safe.
  bool PushBuffered(std::string_view signal_name, int64_t time_ms, double value);

  // O(1) span hand-off from an IngestRouter: the scope keeps a reference to
  // the shared parsed block instead of copying its samples, and translates
  // route keys to its own signals at drain time.  The block must be
  // time-sorted (IngestRouter::Flush sorts it), so the samples that already
  // missed the display deadline form a prefix: it is counted late and the
  // rest of the span is queued.  Returns the number of samples not rejected
  // as late.  Thread-safe (with loops > 1 a router flush on another loop
  // calls this).  `now_ms` is the scope time the late-drop verdict is
  // judged against; the router reads it for every scope before its first
  // push, so the pushes into earlier scopes cannot turn an on-time batch
  // late.
  size_t PushIngestSpan(const IngestSpan& span, int64_t now_ms);
  size_t PushIngestSpan(const IngestSpan& span) { return PushIngestSpan(span, NowMs()); }
  IngestSpanQueue::Stats ingest_span_stats() const { return ingest_spans_.stats(); }
  size_t pending_ingest_samples() const { return ingest_spans_.queued_samples(); }

  // Observer of buffered samples as they route to signals at drain time
  // (loop thread).  This is the egress hook of the control channel: a
  // remote scope session re-serializes each routed sample back to its
  // client.  In kEverySample mode (the default) the tap is an every-sample
  // consumer: it sees each sample before sample-and-hold decimates, and it
  // disables drain coalescing for the whole scope.  In kCoalesced mode it
  // fires once per display-only signal per tick with the last-wins winner
  // (see TapMode::kCoalesced for the sink-attached caveat).  Null
  // (default) disables the hook.  Changing the tap bumps consumers_epoch().
  using BufferedTapFn = std::function<void(std::string_view name, int64_t time_ms, double value)>;
  void SetBufferedTap(BufferedTapFn tap, TapMode mode = TapMode::kEverySample);

  // -- Every-sample consumers (history sinks) -------------------------------

  // A sample sink attached to a signal observes EVERY buffered sample routed
  // to it, in time order, at drain time (loop thread) — the full-history
  // path that triggers, high-rate traces, aggregates, envelopes and
  // exporters need.  Signals without a sink are "display-only": between
  // polls only their last value is displayable (core/sample_hold.h), so the
  // drain coalesces their samples to one hold write per tick.  Attach and
  // detach bump consumers_epoch(); routers fold that epoch into their route
  // snapshots, so a mode flip takes effect at the next route-table build,
  // never via a per-sample check.
  using SampleSinkFn = std::function<void(int64_t time_ms, double value)>;
  // Returns a detach handle, 0 for unknown signals.
  uint64_t AttachSampleSink(SignalId id, SampleSinkFn sink);
  bool DetachSampleSink(uint64_t sink_handle);
  // Convenience adapters for the classic consumer kinds (the pointee is not
  // owned and must outlive the attachment).
  uint64_t AttachTrigger(SignalId id, Trigger* trigger) {
    return trigger == nullptr ? 0 : AttachSampleSink(id, [trigger](int64_t, double v) {
      trigger->Feed(v);
    });
  }
  uint64_t AttachAggregate(SignalId id, EventAggregator* aggregate) {
    return aggregate == nullptr ? 0 : AttachSampleSink(id, [aggregate](int64_t, double v) {
      aggregate->Push(v);
    });
  }
  // Full-rate history trace: one column per sample, not per poll tick.
  uint64_t AttachHistoryTrace(SignalId id, Trace* trace) {
    return trace == nullptr ? 0 : AttachSampleSink(id, [trace](int64_t, double v) {
      trace->Push(v);
    });
  }
  // Every-sample export in tuple format (render/export.h handles per-tick).
  uint64_t AttachExport(SignalId id, TupleWriter* writer);
  // True when `id` has a sink attached, or an every-sample tap covers the
  // scope: its samples must take the history path at drain time.
  bool SignalNeedsHistory(SignalId id) const;
  // Bumped by every sink attach/detach and tap change; routers fold this
  // into RouteEpoch() like signals_epoch().  Relaxed atomic for the same
  // cross-loop reason as signals_epoch().
  uint64_t consumers_epoch() const { return consumers_epoch_.load(std::memory_order_relaxed); }
  size_t sample_sink_count() const { return total_sinks_; }

  // Copies `reference`'s time origin so NowMs() values of the two scopes are
  // directly comparable.  A remote scope session created mid-stream must
  // judge producer timestamps on the server's existing axis, not restart at
  // zero.  Call before StartPolling; no-op if the reference never started.
  void AdoptTimeBase(const Scope& reference);

  // -- Recording ------------------------------------------------------------

  bool StartRecording(const std::string& path);
  void StopRecording();
  bool IsRecording() const { return recorder_.is_open(); }

  // -- Introspection ---------------------------------------------------------

  struct Counters {
    int64_t ticks = 0;          // poll callbacks dispatched
    int64_t lost_ticks = 0;     // missed periods compensated (Section 4.5)
    int64_t samples = 0;        // sampling points taken
    int64_t buffered_routed = 0;
    int64_t buffered_unmatched = 0;
    // Last-wins coalescing: buffered samples folded away at drain time
    // because only the newest value per display-only signal per tick is
    // displayable (each fold's winner still counts in buffered_routed).
    int64_t samples_coalesced = 0;
    // Samples delivered one by one through the history path (an
    // every-sample consumer or an every-sample tap).
    int64_t samples_retained = 0;
    bool playback_done = false;
  };
  const Counters& counters() const { return counters_; }

  // Lock-free mirror of the two drain tallies above, published once per
  // poll tick - NOT per sample, so the drain hot path stays atomic-free.
  // A STATS fold running on another loop reads the mirror instead of
  // counters(); the value lags the live counter by at most one tick.
  struct CoalesceMirror {
    RelaxedCounter samples_coalesced;
    RelaxedCounter samples_retained;
  };
  const CoalesceMirror& coalesce_mirror() const { return coalesce_mirror_; }
  const TimerStats* poll_stats() const;

  // Milliseconds of scope time since StartPolling (0 when never started).
  int64_t NowMs() const;

  // Runs one poll tick synchronously, as if the timeout fired with `lost`
  // missed periods.  Drives tests and simulation-fed scopes deterministically.
  void TickOnce(int64_t lost = 0);

 private:
  struct SampleSink {
    uint64_t handle = 0;
    SampleSinkFn fn;
  };

  struct SignalState {
    SignalId id = 0;
    SignalSpec spec;
    LowPassFilter filter;
    Trace trace;
    double latest_raw = 0.0;
    double latest_display = 0.0;
    bool has_value = false;
    // Sample-and-hold state for BUFFER signals between drains.
    double buffered_hold = 0.0;
    int64_t buffered_hold_time_ms = 0;  // producer stamp of the held sample
    bool buffered_primed = false;
    // The per-tick last-wins fold: the drain tick that last folded into
    // this signal (0 = none pending this tick).
    uint64_t fold_tick = 0;
    // Every-sample sinks attached to this signal.  Stored per signal so the
    // history path dispatches in O(sinks on this signal), not O(all sinks
    // on the scope); non-empty = the signal needs the full history path.
    std::vector<SampleSink> sinks;
  };

  bool OnPollTick(const TimeoutTick& tick);
  // The tick of a drained scope (StartDraining).
  void OnDrainTick(const TimeoutTick& tick);
  void SamplePolling(int64_t now_ms, int64_t lost);
  bool SamplePlayback(int64_t lost);
  // Drains every displayable sample: display-only samples fold into their
  // holds once per tick (Fold), history samples route in queue order.
  // Returns the earliest stamp left queued (IngestSpanQueue::kNoStamp when
  // none).
  int64_t DrainIngestQueue(int64_t now_ms, int64_t delay_ms);
  // Publishes the drain tallies for cross-loop STATS folds.
  void PublishCoalesceMirror();
  // A whole router block feeds the fold from its live summary in O(live
  // routes), walking samples only for routes that need history.
  void FoldBlockSummary(const IngestSpan& span);
  void DrainSample(const IngestSpan& span, const Sample& sample);
  // Folds `count` display-only samples whose newest is (time_ms, value): the
  // newest (time, arrival) of the tick holds, and every other sample of the
  // tick counts as coalesced.
  void Fold(SignalState& state, int64_t time_ms, double value, uint32_t count);
  void RouteHistory(SignalState& state, int64_t time_ms, double value);
  // Ends the signal's pending fold of this tick, if any, and fires a
  // kCoalesced tap with its winner: once per signal per tick, before any
  // newer walked sample of the signal.
  void SettleFold(SignalState& state);
  void DispatchSinks(const SignalState& state, int64_t time_ms, double value);
  // True when an every-sample tap makes every signal a history signal.
  bool TapNeedsHistory() const {
    return buffered_tap_ != nullptr && tap_mode_ == TapMode::kEverySample;
  }
  // False for router samples the name shim delivered out-of-band or the
  // slot's filter excludes (slot id 0); otherwise sets *key to this scope's
  // SampleKey for the sample (staged samples already carry one).
  static bool TranslateSpanKey(const IngestSpan& span, const Sample& sample, SampleKey* key);
  double SampleSource(SignalState& state);
  void CommitSample(SignalState& state, double raw, int64_t lost, int64_t now_ms);
  SignalState* Find(SignalId id);
  const SignalState* Find(SignalId id) const;
  // The BUFFER signal with id `id`; null for unknown ids and other types.
  SignalState* FindBuffer(SignalId id);
  SignalState* FirstBufferSignal();

  MainLoop* loop_;
  ScopeOptions options_;

  // Dense signal storage in id (= insertion) order: the per-tick sampling
  // loop walks states contiguously instead of chasing map nodes.
  std::vector<SignalState> signals_;
  // id -> index into signals_, +1 (0 = unknown id).  Indexed by SignalId.
  std::vector<uint32_t> id_to_index_;
  // Interned name index; read by producer threads through the PushBuffered
  // name shim, written by AddSignal/RemoveSignal on the loop thread.
  StringKeyedMap<SignalId> name_index_;
  // Names pushed before their signal exists, interned into the
  // kPendingNameKeyBit keyspace and re-resolved at drain time.
  StringKeyedMap<uint64_t> pending_names_;
  std::vector<std::string> pending_names_rev_;
  mutable std::shared_mutex name_mu_;
  std::atomic<uint64_t> signals_epoch_{0};
  SignalId next_signal_id_ = 1;
  int next_color_ = 0;

  // Concurrent mode (SetConcurrent): serializes the poll tick against
  // cross-loop table builds.  Ordering: tick_mu_ before name_mu_ (AddSignal
  // takes both); nothing takes them in the other order.
  mutable std::mutex tick_mu_;
  bool concurrent_ = false;
  std::unique_lock<std::mutex> MaybeTickLock() const {
    return concurrent_ ? std::unique_lock<std::mutex>(tick_mu_)
                       : std::unique_lock<std::mutex>();
  }

  BufferedTapFn buffered_tap_;
  TapMode tap_mode_ = TapMode::kEverySample;

  // Every-sample consumers (stored per signal in SignalState::sinks);
  // epoch bumps on attach/detach/tap changes.
  size_t total_sinks_ = 0;
  uint64_t next_sink_handle_ = 1;
  std::atomic<uint64_t> consumers_epoch_{0};

  // Reused per-tick drain scratch (no steady-state allocation).
  std::vector<IngestSpan> span_scratch_;
  // The per-tick last-wins fold: the current drain tick's stamp (see
  // SignalState::fold_tick) and, when a tap must see the winners, the
  // signals it folded in first-touch order.
  uint64_t fold_tick_ = 0;
  std::vector<uint32_t> folded_;

  AcquisitionMode mode_ = AcquisitionMode::kPolling;
  int64_t period_ms_ = 50;  // the paper's example default
  SourceId poll_source_ = 0;
  // Set by StartDraining: the scope drains instead of sampling.
  DrainFn after_drain_;
  // Read by producer-thread pushes through NowMs(); written on the loop
  // thread when polling starts.
  std::atomic<Nanos> start_ns_{0};
  std::atomic<bool> started_{false};

  double zoom_ = 1.0;
  double bias_ = 0.0;
  // Read by producer-thread pushes, written by SetDelayMs on the loop thread.
  std::atomic<int64_t> delay_ms_{0};
  DisplayDomain domain_ = DisplayDomain::kTime;

  IngestSpanQueue ingest_spans_;

  TupleReader playback_;
  std::optional<Tuple> playback_pending_;
  int64_t playback_time_ms_ = 0;

  TupleWriter recorder_;
  Counters counters_;
  CoalesceMirror coalesce_mirror_;
};

}  // namespace gscope

#endif  // GSCOPE_CORE_SCOPE_H_
