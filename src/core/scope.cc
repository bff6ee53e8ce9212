#include "core/scope.h"

#include <mutex>

namespace gscope {
namespace {

// Default per-signal palette, applied in AddSignal order.  Mirrors the look
// of the paper's screenshots (distinct saturated colours on black).
constexpr Rgb kPalette[] = {
    {0x00, 0xff, 0x00},  // green
    {0xff, 0x40, 0x40},  // red
    {0x40, 0x80, 0xff},  // blue
    {0xff, 0xff, 0x00},  // yellow
    {0x00, 0xff, 0xff},  // cyan
    {0xff, 0x00, 0xff},  // magenta
    {0xff, 0x80, 0x00},  // orange
    {0xff, 0xff, 0xff},  // white
};
constexpr int kPaletteSize = static_cast<int>(sizeof(kPalette) / sizeof(kPalette[0]));

}  // namespace

Scope::Scope(MainLoop* loop, ScopeOptions options)
    : loop_(loop),
      options_(std::move(options)),
      ingest_spans_(options_.buffer_capacity) {
  if (options_.width <= 0) {
    options_.width = 512;
  }
  if (options_.height <= 0) {
    options_.height = 256;
  }
}

Scope::~Scope() { StopPolling(); }

SignalId Scope::AddSignal(const SignalSpec& spec) {
  if (spec.name.empty() || FindSignal(spec.name) != 0) {
    return 0;
  }
  if (spec.max <= spec.min) {
    return 0;
  }
  SignalState state{0, spec, LowPassFilter(spec.filter_alpha),
                    Trace(static_cast<size_t>(options_.width))};
  if (!state.spec.color.has_value()) {
    state.spec.color = kPalette[next_color_ % kPaletteSize];
    ++next_color_;
  }
  SignalId id = next_signal_id_++;
  state.id = id;
  {
    // tick_mu_ first: in concurrent mode the owner loop's tick walks
    // signals_ without name_mu_, and the push_back below may reallocate.
    std::unique_lock<std::mutex> tick_lock = MaybeTickLock();
    std::unique_lock<std::shared_mutex> lock(name_mu_);
    signals_.push_back(std::move(state));
    if (id_to_index_.size() <= static_cast<size_t>(id)) {
      id_to_index_.resize(static_cast<size_t>(id) + 1, 0);
    }
    id_to_index_[static_cast<size_t>(id)] = static_cast<uint32_t>(signals_.size());
    name_index_.emplace(spec.name, id);
    signals_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  return id;
}

bool Scope::RemoveSignal(SignalId id) {
  std::unique_lock<std::mutex> tick_lock = MaybeTickLock();
  SignalState* state = Find(id);
  if (state == nullptr) {
    return false;
  }
  if (!state->sinks.empty()) {
    // Sinks die with their signal; the consumer epoch moves so routers
    // rebuild their needs_history bits.
    total_sinks_ -= state->sinks.size();
    consumers_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  std::unique_lock<std::shared_mutex> lock(name_mu_);
  size_t index = static_cast<size_t>(state - signals_.data());
  name_index_.erase(state->spec.name);
  id_to_index_[static_cast<size_t>(id)] = 0;
  signals_.erase(signals_.begin() + static_cast<ptrdiff_t>(index));
  for (size_t i = index; i < signals_.size(); ++i) {
    id_to_index_[static_cast<size_t>(signals_[i].id)] = static_cast<uint32_t>(i + 1);
  }
  signals_epoch_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

SignalId Scope::FindSignal(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(name_mu_);
  auto it = name_index_.find(name);
  return it == name_index_.end() ? 0 : it->second;
}

SignalId Scope::FindOrAddBufferSignal(std::string_view name) {
  SignalId id = FindSignal(name);
  if (id != 0 || name.empty()) {
    return id;
  }
  SignalSpec spec;
  spec.name.assign(name);
  spec.source = BufferSource{};
  return AddSignal(spec);
}

std::vector<SignalId> Scope::SignalIds() const {
  std::vector<SignalId> ids;
  ids.reserve(signals_.size());
  for (const SignalState& state : signals_) {
    ids.push_back(state.id);
  }
  return ids;
}

bool Scope::SetHidden(SignalId id, bool hidden) {
  SignalState* s = Find(id);
  if (s == nullptr) {
    return false;
  }
  s->spec.hidden = hidden;
  return true;
}

bool Scope::ToggleHidden(SignalId id) {
  SignalState* s = Find(id);
  if (s == nullptr) {
    return false;
  }
  s->spec.hidden = !s->spec.hidden;
  return true;
}

bool Scope::SetFilterAlpha(SignalId id, double alpha) {
  SignalState* s = Find(id);
  if (s == nullptr || alpha < 0.0 || alpha > 1.0) {
    return false;
  }
  s->spec.filter_alpha = alpha;
  s->filter.set_alpha(alpha);
  return true;
}

bool Scope::SetRange(SignalId id, double min, double max) {
  SignalState* s = Find(id);
  if (s == nullptr || max <= min) {
    return false;
  }
  s->spec.min = min;
  s->spec.max = max;
  return true;
}

bool Scope::SetColor(SignalId id, Rgb color) {
  SignalState* s = Find(id);
  if (s == nullptr) {
    return false;
  }
  s->spec.color = color;
  return true;
}

bool Scope::SetLineMode(SignalId id, LineMode mode) {
  SignalState* s = Find(id);
  if (s == nullptr) {
    return false;
  }
  s->spec.line = mode;
  return true;
}

const SignalSpec* Scope::SpecFor(SignalId id) const {
  const SignalState* s = Find(id);
  return s == nullptr ? nullptr : &s->spec;
}

const Trace* Scope::TraceFor(SignalId id) const {
  const SignalState* s = Find(id);
  return s == nullptr ? nullptr : &s->trace;
}

std::optional<double> Scope::LatestValue(SignalId id) const {
  const SignalState* s = Find(id);
  if (s == nullptr || !s->has_value) {
    return std::nullopt;
  }
  return s->latest_display;
}

std::optional<double> Scope::LatestRaw(SignalId id) const {
  const SignalState* s = Find(id);
  if (s == nullptr || !s->has_value) {
    return std::nullopt;
  }
  return s->latest_raw;
}

std::optional<int64_t> Scope::LatestBufferedTime(SignalId id) const {
  const SignalState* s = Find(id);
  if (s == nullptr || !s->buffered_primed) {
    return std::nullopt;
  }
  return s->buffered_hold_time_ms;
}

void Scope::SetBufferedTap(BufferedTapFn tap, TapMode mode) {
  std::unique_lock<std::mutex> tick_lock = MaybeTickLock();
  buffered_tap_ = std::move(tap);
  tap_mode_ = mode;
  consumers_epoch_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Scope::AttachSampleSink(SignalId id, SampleSinkFn sink) {
  std::unique_lock<std::mutex> tick_lock = MaybeTickLock();
  SignalState* s = Find(id);
  if (s == nullptr || sink == nullptr) {
    return 0;
  }
  uint64_t handle = next_sink_handle_++;
  s->sinks.push_back(SampleSink{handle, std::move(sink)});
  total_sinks_ += 1;
  consumers_epoch_.fetch_add(1, std::memory_order_relaxed);
  return handle;
}

bool Scope::DetachSampleSink(uint64_t sink_handle) {
  // Detach is rare (topology churn, not the drain path): a scan over the
  // per-signal sink lists keeps dispatch O(sinks on the signal).
  std::unique_lock<std::mutex> tick_lock = MaybeTickLock();
  for (SignalState& state : signals_) {
    for (size_t i = 0; i < state.sinks.size(); ++i) {
      if (state.sinks[i].handle != sink_handle) {
        continue;
      }
      state.sinks.erase(state.sinks.begin() + static_cast<ptrdiff_t>(i));
      total_sinks_ -= 1;
      consumers_epoch_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

uint64_t Scope::AttachExport(SignalId id, TupleWriter* writer) {
  const SignalState* s = Find(id);
  if (s == nullptr || writer == nullptr) {
    return 0;
  }
  // The name is captured by value: SignalState storage moves on signal-set
  // mutations, and the export must keep labeling tuples correctly.
  std::string name = s->spec.name;
  return AttachSampleSink(id, [writer, name = std::move(name)](int64_t time_ms, double value) {
    writer->Write(time_ms, value, name);
  });
}

bool Scope::SignalNeedsHistory(SignalId id) const {
  // Called by routers on other loops at table-build time (under the
  // router's own lock); the tick lock keeps the read of signals_ and the
  // sink lists coherent against this loop's tick and consumer mutators.
  std::unique_lock<std::mutex> tick_lock = MaybeTickLock();
  const SignalState* s = Find(id);
  if (s == nullptr) {
    return false;
  }
  return !s->sinks.empty() || TapNeedsHistory();
}

void Scope::DispatchSinks(const SignalState& state, int64_t time_ms, double value) {
  for (const SampleSink& sink : state.sinks) {
    sink.fn(time_ms, value);
  }
}

double Scope::NormalizeValue(SignalId id, double value) const {
  const SignalState* s = Find(id);
  if (s == nullptr) {
    return 0.0;
  }
  double span = s->spec.max - s->spec.min;
  double ruler = (value - s->spec.min) / span * 100.0;
  return ruler * zoom_ + bias_;
}

bool Scope::SetPollingMode(int64_t period_ms) {
  if (period_ms <= 0) {
    return false;
  }
  mode_ = AcquisitionMode::kPolling;
  period_ms_ = period_ms;
  if (IsRunning()) {
    loop_->SetTimeoutPeriodNs(poll_source_, MillisToNanos(period_ms_));
  }
  return true;
}

bool Scope::SetPlaybackMode(const std::string& path, int64_t period_ms) {
  if (period_ms <= 0) {
    return false;
  }
  if (!playback_.Open(path)) {
    return false;
  }
  mode_ = AcquisitionMode::kPlayback;
  period_ms_ = period_ms;
  playback_pending_.reset();
  playback_time_ms_ = 0;
  counters_.playback_done = false;
  if (IsRunning()) {
    loop_->SetTimeoutPeriodNs(poll_source_, MillisToNanos(period_ms_));
  }
  return true;
}

bool Scope::StartPolling() {
  if (IsRunning()) {
    return true;
  }
  poll_source_ = loop_->AddTimeoutNs(MillisToNanos(period_ms_),
                                     [this](const TimeoutTick& tick) { return OnPollTick(tick); });
  if (poll_source_ == 0) {
    return false;
  }
  if (!started_.load(std::memory_order_relaxed)) {
    start_ns_.store(loop_->clock()->NowNs(), std::memory_order_relaxed);
    started_.store(true, std::memory_order_release);
  }
  return true;
}

bool Scope::StartDraining(DrainFn after_drain) {
  if (!after_drain) {
    return false;
  }
  after_drain_ = std::move(after_drain);
  return StartPolling();
}

void Scope::StopPolling() {
  if (poll_source_ != 0) {
    loop_->Remove(poll_source_);
    poll_source_ = 0;
  }
}

bool Scope::SetPollingPeriodMs(int64_t period_ms) {
  if (period_ms <= 0) {
    return false;
  }
  period_ms_ = period_ms;
  if (IsRunning()) {
    return loop_->SetTimeoutPeriodNs(poll_source_, MillisToNanos(period_ms_));
  }
  return true;
}

void Scope::SetZoom(double zoom) {
  if (zoom > 0.0) {
    zoom_ = zoom;
  }
}

void Scope::SetBias(double bias) { bias_ = bias; }

void Scope::SetDelayMs(int64_t delay_ms) {
  if (delay_ms >= 0) {
    delay_ms_.store(delay_ms, std::memory_order_relaxed);
  }
}

bool Scope::PushBuffered(SignalId id, int64_t time_ms, double value) {
  Sample sample{time_ms, value, id == 0 ? kUnmatchedSampleKey : static_cast<SampleKey>(id)};
  return ingest_spans_.Stage(&sample, 1, NowMs(), delay_ms()) == 1;
}

size_t Scope::PushBufferedBatch(const Sample* samples, size_t count) {
  return ingest_spans_.Stage(samples, count, NowMs(), delay_ms());
}

size_t Scope::PushIngestSpan(const IngestSpan& span, int64_t now_ms) {
  if (span.size() == 0) {
    return 0;
  }
  // The block is time-sorted, so the late samples (time + delay < now) form
  // a prefix: count it and queue the on-time rest.
  IngestSpan rest = span;
  rest.begin = span.PartitionAfter(now_ms - delay_ms() - 1);
  size_t late = rest.begin - span.begin;
  // Samples whose slot id is 0 were delivered (and, if late, counted)
  // through the name shim, or are excluded by the slot's filter: they are
  // not this span's to drop.  The common all-resolved case skips the scan.
  if (late > 0 && (span.block->has_unresolved ||
                   (span.block->has_unnamed && !span.deliver_unnamed) ||
                   span.table->SlotFiltered(span.slot))) {
    SampleKey key;
    for (uint32_t i = span.begin; i < rest.begin; ++i) {
      if (!TranslateSpanKey(span, span.block->samples[i], &key)) {
        --late;
      }
    }
  }
  if (late > 0) {
    ingest_spans_.CountLateDrops(static_cast<int64_t>(late));
  }
  ingest_spans_.Push(std::move(rest));
  return span.size() - late;
}

bool Scope::TranslateSpanKey(const IngestSpan& span, const Sample& sample, SampleKey* key) {
  if (span.table == nullptr) {
    *key = sample.key;  // staged: already this scope's key
    return true;
  }
  if (sample.key == kUnnamedRouteKey) {
    if (!span.deliver_unnamed) {
      return false;  // withheld from subscription-filtered scopes
    }
    *key = kUnnamedSampleKey;
    return true;
  }
  SignalId id = span.table->IdFor(sample.key, span.slot);
  if (id == 0) {
    return false;  // delivered out-of-band through the name shim
  }
  *key = static_cast<SampleKey>(id);
  return true;
}

bool Scope::PushBuffered(std::string_view signal_name, int64_t time_ms, double value) {
  SampleKey key;
  if (signal_name.empty()) {
    key = kUnnamedSampleKey;
  } else {
    SignalId id = FindSignal(signal_name);
    if (id != 0) {
      key = static_cast<SampleKey>(id);
    } else {
      // Unknown name: intern it into the pending keyspace so routing can
      // re-resolve at drain time — a signal added within the delay window
      // still receives the sample, matching the old drain-time resolution.
      std::unique_lock<std::shared_mutex> lock(name_mu_);
      auto it = pending_names_.find(signal_name);
      if (it != pending_names_.end()) {
        key = kPendingNameKeyBit | it->second;
      } else if (pending_names_rev_.size() < 4096) {
        key = kPendingNameKeyBit | pending_names_rev_.size();
        pending_names_.emplace(std::string(signal_name), pending_names_rev_.size());
        pending_names_rev_.emplace_back(signal_name);
      } else {
        // Bound the interner against a stream of endless distinct unknown
        // names; beyond the cap they become plain unmatched samples.
        key = kUnmatchedSampleKey;
      }
    }
  }
  Sample sample{time_ms, value, key};
  return ingest_spans_.Stage(&sample, 1, NowMs(), delay_ms()) == 1;
}

bool Scope::StartRecording(const std::string& path) {
  if (!recorder_.Open(path)) {
    return false;
  }
  recorder_.Comment("gscope recording: scope '" + options_.name + "', period " +
                    std::to_string(period_ms_) + " ms");
  return true;
}

void Scope::StopRecording() { recorder_.Close(); }

const TimerStats* Scope::poll_stats() const {
  return poll_source_ == 0 ? nullptr : loop_->StatsFor(poll_source_);
}

void Scope::AdoptTimeBase(const Scope& reference) {
  if (!reference.started_.load(std::memory_order_acquire)) {
    return;
  }
  start_ns_.store(reference.start_ns_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  started_.store(true, std::memory_order_release);
}

int64_t Scope::NowMs() const {
  if (!started_.load(std::memory_order_acquire)) {
    return 0;
  }
  return static_cast<int64_t>(
      NanosToMillis(loop_->clock()->NowNs() - start_ns_.load(std::memory_order_relaxed)));
}

void Scope::TickOnce(int64_t lost) {
  if (!started_.load(std::memory_order_relaxed)) {
    start_ns_.store(loop_->clock()->NowNs(), std::memory_order_relaxed);
    started_.store(true, std::memory_order_release);
  }
  TimeoutTick tick{0, loop_->clock()->NowNs(), lost};
  OnPollTick(tick);
}

bool Scope::OnPollTick(const TimeoutTick& tick) {
  if (after_drain_) {
    OnDrainTick(tick);
    return true;
  }
  std::unique_lock<std::mutex> tick_lock = MaybeTickLock();
  counters_.ticks += 1;
  counters_.lost_ticks += tick.lost;

  bool more = true;
  if (mode_ == AcquisitionMode::kPlayback) {
    more = SamplePlayback(tick.lost);
    if (!more) {
      counters_.playback_done = true;
      poll_source_ = 0;   // returning false removes the source
    }
  } else {
    SamplePolling(NowMs(), tick.lost);
  }
  PublishCoalesceMirror();
  return more;
}

void Scope::OnDrainTick(const TimeoutTick& tick) {
  bool bring_forward = false;
  Nanos wake_ns = 0;
  {
    std::unique_lock<std::mutex> tick_lock = MaybeTickLock();
    counters_.ticks += 1;
    counters_.lost_ticks += tick.lost;
    const int64_t now_ms = NowMs();
    const int64_t delay = delay_ms();
    const int64_t earliest = DrainIngestQueue(now_ms, delay);
    PublishCoalesceMirror();
    // Bring the next drain forward to the earliest queued deadline, but only
    // for an every-sample tap: a kCoalesced tap keeps one winner per signal
    // per period.  Everything displayable was just taken, so that deadline
    // lies past now_ms; one further than a period away is left to the
    // period tick (which also keeps the nanosecond product in range).
    int64_t due_ms = 0;
    if (earliest != IngestSpanQueue::kNoStamp && TapNeedsHistory() &&
        !__builtin_add_overflow(earliest, delay, &due_ms) && due_ms - now_ms <= period_ms_) {
      bring_forward = true;
      wake_ns = start_ns_.load(std::memory_order_relaxed) + MillisToNanos(due_ms);
    }
  }
  // Outside the tick lock: the owner's end of drain writes to sockets.
  after_drain_();
  if (bring_forward) {
    loop_->MoveTimeoutEarlier(poll_source_, wake_ns);
  }
}

void Scope::PublishCoalesceMirror() {
  // One relaxed store per tick keeps the per-sample drain path atomic-free.
  coalesce_mirror_.samples_coalesced = counters_.samples_coalesced;
  coalesce_mirror_.samples_retained = counters_.samples_retained;
}

void Scope::SamplePolling(int64_t now_ms, int64_t lost) {
  // First route freshly displayable buffered samples to their signals.
  DrainIngestQueue(now_ms, delay_ms());
  for (SignalState& state : signals_) {
    double raw = SampleSource(state);
    CommitSample(state, raw, lost, now_ms);
  }
}

int64_t Scope::DrainIngestQueue(int64_t now_ms, int64_t delay_ms) {
  const int64_t earliest = ingest_spans_.CollectDisplayable(now_ms, delay_ms, &span_scratch_);
  if (span_scratch_.empty()) {
    return earliest;
  }
  ++fold_tick_;
  folded_.clear();
  for (const IngestSpan& span : span_scratch_) {
    const IngestBlock& block = *span.block;
    if (span.begin == 0 && span.end == block.samples.size() && !block.live.empty()) {
      FoldBlockSummary(span);
      continue;
    }
    for (uint32_t i = span.begin; i < span.end; ++i) {
      DrainSample(span, block.samples[i]);
    }
  }
  if (buffered_tap_) {
    for (uint32_t index : folded_) {
      SettleFold(signals_[index]);
    }
  }
  // Release the block references promptly so their pools can recycle them.
  span_scratch_.clear();
  return earliest;
}

void Scope::FoldBlockSummary(const IngestSpan& span) {
  const IngestBlock& block = *span.block;
  const RouteTable& table = *span.table;
  // Pass 1, O(live routes): fold every display-only route.  History routes
  // (and unnamed samples, which have no per-route consumer bit) are left for
  // the per-sample walk below; a history route whose signal folded in an
  // earlier span of this tick settles that fold first, so the tap sees it
  // before the newer walked samples.
  size_t walk_routes = 0;
  for (const IngestBlock::RouteLast& entry : block.live) {
    if (entry.route == kUnnamedRouteKey) {
      ++walk_routes;
      continue;
    }
    SignalId id = table.IdFor(entry.route, span.slot);
    if (id == 0) {
      continue;  // shim-served out-of-band, or excluded by the slot's filter
    }
    SignalState* s = FindBuffer(id);
    if (table.SlotNeedsHistory(entry.route, span.slot)) {
      ++walk_routes;
      if (s != nullptr) {
        SettleFold(*s);
      }
    } else if (s == nullptr) {
      counters_.buffered_unmatched += entry.count;
    } else {
      Fold(*s, entry.time_ms, entry.value, entry.count);
    }
  }
  if (walk_routes == 0) {
    return;
  }
  // Pass 2, only when some live route needs it, in queue order.  When EVERY
  // live route takes the walk (e.g. an every-sample tap) the per-sample bit
  // test is skipped entirely.  A history bit implies a non-zero id.
  const bool walk_all = walk_routes == block.live.size();
  for (uint32_t i = span.begin; i < span.end; ++i) {
    const Sample& sample = block.samples[i];
    if (sample.key == kUnnamedRouteKey) {
      DrainSample(span, sample);  // no per-route bit: the signal decides
    } else if (walk_all || table.SlotNeedsHistory(sample.key, span.slot)) {
      SignalState* s = FindBuffer(table.IdFor(sample.key, span.slot));
      if (s == nullptr) {
        counters_.buffered_unmatched += 1;
      } else {
        RouteHistory(*s, sample.time_ms, sample.value);
      }
    }
  }
}

void Scope::DrainSample(const IngestSpan& span, const Sample& sample) {
  SampleKey key;
  if (!TranslateSpanKey(span, sample, &key)) {
    return;  // delivered out-of-band through the name shim, or filtered
  }
  SignalState* s = nullptr;
  if (key == kUnnamedSampleKey) {
    // Single-signal special case: time-value tuples go to the sole BUFFER
    // signal.
    s = FirstBufferSignal();
  } else if (key == kUnmatchedSampleKey) {
    // explicitly-unknown id; falls through to the unmatched counter
  } else if ((key & kPendingNameKeyBit) != 0) {
    // Name unknown at push time: re-resolve now.
    std::shared_lock<std::shared_mutex> lock(name_mu_);
    uint64_t index = key & ~kPendingNameKeyBit;
    if (index < pending_names_rev_.size()) {
      auto it = name_index_.find(pending_names_rev_[index]);
      if (it != name_index_.end()) {
        s = FindBuffer(it->second);
      }
    }
  } else {
    s = FindBuffer(static_cast<SignalId>(key));
  }
  if (s == nullptr) {
    counters_.buffered_unmatched += 1;
    return;
  }
  if (s->sinks.empty() && !TapNeedsHistory()) {
    Fold(*s, sample.time_ms, sample.value, 1);
    return;
  }
  // The signal may have folded earlier this tick (a consumer attached
  // between two spans): settle that first, so the tap sees it before the
  // newer walked samples.
  SettleFold(*s);
  RouteHistory(*s, sample.time_ms, sample.value);
}

void Scope::Fold(SignalState& state, int64_t time_ms, double value, uint32_t count) {
  // The fold's losers still count as routed (they were accepted and
  // attributed); samples_coalesced records how many skipped the per-sample
  // walk.
  counters_.buffered_routed += count;
  if (state.fold_tick != fold_tick_) {
    state.fold_tick = fold_tick_;
    counters_.samples_coalesced += count - 1;
    if (buffered_tap_) {
      folded_.push_back(static_cast<uint32_t>(&state - signals_.data()));
    }
  } else {
    counters_.samples_coalesced += count;
    if (time_ms < state.buffered_hold_time_ms) {
      return;  // the newest (time, arrival) wins; ties go to the later one
    }
  }
  state.buffered_hold = value;
  state.buffered_hold_time_ms = time_ms;
  state.buffered_primed = true;
}

void Scope::RouteHistory(SignalState& state, int64_t time_ms, double value) {
  state.buffered_hold = value;
  state.buffered_hold_time_ms = time_ms;
  state.buffered_primed = true;
  counters_.buffered_routed += 1;
  counters_.samples_retained += 1;
  if (!state.sinks.empty()) {
    DispatchSinks(state, time_ms, value);
  }
  if (buffered_tap_) {
    buffered_tap_(state.spec.name, time_ms, value);
  }
}

void Scope::SettleFold(SignalState& state) {
  if (state.fold_tick != fold_tick_) {
    return;  // nothing folded this tick, or already settled
  }
  state.fold_tick = 0;
  if (buffered_tap_) {
    // Only a kCoalesced tap can reach here: an every-sample tap keeps every
    // signal on the history path.
    buffered_tap_(state.spec.name, state.buffered_hold_time_ms, state.buffered_hold);
  }
}

bool Scope::SamplePlayback(int64_t lost) {
  playback_time_ms_ += period_ms_ * (lost + 1);

  // Pull every tuple whose time has been reached; the last one per signal
  // wins the column (sample-and-hold at the display period).
  bool saw_any = playback_pending_.has_value();
  std::vector<Tuple> due;
  while (true) {
    if (!playback_pending_.has_value()) {
      playback_pending_ = playback_.Next();
      if (!playback_pending_.has_value()) {
        break;  // end of file
      }
      saw_any = true;
    }
    if (playback_pending_->time_ms > playback_time_ms_) {
      break;
    }
    due.push_back(std::move(*playback_pending_));
    playback_pending_.reset();
  }

  if (due.empty() && !saw_any && !playback_pending_.has_value()) {
    // End of file with nothing left to display: stop without emitting an
    // extra hold column (the trace must end at the last recorded sample).
    return false;
  }

  for (const Tuple& t : due) {
    SignalId id = t.name.empty() ? (signals_.empty() ? 0 : signals_.front().id)
                                 : FindSignal(t.name);
    if (id == 0 && options_.auto_create_playback_signals) {
      // Named tuples create a matching signal; the two-field single-signal
      // form creates one default signal when the scope has none.
      SignalSpec spec;
      spec.name = t.name.empty() ? "signal" : t.name;
      spec.source = BufferSource{};
      id = AddSignal(spec);
    }
    SignalState* s = Find(id);
    if (s == nullptr) {
      counters_.buffered_unmatched += 1;
      continue;
    }
    s->buffered_hold = t.value;
    s->buffered_hold_time_ms = t.time_ms;
    s->buffered_primed = true;
    counters_.buffered_routed += 1;
  }

  for (SignalState& state : signals_) {
    if (!state.buffered_primed) {
      continue;  // no data for this signal yet
    }
    CommitSample(state, state.buffered_hold, lost, playback_time_ms_);
  }

  // Keep ticking while the file has data or a pending tuple exists.
  return saw_any || playback_pending_.has_value();
}

double Scope::SampleSource(SignalState& state) {
  struct Visitor {
    SignalState& state;
    Nanos period_ns;
    double operator()(const int32_t* p) const { return static_cast<double>(*p); }
    double operator()(const bool* p) const { return *p ? 1.0 : 0.0; }
    double operator()(const int16_t* p) const { return static_cast<double>(*p); }
    double operator()(const float* p) const { return static_cast<double>(*p); }
    double operator()(const double* p) const { return *p; }
    double operator()(const FuncSource& f) const { return f.fn ? f.fn() : 0.0; }
    double operator()(const EventSource& e) const {
      if (!e.aggregator) {
        return 0.0;
      }
      double hold = state.has_value ? state.latest_raw : 0.0;
      return e.aggregator->Drain(period_ns, hold);
    }
    double operator()(const BufferSource&) const {
      return state.buffered_primed ? state.buffered_hold
                                   : (state.has_value ? state.latest_raw : 0.0);
    }
  };
  return std::visit(Visitor{state, MillisToNanos(period_ms_)}, state.spec.source);
}

void Scope::CommitSample(SignalState& state, double raw, int64_t lost, int64_t now_ms) {
  double display = state.filter.Apply(raw);
  state.latest_raw = raw;
  state.latest_display = display;
  state.has_value = true;
  state.trace.PushWithLoss(display, lost);
  counters_.samples += 1;
  if (recorder_.is_open()) {
    // Raw values are recorded; the filter is a display-side parameter.  The
    // writer formats into a reusable buffer (no per-sample allocation).
    recorder_.Write(now_ms, raw,
                    signals_.size() == 1 ? std::string_view() : std::string_view(state.spec.name));
  }
}

Scope::SignalState* Scope::Find(SignalId id) {
  if (id <= 0 || static_cast<size_t>(id) >= id_to_index_.size()) {
    return nullptr;
  }
  uint32_t index = id_to_index_[static_cast<size_t>(id)];
  return index == 0 ? nullptr : &signals_[index - 1];
}

const Scope::SignalState* Scope::Find(SignalId id) const {
  if (id <= 0 || static_cast<size_t>(id) >= id_to_index_.size()) {
    return nullptr;
  }
  uint32_t index = id_to_index_[static_cast<size_t>(id)];
  return index == 0 ? nullptr : &signals_[index - 1];
}

Scope::SignalState* Scope::FindBuffer(SignalId id) {
  SignalState* s = Find(id);
  return s != nullptr && std::holds_alternative<BufferSource>(s->spec.source) ? s : nullptr;
}

Scope::SignalState* Scope::FirstBufferSignal() {
  for (SignalState& state : signals_) {
    if (state.spec.type() == SignalType::kBuffer) {
      return &state;
    }
  }
  return nullptr;
}

}  // namespace gscope
