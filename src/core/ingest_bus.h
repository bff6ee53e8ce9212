// Sharded, signal-routed ingest bus: the server -> scope fan-out boundary.
//
// The gscope paper displays streamed BUFFER signals "to one or more scopes";
// the naive fan-out costs O(batch x scopes) because every display target gets
// its own materialized copy of every parsed sample.  This module makes the
// hand-off O(batch + scopes): the server parses each read chunk ONCE into a
// refcounted IngestBlock whose samples are keyed by *route index*, resolves
// names once through an immutable RouteTable snapshot (route x scope-slot ->
// SignalId), and hands every scope a lightweight IngestSpan - {block, table,
// range, slot} - in O(1).  Scopes queue spans (IngestSpanQueue, the one
// queue a scope's samples wait in) and translate route keys to their own
// signals only at drain time, on the loop thread.
//
// Epoch discipline: a RouteTable is immutable.  When the scope list or any
// scope's signal table changes, the router builds a fresh snapshot; spans
// already queued keep their old table, so a stale id simply resolves to
// "unmatched" at drain time - exactly what the per-client route caches this
// replaces did.
#ifndef GSCOPE_CORE_INGEST_BUS_H_
#define GSCOPE_CORE_INGEST_BUS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "core/signal_spec.h"

namespace gscope {

// Integer key of one queued sample.  In a router block it is a route index
// into the span's RouteTable (or kUnnamedRouteKey); in a scope's staging
// block (direct pushes) it is the scope's SignalId or a sentinel below.
using SampleKey = uint64_t;
// Staged two-field sample with no name: routed to the first BUFFER signal at
// drain time.
inline constexpr SampleKey kUnnamedSampleKey = 0;
// Staged explicitly-unknown id (PushBuffered(0, ...)): counted as unmatched
// at drain time.
inline constexpr SampleKey kUnmatchedSampleKey = ~SampleKey{0};
// Staged keys with this bit carry an interned *pending name* instead of a
// SignalId: the name did not resolve at push time, so the scope re-resolves
// it at drain time (a signal added within the delay window still gets the
// data).
inline constexpr SampleKey kPendingNameKeyBit = SampleKey{1} << 62;

// One queued sample: POD, no heap ownership.
struct Sample {
  int64_t time_ms = 0;
  double value = 0.0;
  SampleKey key = kUnnamedSampleKey;
};

// Router block samples whose key equals this carry the two-field
// single-signal form (no name): each scope routes them to its first BUFFER
// signal at drain time.
inline constexpr SampleKey kUnnamedRouteKey = ~SampleKey{0};

// One parsed batch, shared by every subscribed scope.  Sample::key holds a
// route index into the RouteTable the producing router attached to the span
// (or kUnnamedRouteKey).  A block is time-sorted before it is queued
// (SortByTime), so the samples a scope must drop as late, or may display
// now, always form a prefix of its span.
struct IngestBlock {
  // Per-route last-wins summary: one entry per distinct route key appended
  // to this block, holding the newest sample — (time, arrival)-max, i.e. the
  // sample a stable sort by time would leave last — and how many samples the
  // route contributed.  Built incrementally in O(1) per Append and shared by
  // every scope, it is what lets a display-only drain of a whole block run
  // in O(live routes) instead of O(batch) per scope (core/sample_hold.h:
  // between polls only the last value per signal is displayable).  It does
  // not depend on sample order, so SortByTime leaves it valid.
  struct RouteLast {
    SampleKey route = 0;  // route index, or kUnnamedRouteKey
    int64_t time_ms = 0;
    double value = 0.0;
    uint32_t count = 0;  // samples this route contributed to the block
  };

  std::vector<Sample> samples;
  std::vector<RouteLast> live;  // distinct routes, first-appearance order
  // Samples are in non-decreasing time order: appended that way (the common
  // streaming case), or restored by SortByTime.
  bool time_ordered = true;
  // Some sample references a route with an unresolved (id 0) slot, i.e. was
  // (or will be) delivered to part of the scopes through the name shim.
  // False in the common all-resolved case, which keeps late-drop accounting
  // O(1) - no per-sample scan for shim-served exclusions.
  bool has_unresolved = false;
  // Some sample carries kUnnamedRouteKey.  Spans delivered to subscription-
  // filtered scopes exclude unnamed samples (there is no name to match), and
  // this flag keeps their late-drop accounting O(1) in the common named-only
  // case, exactly like has_unresolved.
  bool has_unnamed = false;

  void Clear() {
    samples.clear();
    // Reset only the live slots (O(live), not O(routes ever seen)); the
    // dense index keeps its warm capacity for the pooled-block reuse cycle.
    for (const RouteLast& entry : live) {
      if (entry.route == kUnnamedRouteKey) {
        unnamed_slot = 0;
      } else {
        last_slot[static_cast<size_t>(entry.route)] = 0;
      }
    }
    live.clear();
    time_ordered = true;
    has_unresolved = false;
    has_unnamed = false;
  }
  // Appends without the per-route summary: a scope's staging block, whose
  // keys are not dense route indexes and which is always walked per sample.
  void AppendSample(int64_t time_ms, double value, SampleKey key) {
    time_ordered = time_ordered && (samples.empty() || time_ms >= samples.back().time_ms);
    samples.push_back(Sample{time_ms, value, key});
  }
  void Append(int64_t time_ms, double value, SampleKey route_key) {
    has_unnamed = has_unnamed || route_key == kUnnamedRouteKey;
    AppendSample(time_ms, value, route_key);
    uint32_t* slot;
    if (route_key == kUnnamedRouteKey) {
      slot = &unnamed_slot;
    } else {
      if (last_slot.size() <= static_cast<size_t>(route_key)) {
        last_slot.resize(static_cast<size_t>(route_key) + 1, 0);
      }
      slot = &last_slot[static_cast<size_t>(route_key)];
    }
    if (*slot == 0) {
      live.push_back(RouteLast{route_key, time_ms, value, 1});
      *slot = static_cast<uint32_t>(live.size());
    } else {
      RouteLast& entry = live[*slot - 1];
      entry.count += 1;
      if (time_ms >= entry.time_ms) {  // >=: arrival order breaks time ties
        entry.time_ms = time_ms;
        entry.value = value;
      }
    }
  }
  // Restores (time, arrival) order once, before the block is shared: a
  // no-op for in-order appends.
  void SortByTime() {
    if (!time_ordered) {
      std::stable_sort(samples.begin(), samples.end(),
                       [](const Sample& a, const Sample& b) { return a.time_ms < b.time_ms; });
      time_ordered = true;
    }
  }
  bool empty() const { return samples.empty(); }

  // Summary internals: route -> index+1 into `live` (0 = absent), dense by
  // route index; the unnamed pseudo-route gets its own scalar.  The
  // per-block sibling of the scope's per-tick fold (Scope::Fold), kept
  // separate on purpose: it is built once and shared by every scope, keyed
  // by unbounded SampleKeys with a sentinel (kUnnamedRouteKey would explode
  // a dense index), and pooled-block reuse wants the explicit O(live) reset
  // in Clear() rather than a generation stamp that would have to live
  // across pool hand-offs.
  std::vector<uint32_t> last_slot;
  uint32_t unnamed_slot = 0;
};

// Recycles blocks once no queued span references them any more.
class BlockPool {
 public:
  explicit BlockPool(size_t max_pooled) : max_pooled_(max_pooled) {}

  // A cleared block, pooled when one is free; beyond `max_pooled` in flight
  // it allocates.
  std::shared_ptr<IngestBlock> Acquire() {
    for (const std::shared_ptr<IngestBlock>& pooled : blocks_) {
      // use_count 1 = only the pool holds it: every span that referenced it
      // has been drained, so the sample storage can be reused in place.  The
      // count is stable once it reaches 1 (consumers can only clone refs
      // they still hold), but use_count() itself is a relaxed load with no
      // ordering; copying the shared_ptr is an acquiring RMW on the same
      // counter, which synchronizes with every consumer's release-decrement
      // so their last reads happen-before the storage is reused.
      if (pooled.use_count() == 1) {
        std::shared_ptr<IngestBlock> acquired = pooled;
        acquired->Clear();
        return acquired;
      }
    }
    auto fresh = std::make_shared<IngestBlock>();
    if (blocks_.size() < max_pooled_) {
      blocks_.push_back(fresh);
    }
    return fresh;
  }

 private:
  size_t max_pooled_;
  std::vector<std::shared_ptr<IngestBlock>> blocks_;
};

// Immutable routing snapshot: per route index, one SignalId per scope slot.
// Id 0 means "nothing to deliver through the span for this slot" (the sample
// was handed to that scope out-of-band through the name shim, or resolves
// nowhere by design).
struct RouteTable {
  uint32_t num_slots = 0;
  std::vector<SignalId> ids;  // [route * num_slots + slot]
  // Slots registered with a subscription filter.  A filtered slot's id-0
  // entries mean "excluded by design", so its late-drop accounting must scan
  // for them; unfiltered slots keep the O(1) count.
  std::vector<uint8_t> slot_filtered;  // [slot]; empty = none filtered
  // Per route x slot: the slot's signal has an every-sample consumer
  // (trigger/trace/aggregate/envelope/export sink, or an every-sample tap —
  // Scope::SignalNeedsHistory), so its samples must be delivered one by one
  // at drain time instead of coalescing to the block's last-wins entry.
  // Computed at BUILD time (the scopes' consumer epochs are folded into
  // RouteEpoch): attaching a trigger flips the bit at the next snapshot,
  // never via a per-sample check.  Empty = no consumer anywhere, the common
  // display-only case.
  std::vector<uint8_t> needs_history;  // [route * num_slots + slot]; empty = none

  SignalId IdFor(SampleKey route, uint32_t slot) const {
    size_t index = static_cast<size_t>(route) * num_slots + slot;
    return index < ids.size() ? ids[index] : 0;
  }
  bool SlotFiltered(uint32_t slot) const {
    return slot < slot_filtered.size() && slot_filtered[slot] != 0;
  }
  bool SlotNeedsHistory(SampleKey route, uint32_t slot) const {
    size_t index = static_cast<size_t>(route) * num_slots + slot;
    return index < needs_history.size() && needs_history[index] != 0;
  }
};

// The O(1) per-scope hand-off: a view of [begin, end) of a shared,
// time-sorted block plus the table/slot needed to translate route keys into
// this scope's SignalIds.  A null table marks a scope's own staging block,
// whose keys are already the scope's (SignalIds and the staged sentinels).
struct IngestSpan {
  std::shared_ptr<const IngestBlock> block;
  std::shared_ptr<const RouteTable> table;
  uint32_t begin = 0;
  uint32_t end = 0;
  uint32_t slot = 0;
  // False for subscription-filtered scopes: samples with kUnnamedRouteKey
  // (the two-field single-signal form has no name to match a glob against)
  // are not this scope's to display.
  bool deliver_unnamed = true;

  size_t size() const { return end - begin; }
  // First index in [begin, end) whose sample is stamped after `time_ms`
  // (end if none): O(1) when the span lies wholly on one side.
  uint32_t PartitionAfter(int64_t time_ms) const {
    const std::vector<Sample>& s = block->samples;
    if (s[begin].time_ms > time_ms) {
      return begin;
    }
    if (s[end - 1].time_ms <= time_ms) {
      return end;
    }
    return static_cast<uint32_t>(
        std::partition_point(s.begin() + begin, s.begin() + end,
                             [time_ms](const Sample& x) { return x.time_ms <= time_ms; }) -
        s.begin());
  }
};

// The one queue a Scope's samples wait in (Sections 3.1, 4.4): a FIFO of
// spans.  Router spans arrive whole through Push; direct pushes (Stage)
// append, under the same lock, to a pooled staging block that is sealed into
// a span when it fills, when a router span arrives (so the FIFO keeps
// arrival order), or when a drain finds it displayable.  Collect splits a
// partly displayable span: its prefix goes out, its tail keeps its place.
// With one FIFO and time-sorted blocks, per-signal order holds by
// construction.  One capacity bounds everything queued or staged; the
// oldest spans are evicted first.  Push/Stage are thread-safe (producer
// threads, router flushes on other loops); Collect runs on the scope's loop
// thread.  Steady-state cycles allocate nothing once the vectors and the
// block pool have warmed up.
class IngestSpanQueue {
 public:
  struct Stats {
    int64_t spans_pushed = 0;
    int64_t samples_pushed = 0;
    // Samples that missed their display deadline at push: staged ones
    // counted here, router ones reported by the scope via CountLateDrops
    // (which excludes samples the name shim delivered out-of-band).
    int64_t dropped_late = 0;
    // Samples evicted because the queue exceeded its capacity (oldest spans
    // are dropped wholesale).
    int64_t dropped_overflow = 0;
  };

  // CollectDisplayable's answer when nothing is left queued.
  static constexpr int64_t kNoStamp = std::numeric_limits<int64_t>::max();

  explicit IngestSpanQueue(size_t max_samples)
      : max_samples_(max_samples == 0 ? 1 : max_samples),
        staging_limit_(std::clamp<size_t>(max_samples_ / 4, 1, kStagingBlockSamples)) {}

  // Queues a span whose late prefix the caller already cut off.  Thread-safe.
  void Push(IngestSpan span) {
    if (span.size() == 0) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    SealLocked();
    queued_samples_ += span.size();
    stats_.spans_pushed += 1;
    stats_.samples_pushed += static_cast<int64_t>(span.size());
    spans_.push_back(std::move(span));
    EvictLocked();
  }

  // Stages `count` keyed samples under one lock acquisition.  A sample whose
  // display time (time_ms + delay_ms) already passed is dropped and counted
  // late.  Returns the number accepted.  Thread-safe.
  size_t Stage(const Sample* samples, size_t count, int64_t now_ms, int64_t delay_ms) {
    // time_ms + delay_ms < now_ms, arranged so a stamp from the wire cannot
    // overflow.
    const int64_t late_before = now_ms - delay_ms;
    std::lock_guard<std::mutex> lock(mu_);
    size_t accepted = 0;
    for (size_t i = 0; i < count; ++i) {
      const Sample& sample = samples[i];
      if (sample.time_ms < late_before) {
        stats_.dropped_late += 1;
        continue;
      }
      if (staging_ == nullptr) {
        staging_ = pool_.Acquire();
      }
      staging_->AppendSample(sample.time_ms, sample.value, sample.key);
      staging_min_ms_ = std::min(staging_min_ms_, sample.time_ms);
      ++accepted;
      if (staging_->samples.size() >= staging_limit_) {
        SealLocked();
      }
    }
    queued_samples_ += accepted;
    stats_.samples_pushed += static_cast<int64_t>(accepted);
    EvictLocked();
    return accepted;
  }

  // Moves the displayable prefix of every queued span (samples stamped at or
  // before now_ms - delay_ms) into *out, in FIFO order.  A partly
  // displayable span keeps its tail in place, and everything kept is
  // stamped after everything taken, so a later tick never delivers a sample
  // older than one of the same span delivered now.  Returns the earliest
  // stamp still queued or staged (kNoStamp when none): the next sample to
  // become displayable, read off the same walk.  Loop thread.
  int64_t CollectDisplayable(int64_t now_ms, int64_t delay_ms, std::vector<IngestSpan>* out) {
    const int64_t cutoff = now_ms - delay_ms;
    std::lock_guard<std::mutex> lock(mu_);
    if (staging_min_ms_ <= cutoff) {
      SealLocked();
    }
    int64_t earliest = staging_min_ms_;
    size_t kept = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      IngestSpan& span = spans_[i];
      uint32_t cut = span.PartitionAfter(cutoff);
      queued_samples_ -= cut - span.begin;
      if (cut == span.end) {
        out->push_back(std::move(span));
        continue;
      }
      if (cut > span.begin) {
        out->push_back(span);
        out->back().end = cut;
        span.begin = cut;
      }
      // Time-sorted: a kept tail's first sample is its earliest.
      earliest = std::min(earliest, span.block->samples[span.begin].time_ms);
      if (kept != i) {
        spans_[kept] = std::move(span);
      }
      ++kept;
    }
    spans_.erase(spans_.begin() + static_cast<ptrdiff_t>(kept), spans_.end());
    return earliest;
  }

  void CountLateDrops(int64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.dropped_late += n;
  }

  // Samples queued or staged, not yet drained.
  size_t queued_samples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queued_samples_;
  }
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  // Direct pushes seal into spans of at most this many samples, and of at
  // most a quarter of the capacity, so overflow evicts in small steps.
  static constexpr size_t kStagingBlockSamples = 1024;

  void SealLocked() {
    if (staging_ == nullptr) {
      return;
    }
    staging_->SortByTime();
    uint32_t n = static_cast<uint32_t>(staging_->samples.size());
    spans_.push_back(IngestSpan{std::move(staging_), nullptr, 0, n});
    staging_min_ms_ = kNoStamp;
    stats_.spans_pushed += 1;
  }
  // Evicts the oldest spans while over capacity.  The newest span stays (a
  // single oversized span is admitted whole), unless the staging block holds
  // newer samples still.
  void EvictLocked() {
    size_t keep = staging_ != nullptr ? 0 : 1;
    size_t evict = 0;
    while (queued_samples_ > max_samples_ && evict + keep < spans_.size()) {
      queued_samples_ -= spans_[evict].size();
      stats_.dropped_overflow += static_cast<int64_t>(spans_[evict].size());
      ++evict;
    }
    spans_.erase(spans_.begin(), spans_.begin() + static_cast<ptrdiff_t>(evict));
  }

  size_t max_samples_;
  size_t staging_limit_;
  mutable std::mutex mu_;
  std::vector<IngestSpan> spans_;
  std::shared_ptr<IngestBlock> staging_;  // null until the next direct push
  int64_t staging_min_ms_ = kNoStamp;     // oldest staged stamp
  BlockPool pool_{32};
  size_t queued_samples_ = 0;
  Stats stats_;
};

}  // namespace gscope

#endif  // GSCOPE_CORE_INGEST_BUS_H_
