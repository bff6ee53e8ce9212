// Sample-and-hold helper (Section 4.2).
//
// "Applications can be designed so that certain events change a state and
// then the state is held until the next event changes the state.  Between
// event arrivals, polling can detect the previous event by monitoring the
// held state."  BasicSampleAndHold is that held word of memory, made
// thread-safe so an event thread can update it while the scope polls it.
// Update() counts so tests can verify whether the polling frequency was
// sufficient to observe every event (the paper's back-to-back arrival
// caveat); read counting is OPT-IN (CountedSampleAndHold): the default
// Read() is a single relaxed load, because an unconditional fetch_add on a
// shared cache line would tax every poll even when nobody reads the stat.
//
// The same last-value-per-poll observation drives the scope drain's
// last-wins coalescing (Scope::Fold, core/ingest_bus.h IngestBlock::RouteLast,
// docs/perf.md): between two polling ticks only the newest buffered sample
// per display-only signal is displayable, so the drain folds N samples over
// K live signals into K hold writes.
#ifndef GSCOPE_CORE_SAMPLE_HOLD_H_
#define GSCOPE_CORE_SAMPLE_HOLD_H_

#include <atomic>
#include <cstdint>
#include <type_traits>

namespace gscope {

namespace internal {
struct SampleHoldReadCounter {
  mutable std::atomic<int64_t> read_count{0};
};
struct SampleHoldNoReadCounter {};
}  // namespace internal

template <bool kCountReads = false>
class BasicSampleAndHold
    : private std::conditional_t<kCountReads, internal::SampleHoldReadCounter,
                                 internal::SampleHoldNoReadCounter> {
 public:
  explicit BasicSampleAndHold(double initial = 0.0) : value_(initial) {}

  // Called by the event source: latches the new state.
  void Update(double value) {
    value_.store(value, std::memory_order_relaxed);
    updates_.fetch_add(1, std::memory_order_relaxed);
  }

  // Called by the scope's poll: reads the held state.  One relaxed load
  // unless read counting was opted into.
  double Read() const {
    if constexpr (kCountReads) {
      this->read_count.fetch_add(1, std::memory_order_relaxed);
    }
    return value_.load(std::memory_order_relaxed);
  }

  int64_t updates() const { return updates_.load(std::memory_order_relaxed); }
  // 0 when read counting is compiled out (the default).
  int64_t reads() const {
    if constexpr (kCountReads) {
      return this->read_count.load(std::memory_order_relaxed);
    } else {
      return 0;
    }
  }

 private:
  std::atomic<double> value_;
  std::atomic<int64_t> updates_{0};
};

// The default: uncounted reads (polling costs one load).
using SampleAndHold = BasicSampleAndHold<false>;
// Opt-in read accounting for tests/diagnostics that compare reads to
// updates (the paper's missed-event detection).
using CountedSampleAndHold = BasicSampleAndHold<true>;

}  // namespace gscope

#endif  // GSCOPE_CORE_SAMPLE_HOLD_H_
