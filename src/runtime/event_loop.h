// A glib-style main loop: the substrate gscope polls and dispatches through.
//
// The paper implements gscope on top of the GTK/glib event loop: polling uses
// the GTK timeout mechanism (select()-based), I/O-driven applications register
// GIOChannel watches, and "all events, GUI as well as application events, are
// handled by the same mechanism" (Section 4.3/4.5).  This module reproduces
// that substrate without GTK:
//
//   * timeout sources with per-source lost-timeout accounting (Section 4.5),
//   * idle sources,
//   * fd watches over ppoll(2)  (GIOChannel / g_io_add_watch analogue),
//   * a thread-safe Invoke() for cross-thread calls (the "acquire the global
//     GTK lock" discipline of Section 4.3 becomes "post a closure"),
//   * Run()/Quit()/Iterate() in the gtk_main() style.
//
// The loop is driven by a Clock.  With a SteadyClock it blocks in ppoll(2)
// until the next deadline, to the nanosecond (poll(2)'s whole milliseconds
// would round every short wait up by as much as 1 ms); with a SimClock it
// advances virtual time to the next deadline, which makes scope behaviour
// fully deterministic in tests.
#ifndef GSCOPE_RUNTIME_EVENT_LOOP_H_
#define GSCOPE_RUNTIME_EVENT_LOOP_H_

#include <poll.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/clock.h"
#include "runtime/timer_stats.h"

namespace gscope {

// I/O conditions, mirroring G_IO_IN / G_IO_OUT / G_IO_HUP / G_IO_ERR.
enum class IoCondition : uint8_t {
  kIn = 1 << 0,
  kOut = 1 << 1,
  kHup = 1 << 2,
  kErr = 1 << 3,
};

inline IoCondition operator|(IoCondition a, IoCondition b) {
  return static_cast<IoCondition>(static_cast<uint8_t>(a) | static_cast<uint8_t>(b));
}
inline bool Has(IoCondition set, IoCondition bit) {
  return (static_cast<uint8_t>(set) & static_cast<uint8_t>(bit)) != 0;
}

// Source identifiers, as returned by the Add* calls.  0 is never a valid id.
using SourceId = int;

class MainLoop {
 public:
  // Return true to keep the source installed, false to remove it (glib style).
  using TimeoutFn = std::function<bool(const TimeoutTick&)>;
  using IdleFn = std::function<bool()>;
  using IoFn = std::function<bool(int fd, IoCondition cond)>;

  // `clock` defaults to the process steady clock; not owned.
  explicit MainLoop(Clock* clock = nullptr);
  ~MainLoop();

  MainLoop(const MainLoop&) = delete;
  MainLoop& operator=(const MainLoop&) = delete;

  Clock* clock() const { return clock_; }

  // The loop currently iterating on this thread (null outside Iterate/Run).
  // With sharded per-core loops (runtime/loop_pool.h) this is how code that
  // can run on any loop - e.g. a shared router - learns its loop identity.
  static MainLoop* Current();
  // True when the calling thread is inside this loop's Iterate/Run.  Source
  // mutation (Add*/Remove) is only legal on the owning thread; cross-loop
  // callers post through Invoke().
  bool IsLoopThread() const { return Current() == this; }

  // -- Sources -------------------------------------------------------------

  // Calls `fn` every `period_ns`, first at now + period.  Missed periods are
  // counted (not replayed): the callback is invoked once with tick.lost set.
  SourceId AddTimeoutNs(Nanos period_ns, TimeoutFn fn);
  SourceId AddTimeoutMs(int64_t period_ms, TimeoutFn fn) {
    return AddTimeoutNs(MillisToNanos(period_ms), fn);
  }
  // Convenience for callbacks that do not care about tick metadata.
  SourceId AddTimeoutMs(int64_t period_ms, std::function<bool()> fn) {
    return AddTimeoutNs(MillisToNanos(period_ms), [fn](const TimeoutTick&) { return fn(); });
  }

  // Runs whenever no timeout is due and no fd is ready.
  SourceId AddIdle(IdleFn fn);

  // Watches `fd` for `cond`; `fn` runs with the ready subset.
  SourceId AddIoWatch(int fd, IoCondition cond, IoFn fn);

  // Removes any kind of source.  Safe to call from inside its own callback.
  // Returns false if the id is unknown (already removed).
  bool Remove(SourceId id);

  // Changes a timeout source's period in place, preserving its stats.  The
  // next deadline is rescheduled to now + new period.  This is the sampling
  // period widget of Figure 1.  Returns false for unknown/non-timeout ids.
  bool SetTimeoutPeriodNs(SourceId id, Nanos period_ns);

  // Moves a timeout's next deadline earlier, to the absolute loop-clock
  // instant `deadline_ns`; the period stays, so after firing there the
  // source next fires at deadline_ns + period, and lost ticks still count
  // missed periods (Section 4.5), not missed early deadlines.  Returns false
  // for unknown/non-timeout ids and for an instant not earlier than the
  // current deadline.  Loop thread only (a callback may move itself).
  bool MoveTimeoutEarlier(SourceId id, Nanos deadline_ns);

  // Per-source accounting (lost timeouts, dispatch latency).  Null if gone.
  const TimerStats* StatsFor(SourceId id) const;

  // Sum over every installed timeout source (loop thread only).  One loop's
  // contribution to a sharded server's TimerStatsAggregate.
  TimerStats TotalTimerStats() const;

  // -- Running -------------------------------------------------------------

  // Dispatches until Quit().  Equivalent of gtk_main().
  void Run();
  void Quit();

  // Runs a single iteration: dispatch due timers, ready fds, thread-posted
  // closures, idles.  If `may_block` and nothing is ready, blocks (real
  // clock) or advances virtual time (SimClock) to the next deadline.
  // Returns true if anything was dispatched.
  bool Iterate(bool may_block);

  // Runs for `duration_ns` of clock time, then returns.  With a SimClock this
  // is a deterministic fast-forward; with a real clock it is a bounded Run().
  void RunForNs(Nanos duration_ns);
  void RunForMs(int64_t ms) { RunForNs(MillisToNanos(ms)); }

  // -- Cross-thread --------------------------------------------------------

  // Enqueues `fn` to run on the loop thread and wakes the loop.  This is the
  // supported way for a signal-producing thread to touch scope state
  // (Section 4.3's GTK-lock discipline).  Thread-safe.
  void Invoke(std::function<void()> fn);

  // -- Diagnostics ----------------------------------------------------------

  // Installs a hook that runs at the top of every Iterate(), before timers
  // and poll.  This is the fault-injection / tracing seam: a test can flip
  // FaultInjector rules, kill fds, or record iteration counts on exact loop
  // boundaries instead of guessing with sleeps.  One hook at a time; pass
  // nullptr to clear.  Not for production logic.
  void SetPreIterateHook(std::function<void()> hook) {
    pre_iterate_hook_ = std::move(hook);
  }

  // Number of sources currently installed (for tests/diagnostics).
  size_t source_count() const;

 private:
  struct TimeoutSource;
  struct IdleSource;
  struct IoSource;

  // Timer-heap entry: deadlines are dispatched from a min-heap, so one
  // iteration costs O(due * log timers) instead of a full scan of every
  // installed source.  With thousands of per-session poll timers on a
  // sharded server the old O(timers)-per-iteration scan dominated the loop.
  // Entries are never updated in place: rescheduling pushes a fresh entry
  // and stale ones (deadline no longer matching the source) are skipped
  // lazily at pop time.
  struct TimerHeapEntry {
    Nanos deadline_ns;
    SourceId id;
  };
  struct TimerHeapLater {
    bool operator()(const TimerHeapEntry& a, const TimerHeapEntry& b) const {
      return a.deadline_ns != b.deadline_ns ? a.deadline_ns > b.deadline_ns : a.id > b.id;
    }
  };

  bool TimerEntryCurrent(const TimerHeapEntry& entry) const;
  bool DispatchTimers(Nanos now, bool* any_pending, Nanos* next_deadline);
  bool DispatchIdles();
  bool DrainInvokeQueue();
  int PollFds(Nanos timeout_ns);
  void Wakeup();

  Clock* clock_;
  std::atomic<bool> quit_{false};

  SourceId next_id_ = 1;
  std::map<SourceId, std::unique_ptr<TimeoutSource>> timeouts_;
  std::map<SourceId, std::unique_ptr<IdleSource>> idles_;
  std::map<SourceId, std::unique_ptr<IoSource>> io_watches_;

  // Min-heap over (deadline, id); may hold stale entries for removed or
  // rescheduled sources (lazily dropped).  live_timeouts_ counts sources not
  // yet marked removed, so "any timer pending" needs no map scan either.
  std::vector<TimerHeapEntry> timer_heap_;
  size_t live_timeouts_ = 0;
  std::vector<SourceId> due_scratch_;

  // PollFds' reused ppoll(2) set: one pollfd per live watch, the matching
  // source ids, then the wake pipe.
  std::vector<pollfd> pollfds_;
  std::vector<SourceId> poll_ids_;

  // Ids removed while dispatching; applied after the dispatch pass.
  std::vector<SourceId> pending_removals_;
  bool dispatching_ = false;

  mutable std::mutex invoke_mu_;
  std::vector<std::function<void()>> invoke_queue_;

  // Loop-thread only; runs first in every Iterate().
  std::function<void()> pre_iterate_hook_;

  // Self-pipe used to interrupt ppoll(2) from Invoke().
  int wake_pipe_[2] = {-1, -1};
};

}  // namespace gscope

#endif  // GSCOPE_RUNTIME_EVENT_LOOP_H_
