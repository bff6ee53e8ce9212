#include "runtime/event_loop.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <limits>

namespace gscope {
namespace {

constexpr Nanos kNoDeadline = std::numeric_limits<Nanos>::max();

short CondToPollEvents(IoCondition cond) {
  short events = 0;
  if (Has(cond, IoCondition::kIn)) {
    events |= POLLIN;
  }
  if (Has(cond, IoCondition::kOut)) {
    events |= POLLOUT;
  }
  return events;
}

IoCondition PollEventsToCond(short revents) {
  IoCondition cond = static_cast<IoCondition>(0);
  if (revents & POLLIN) {
    cond = cond | IoCondition::kIn;
  }
  if (revents & POLLOUT) {
    cond = cond | IoCondition::kOut;
  }
  if (revents & POLLHUP) {
    cond = cond | IoCondition::kHup;
  }
  if (revents & (POLLERR | POLLNVAL)) {
    cond = cond | IoCondition::kErr;
  }
  return cond;
}

thread_local MainLoop* tls_current_loop = nullptr;

// RAII save/restore so nested Iterate calls (a callback pumping another
// loop on the same thread) keep Current() truthful.
struct CurrentLoopScope {
  MainLoop* saved;
  explicit CurrentLoopScope(MainLoop* loop) : saved(tls_current_loop) {
    tls_current_loop = loop;
  }
  ~CurrentLoopScope() { tls_current_loop = saved; }
};

}  // namespace

MainLoop* MainLoop::Current() { return tls_current_loop; }

struct MainLoop::TimeoutSource {
  Nanos period_ns = 0;
  Nanos deadline_ns = 0;
  TimeoutFn fn;
  TimerStats stats;
  bool removed = false;
};

struct MainLoop::IdleSource {
  IdleFn fn;
  bool removed = false;
};

struct MainLoop::IoSource {
  int fd = -1;
  IoCondition cond = IoCondition::kIn;
  IoFn fn;
  bool removed = false;
};

MainLoop::MainLoop(Clock* clock) : clock_(clock != nullptr ? clock : SteadyClock::Instance()) {
  if (pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) {
    wake_pipe_[0] = wake_pipe_[1] = -1;
  }
}

MainLoop::~MainLoop() {
  for (int fd : wake_pipe_) {
    if (fd >= 0) {
      close(fd);
    }
  }
}

SourceId MainLoop::AddTimeoutNs(Nanos period_ns, TimeoutFn fn) {
  if (period_ns <= 0 || !fn) {
    return 0;
  }
  auto src = std::make_unique<TimeoutSource>();
  src->period_ns = period_ns;
  src->deadline_ns = clock_->NowNs() + period_ns;
  src->fn = std::move(fn);
  SourceId id = next_id_++;
  timer_heap_.push_back({src->deadline_ns, id});
  std::push_heap(timer_heap_.begin(), timer_heap_.end(), TimerHeapLater{});
  live_timeouts_ += 1;
  timeouts_[id] = std::move(src);
  return id;
}

SourceId MainLoop::AddIdle(IdleFn fn) {
  if (!fn) {
    return 0;
  }
  auto src = std::make_unique<IdleSource>();
  src->fn = std::move(fn);
  SourceId id = next_id_++;
  idles_[id] = std::move(src);
  return id;
}

SourceId MainLoop::AddIoWatch(int fd, IoCondition cond, IoFn fn) {
  if (fd < 0 || !fn) {
    return 0;
  }
  auto src = std::make_unique<IoSource>();
  src->fd = fd;
  src->cond = cond;
  src->fn = std::move(fn);
  SourceId id = next_id_++;
  io_watches_[id] = std::move(src);
  return id;
}

bool MainLoop::Remove(SourceId id) {
  auto mark = [this, id](auto& map) -> bool {
    auto it = map.find(id);
    if (it == map.end() || it->second->removed) {
      return false;
    }
    if (dispatching_) {
      it->second->removed = true;
      pending_removals_.push_back(id);
    } else {
      map.erase(it);
    }
    return true;
  };
  if (mark(timeouts_)) {
    live_timeouts_ -= 1;  // stale heap entries are dropped lazily at pop
    return true;
  }
  return mark(idles_) || mark(io_watches_);
}

bool MainLoop::SetTimeoutPeriodNs(SourceId id, Nanos period_ns) {
  if (period_ns <= 0) {
    return false;
  }
  auto it = timeouts_.find(id);
  if (it == timeouts_.end() || it->second->removed) {
    return false;
  }
  it->second->period_ns = period_ns;
  it->second->deadline_ns = clock_->NowNs() + period_ns;
  timer_heap_.push_back({it->second->deadline_ns, id});
  std::push_heap(timer_heap_.begin(), timer_heap_.end(), TimerHeapLater{});
  return true;
}

bool MainLoop::MoveTimeoutEarlier(SourceId id, Nanos deadline_ns) {
  auto it = timeouts_.find(id);
  if (it == timeouts_.end() || it->second->removed || deadline_ns >= it->second->deadline_ns) {
    return false;
  }
  it->second->deadline_ns = deadline_ns;
  timer_heap_.push_back({deadline_ns, id});
  std::push_heap(timer_heap_.begin(), timer_heap_.end(), TimerHeapLater{});
  return true;
}

const TimerStats* MainLoop::StatsFor(SourceId id) const {
  auto it = timeouts_.find(id);
  if (it == timeouts_.end()) {
    return nullptr;
  }
  return &it->second->stats;
}

TimerStats MainLoop::TotalTimerStats() const {
  TimerStats total;
  for (const auto& [id, src] : timeouts_) {
    if (src->removed) {
      continue;
    }
    total.fired += src->stats.fired;
    total.lost += src->stats.lost;
    total.total_latency_ns += src->stats.total_latency_ns;
    total.max_latency_ns = std::max(total.max_latency_ns, src->stats.max_latency_ns);
  }
  return total;
}

size_t MainLoop::source_count() const {
  return timeouts_.size() + idles_.size() + io_watches_.size();
}

bool MainLoop::TimerEntryCurrent(const TimerHeapEntry& entry) const {
  auto it = timeouts_.find(entry.id);
  return it != timeouts_.end() && !it->second->removed &&
         it->second->deadline_ns == entry.deadline_ns;
}

bool MainLoop::DispatchTimers(Nanos now, bool* any_pending, Nanos* next_deadline) {
  // Pop every due entry off the min-heap, skipping stale ones (removed or
  // rescheduled sources: their live entry, if any, carries the current
  // deadline).  Dispatch order stays id order - the pre-heap behaviour -
  // and duplicates (a source rescheduled back to the same deadline) fold
  // away in the sort+unique.
  std::vector<SourceId>& due = due_scratch_;
  due.clear();
  while (!timer_heap_.empty()) {
    const TimerHeapEntry& top = timer_heap_.front();
    if (!TimerEntryCurrent(top)) {
      std::pop_heap(timer_heap_.begin(), timer_heap_.end(), TimerHeapLater{});
      timer_heap_.pop_back();
      continue;
    }
    if (top.deadline_ns > now) {
      break;
    }
    due.push_back(top.id);
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), TimerHeapLater{});
    timer_heap_.pop_back();
  }
  std::sort(due.begin(), due.end());
  due.erase(std::unique(due.begin(), due.end()), due.end());

  bool dispatched = false;
  dispatching_ = true;
  for (SourceId id : due) {
    auto it = timeouts_.find(id);
    if (it == timeouts_.end() || it->second->removed) {
      continue;
    }
    TimeoutSource* src = it->second.get();
    Nanos latency = now - src->deadline_ns;
    // Whole periods that elapsed past the deadline are "lost" ticks: the
    // callback runs once and is told how many refreshes it missed.
    int64_t lost = latency / src->period_ns;
    TimeoutTick tick{src->deadline_ns, now, lost};
    src->stats.RecordDispatch(latency, lost);
    src->deadline_ns += (lost + 1) * src->period_ns;
    bool keep = src->fn(tick);
    dispatched = true;
    if (!keep && !src->removed) {
      src->removed = true;
      live_timeouts_ -= 1;
      pending_removals_.push_back(id);
    } else if (!src->removed) {
      // Re-arm (the callback may itself have rescheduled; a duplicate entry
      // is harmless - stale ones validate against the source's deadline).
      timer_heap_.push_back({src->deadline_ns, id});
      std::push_heap(timer_heap_.begin(), timer_heap_.end(), TimerHeapLater{});
    }
  }
  dispatching_ = false;

  for (SourceId id : pending_removals_) {
    timeouts_.erase(id);
    idles_.erase(id);
    io_watches_.erase(id);
  }
  pending_removals_.clear();

  *any_pending = live_timeouts_ > 0;
  while (!timer_heap_.empty() && !TimerEntryCurrent(timer_heap_.front())) {
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), TimerHeapLater{});
    timer_heap_.pop_back();
  }
  *next_deadline = timer_heap_.empty() ? kNoDeadline : timer_heap_.front().deadline_ns;
  return dispatched;
}

bool MainLoop::DispatchIdles() {
  std::vector<SourceId> ids;
  ids.reserve(idles_.size());
  for (const auto& [id, src] : idles_) {
    if (!src->removed) {
      ids.push_back(id);
    }
  }
  bool dispatched = false;
  dispatching_ = true;
  for (SourceId id : ids) {
    auto it = idles_.find(id);
    if (it == idles_.end() || it->second->removed) {
      continue;
    }
    bool keep = it->second->fn();
    dispatched = true;
    if (!keep && !it->second->removed) {
      it->second->removed = true;
      pending_removals_.push_back(id);
    }
  }
  dispatching_ = false;
  for (SourceId id : pending_removals_) {
    idles_.erase(id);
    timeouts_.erase(id);
    io_watches_.erase(id);
  }
  pending_removals_.clear();
  return dispatched;
}

bool MainLoop::DrainInvokeQueue() {
  std::vector<std::function<void()>> queue;
  {
    std::lock_guard<std::mutex> lock(invoke_mu_);
    queue.swap(invoke_queue_);
  }
  for (auto& fn : queue) {
    fn();
  }
  return !queue.empty();
}

int MainLoop::PollFds(Nanos timeout_ns) {
  pollfds_.clear();
  poll_ids_.clear();
  for (const auto& [id, src] : io_watches_) {
    if (src->removed) {
      continue;
    }
    pollfds_.push_back(pollfd{src->fd, CondToPollEvents(src->cond), 0});
    poll_ids_.push_back(id);
  }
  size_t wake_index = pollfds_.size();
  if (wake_pipe_[0] >= 0) {
    pollfds_.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
  }

  timespec timeout{static_cast<time_t>(timeout_ns / kNanosPerSecond),
                   static_cast<long>(timeout_ns % kNanosPerSecond)};
  int n = ppoll(pollfds_.data(), pollfds_.size(), &timeout, nullptr);
  if (n <= 0) {
    return 0;
  }

  if (wake_pipe_[0] >= 0 && (pollfds_[wake_index].revents & POLLIN)) {
    char buf[64];
    while (read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
    }
  }

  int dispatched = 0;
  dispatching_ = true;
  for (size_t i = 0; i < poll_ids_.size(); ++i) {
    const pollfd& pfd = pollfds_[i];
    if (pfd.revents == 0) {
      continue;
    }
    auto it = io_watches_.find(poll_ids_[i]);
    if (it == io_watches_.end() || it->second->removed) {
      continue;
    }
    bool keep = it->second->fn(pfd.fd, PollEventsToCond(pfd.revents));
    ++dispatched;
    if (!keep && !it->second->removed) {
      it->second->removed = true;
      pending_removals_.push_back(poll_ids_[i]);
    }
  }
  dispatching_ = false;
  for (SourceId id : pending_removals_) {
    io_watches_.erase(id);
    timeouts_.erase(id);
    idles_.erase(id);
  }
  pending_removals_.clear();
  return dispatched;
}

void MainLoop::Wakeup() {
  if (wake_pipe_[1] >= 0) {
    char byte = 1;
    ssize_t rc = write(wake_pipe_[1], &byte, 1);
    (void)rc;  // A full pipe already guarantees a wakeup.
  }
}

void MainLoop::Invoke(std::function<void()> fn) {
  if (!fn) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(invoke_mu_);
    invoke_queue_.push_back(std::move(fn));
  }
  Wakeup();
}

bool MainLoop::Iterate(bool may_block) {
  CurrentLoopScope current_scope(this);
  if (pre_iterate_hook_) {
    pre_iterate_hook_();
  }
  bool dispatched = DrainInvokeQueue();

  Nanos now = clock_->NowNs();
  bool timers_pending = false;
  Nanos next_deadline = kNoDeadline;
  dispatched |= DispatchTimers(now, &timers_pending, &next_deadline);

  bool have_idles = !idles_.empty();
  auto* sim = dynamic_cast<SimClock*>(clock_);

  Nanos poll_timeout = 0;
  if (!dispatched && may_block && !have_idles && sim == nullptr) {
    poll_timeout = timers_pending ? std::max<Nanos>(0, next_deadline - clock_->NowNs())
                                  : Nanos{std::numeric_limits<Nanos>::max()};
    if (poll_timeout == std::numeric_limits<Nanos>::max()) {
      // No timers: block "forever"; a Wakeup()/fd event interrupts poll.
      poll_timeout = MillisToNanos(1000);
    }
  }

  dispatched |= PollFds(poll_timeout) > 0;
  dispatched |= DrainInvokeQueue();

  if (!dispatched && have_idles) {
    dispatched |= DispatchIdles();
  }

  if (!dispatched && may_block && sim != nullptr && timers_pending) {
    // Simulated time: fast-forward to the next deadline and fire it.
    sim->SetNs(next_deadline);
    bool pending = false;
    Nanos unused = 0;
    dispatched |= DispatchTimers(sim->NowNs(), &pending, &unused);
  }

  return dispatched;
}

void MainLoop::Run() {
  quit_.store(false, std::memory_order_relaxed);
  while (!quit_.load(std::memory_order_relaxed)) {
    Iterate(/*may_block=*/true);
  }
}

void MainLoop::Quit() {
  quit_.store(true, std::memory_order_relaxed);
  Wakeup();
}

void MainLoop::RunForNs(Nanos duration_ns) {
  if (duration_ns <= 0) {
    return;
  }
  bool done = false;
  SourceId sentinel = AddTimeoutNs(duration_ns, [&done](const TimeoutTick&) {
    done = true;
    return false;
  });
  if (sentinel == 0) {
    return;
  }
  while (!done) {
    Iterate(/*may_block=*/true);
  }
}

}  // namespace gscope
