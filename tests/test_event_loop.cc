#include "runtime/event_loop.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <thread>
#include <vector>

#include "runtime/clock.h"

namespace gscope {
namespace {

TEST(EventLoopTest, TimeoutFiresAtPeriod) {
  SimClock clock;
  MainLoop loop(&clock);
  int fired = 0;
  loop.AddTimeoutMs(10, [&fired](const TimeoutTick&) {
    ++fired;
    return true;
  });
  loop.RunForMs(100);
  // Sentinel and the timer race at the final boundary; allow either count.
  EXPECT_GE(fired, 9);
  EXPECT_LE(fired, 10);
}

TEST(EventLoopTest, TimeoutReturnFalseRemoves) {
  SimClock clock;
  MainLoop loop(&clock);
  int fired = 0;
  loop.AddTimeoutMs(10, [&fired](const TimeoutTick&) {
    ++fired;
    return false;
  });
  loop.RunForMs(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.source_count(), 0u);
}

TEST(EventLoopTest, InvalidTimeoutRejected) {
  SimClock clock;
  MainLoop loop(&clock);
  EXPECT_EQ(loop.AddTimeoutNs(0, [](const TimeoutTick&) { return true; }), 0);
  EXPECT_EQ(loop.AddTimeoutNs(-5, [](const TimeoutTick&) { return true; }), 0);
  EXPECT_EQ(loop.AddTimeoutMs(10, MainLoop::TimeoutFn{}), 0);
}

TEST(EventLoopTest, RemoveStopsDispatch) {
  SimClock clock;
  MainLoop loop(&clock);
  int fired = 0;
  SourceId id = loop.AddTimeoutMs(10, [&fired](const TimeoutTick&) {
    ++fired;
    return true;
  });
  loop.RunForMs(25);
  EXPECT_TRUE(loop.Remove(id));
  int before = fired;
  loop.RunForMs(50);
  EXPECT_EQ(fired, before);
  EXPECT_FALSE(loop.Remove(id));
}

TEST(EventLoopTest, RemoveSelfInsideCallback) {
  SimClock clock;
  MainLoop loop(&clock);
  int fired = 0;
  SourceId id = 0;
  id = loop.AddTimeoutMs(10, [&](const TimeoutTick&) {
    ++fired;
    loop.Remove(id);
    return true;  // removal must win over the keep return
  });
  loop.RunForMs(50);
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopTest, CallbackCanAddSources) {
  SimClock clock;
  MainLoop loop(&clock);
  int inner_fired = 0;
  loop.AddTimeoutMs(10, [&](const TimeoutTick&) {
    loop.AddTimeoutMs(5, [&inner_fired](const TimeoutTick&) {
      ++inner_fired;
      return false;
    });
    return false;
  });
  loop.RunForMs(50);
  EXPECT_EQ(inner_fired, 1);
}

TEST(EventLoopTest, LostTimeoutAccountingWithSimClock) {
  // Simulate a stalled dispatcher: advance the clock far past several
  // deadlines, then iterate.  Section 4.5: the tick must report the missed
  // periods and stats must accumulate them.
  SimClock clock;
  MainLoop loop(&clock);
  int64_t last_lost = -1;
  int fired = 0;
  SourceId id = loop.AddTimeoutMs(10, [&](const TimeoutTick& tick) {
    ++fired;
    last_lost = tick.lost;
    return true;
  });
  // First deadline at 10ms; jump to 45ms: 3 whole extra periods missed...
  clock.AdvanceMs(45);
  loop.Iterate(false);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(last_lost, 3);
  const TimerStats* stats = loop.StatsFor(id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->fired, 1);
  EXPECT_EQ(stats->lost, 3);
  EXPECT_GT(stats->max_latency_ns, 0);
}

TEST(EventLoopTest, LostTimeoutRealignsDeadline) {
  SimClock clock;
  MainLoop loop(&clock);
  std::vector<int64_t> losses;
  loop.AddTimeoutMs(10, [&](const TimeoutTick& tick) {
    losses.push_back(tick.lost);
    return true;
  });
  clock.AdvanceMs(35);  // deadline 10, now 35 -> lost 2, next deadline 40
  loop.Iterate(false);
  clock.AdvanceMs(5);  // now 40 -> on time
  loop.Iterate(false);
  ASSERT_EQ(losses.size(), 2u);
  EXPECT_EQ(losses[0], 2);
  EXPECT_EQ(losses[1], 0);
}

TEST(EventLoopTest, SetTimeoutPeriodPreservesStats) {
  SimClock clock;
  MainLoop loop(&clock);
  SourceId id = loop.AddTimeoutMs(10, [](const TimeoutTick&) { return true; });
  loop.RunForMs(30);
  const TimerStats* stats = loop.StatsFor(id);
  ASSERT_NE(stats, nullptr);
  int64_t fired_before = stats->fired;
  EXPECT_GT(fired_before, 0);
  EXPECT_TRUE(loop.SetTimeoutPeriodNs(id, MillisToNanos(20)));
  loop.RunForMs(40);
  EXPECT_GE(loop.StatsFor(id)->fired, fired_before + 1);
}

TEST(EventLoopTest, MoveTimeoutEarlierFiresThereThenKeepsPeriod) {
  // A drained scope's deadline wake: the periodic source is brought forward
  // to an absolute instant, fires there, and keeps its period from there.
  SimClock clock;
  MainLoop loop(&clock);
  std::vector<Nanos> fired_at;
  int64_t lost = 0;
  SourceId id = loop.AddTimeoutMs(10, [&](const TimeoutTick& tick) {
    fired_at.push_back(tick.actual_ns);
    lost += tick.lost;
    return true;
  });
  loop.Iterate(true);  // fast-forwards to the first deadline, 10 ms
  ASSERT_EQ(fired_at.size(), 1u);
  // The next deadline is 20 ms: moving it later, or to itself, is refused,
  // as is an unknown id.
  EXPECT_FALSE(loop.MoveTimeoutEarlier(id, MillisToNanos(25)));
  EXPECT_FALSE(loop.MoveTimeoutEarlier(id, MillisToNanos(20)));
  EXPECT_FALSE(loop.MoveTimeoutEarlier(9999, MillisToNanos(13)));
  EXPECT_TRUE(loop.MoveTimeoutEarlier(id, MillisToNanos(13)));
  for (int i = 0; i < 3; ++i) {
    loop.Iterate(true);
  }
  EXPECT_EQ(fired_at, (std::vector<Nanos>{MillisToNanos(10), MillisToNanos(13),
                                          MillisToNanos(23), MillisToNanos(33)}));
  // Moving a deadline earlier is not a missed period: no lost ticks, and
  // every dispatch ran on time.
  EXPECT_EQ(lost, 0);
  const TimerStats* stats = loop.StatsFor(id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->fired, 4);
  EXPECT_EQ(stats->lost, 0);
  EXPECT_EQ(stats->max_latency_ns, 0);
}

TEST(EventLoopTest, MovedTimeoutStillCountsMissedPeriods) {
  // A stall after the move is lost-tick accounting as usual (Section 4.5):
  // whole periods past the moved deadline.
  SimClock clock;
  MainLoop loop(&clock);
  std::vector<int64_t> losses;
  SourceId id = loop.AddTimeoutMs(10, [&](const TimeoutTick& tick) {
    losses.push_back(tick.lost);
    return true;
  });
  EXPECT_TRUE(loop.MoveTimeoutEarlier(id, MillisToNanos(4)));
  clock.AdvanceMs(36);  // moved deadline 4, now 36: periods at 14, 24, 34 missed
  loop.Iterate(false);
  clock.AdvanceMs(8);   // next deadline 44: on time
  loop.Iterate(false);
  EXPECT_EQ(losses, (std::vector<int64_t>{3, 0}));
  EXPECT_EQ(loop.StatsFor(id)->lost, 3);
}

TEST(EventLoopTest, SetTimeoutPeriodRejectsBadArgs) {
  SimClock clock;
  MainLoop loop(&clock);
  SourceId id = loop.AddTimeoutMs(10, [](const TimeoutTick&) { return true; });
  EXPECT_FALSE(loop.SetTimeoutPeriodNs(id, 0));
  EXPECT_FALSE(loop.SetTimeoutPeriodNs(9999, MillisToNanos(5)));
}

TEST(EventLoopTest, IdleRunsWhenNothingElsePending) {
  SimClock clock;
  MainLoop loop(&clock);
  int idles = 0;
  loop.AddIdle([&idles]() {
    ++idles;
    return idles < 3;
  });
  loop.Iterate(false);
  loop.Iterate(false);
  loop.Iterate(false);
  loop.Iterate(false);
  EXPECT_EQ(idles, 3);
  EXPECT_EQ(loop.source_count(), 0u);
}

TEST(EventLoopTest, TimersPreemptIdles) {
  SimClock clock;
  MainLoop loop(&clock);
  std::vector<int> order;
  loop.AddIdle([&order]() {
    order.push_back(2);
    return false;
  });
  loop.AddTimeoutMs(10, [&order](const TimeoutTick&) {
    order.push_back(1);
    return false;
  });
  clock.AdvanceMs(10);
  loop.Iterate(false);  // timer is due: idles must not run
  loop.Iterate(false);  // now the idle runs
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(EventLoopTest, IoWatchReadable) {
  SimClock clock;
  MainLoop loop(&clock);
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::string received;
  loop.AddIoWatch(fds[0], IoCondition::kIn, [&](int fd, IoCondition cond) {
    EXPECT_TRUE(Has(cond, IoCondition::kIn));
    char buf[16];
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      received.append(buf, static_cast<size_t>(n));
    }
    return true;
  });
  ASSERT_EQ(write(fds[1], "hi", 2), 2);
  loop.Iterate(false);
  EXPECT_EQ(received, "hi");
  close(fds[0]);
  close(fds[1]);
}

TEST(EventLoopTest, IoWatchRemovedOnFalse) {
  SimClock clock;
  MainLoop loop(&clock);
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  int calls = 0;
  loop.AddIoWatch(fds[0], IoCondition::kIn, [&](int fd, IoCondition) {
    ++calls;
    char buf[16];
    (void)!read(fd, buf, sizeof(buf));
    return false;
  });
  ASSERT_EQ(write(fds[1], "x", 1), 1);
  loop.Iterate(false);
  ASSERT_EQ(write(fds[1], "y", 1), 1);
  loop.Iterate(false);
  EXPECT_EQ(calls, 1);
  close(fds[0]);
  close(fds[1]);
}

TEST(EventLoopTest, InvokeFromOtherThread) {
  MainLoop loop;  // real clock: exercises the wakeup pipe
  int value = 0;
  std::thread t([&loop, &value]() {
    loop.Invoke([&value, &loop]() {
      value = 42;
      loop.Quit();
    });
  });
  loop.Run();
  t.join();
  EXPECT_EQ(value, 42);
}

TEST(EventLoopTest, QuitStopsRun) {
  SimClock clock;
  MainLoop loop(&clock);
  int fired = 0;
  loop.AddTimeoutMs(10, [&](const TimeoutTick&) {
    if (++fired == 3) {
      loop.Quit();
    }
    return true;
  });
  loop.Run();
  EXPECT_EQ(fired, 3);
}

TEST(EventLoopTest, RunForAdvancesSimTimeExactly) {
  SimClock clock;
  MainLoop loop(&clock);
  loop.RunForMs(250);
  EXPECT_EQ(clock.NowNs(), MillisToNanos(250));
}

TEST(EventLoopTest, MultipleTimersInterleave) {
  SimClock clock;
  MainLoop loop(&clock);
  int fast = 0;
  int slow = 0;
  loop.AddTimeoutMs(10, [&fast](const TimeoutTick&) {
    ++fast;
    return true;
  });
  loop.AddTimeoutMs(30, [&slow](const TimeoutTick&) {
    ++slow;
    return true;
  });
  loop.RunForMs(90);
  EXPECT_GE(fast, 8);
  EXPECT_GE(slow, 2);
  EXPECT_GT(fast, slow);
}

TEST(EventLoopTest, SourceCountTracksAll) {
  SimClock clock;
  MainLoop loop(&clock);
  EXPECT_EQ(loop.source_count(), 0u);
  SourceId t = loop.AddTimeoutMs(10, [](const TimeoutTick&) { return true; });
  SourceId i = loop.AddIdle([]() { return true; });
  EXPECT_EQ(loop.source_count(), 2u);
  loop.Remove(t);
  loop.Remove(i);
  EXPECT_EQ(loop.source_count(), 0u);
}

TEST(EventLoopTest, RealClockTimeoutActuallyWaits) {
  MainLoop loop;  // steady clock
  SteadyClock clock;
  Nanos start = clock.NowNs();
  loop.RunForMs(30);
  Nanos elapsed = clock.NowNs() - start;
  EXPECT_GE(elapsed, MillisToNanos(25));
}

// Property: for any period p and stall s, the number of lost ticks reported
// is floor((s - p) / p) when s > p.
class LostTickProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LostTickProperty, LostMatchesStall) {
  auto [period_ms, stall_ms] = GetParam();
  SimClock clock;
  MainLoop loop(&clock);
  int64_t lost = -1;
  loop.AddTimeoutMs(period_ms, [&lost](const TimeoutTick& tick) {
    lost = tick.lost;
    return false;
  });
  clock.AdvanceMs(stall_ms);
  loop.Iterate(false);
  if (stall_ms >= period_ms) {
    EXPECT_EQ(lost, (stall_ms - period_ms) / period_ms);
  } else {
    EXPECT_EQ(lost, -1);  // never fired
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LostTickProperty,
                         ::testing::Combine(::testing::Values(1, 5, 10, 50),
                                            ::testing::Values(5, 10, 37, 100, 1000)));

}  // namespace
}  // namespace gscope
