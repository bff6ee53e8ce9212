#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/scope.h"
#include "runtime/clock.h"

namespace gscope {
namespace {

class ScopeBufferedTest : public ::testing::Test {
 protected:
  ScopeBufferedTest() : loop_(&clock_), scope_(&loop_, {.name = "buf", .width = 64}) {
    scope_.SetPollingMode(10);
  }

  SimClock clock_;
  MainLoop loop_;
  Scope scope_;
};

TEST_F(ScopeBufferedTest, BufferedSignalDisplaysWithDelay) {
  SignalId id = scope_.AddSignal({.name = "ev", .source = BufferSource{}});
  scope_.SetDelayMs(50);
  scope_.StartPolling();

  // Push a sample stamped "now"; it must not display until delay elapses.
  EXPECT_TRUE(scope_.PushBuffered("ev", scope_.NowMs(), 42.0));
  loop_.RunForMs(20);
  EXPECT_FALSE(scope_.LatestValue(id).has_value() && *scope_.LatestValue(id) == 42.0);
  loop_.RunForMs(60);
  EXPECT_DOUBLE_EQ(scope_.LatestValue(id).value_or(-1), 42.0);
}

TEST_F(ScopeBufferedTest, DrainedScopeEchoesEachSampleAtItsDeadline) {
  // The stream server's session scopes: an every-sample tap, delay 50,
  // period 10.  Each drain brings the timer forward to the earliest queued
  // deadline, so samples stamped 3, 7 and 12 reach the tap at scope time
  // 53, 57 and 62 - not at the period ticks 60, 60 and 70, and never early.
  SignalId id = scope_.AddSignal({.name = "ev", .source = BufferSource{}});
  scope_.SetDelayMs(50);
  std::vector<std::pair<int64_t, int64_t>> seen;  // (stamp, scope time)
  scope_.SetBufferedTap([&](std::string_view, int64_t time_ms, double) {
    seen.emplace_back(time_ms, scope_.NowMs());
  });
  int64_t drains = 0;
  ASSERT_TRUE(scope_.StartDraining([&]() { ++drains; }));
  ASSERT_TRUE(scope_.PushBuffered("ev", 3, 3.0));
  ASSERT_TRUE(scope_.PushBuffered("ev", 7, 7.0));
  ASSERT_TRUE(scope_.PushBuffered("ev", 12, 12.0));
  loop_.RunForMs(100);
  using Seen = std::vector<std::pair<int64_t, int64_t>>;
  EXPECT_EQ(seen, (Seen{{3, 53}, {7, 57}, {12, 62}}));
  // Drained, never painted: no trace column, no sampling point, and one
  // end-of-drain call per tick.
  EXPECT_EQ(scope_.TraceFor(id)->size(), 0u);
  EXPECT_EQ(scope_.counters().samples, 0);
  EXPECT_EQ(scope_.counters().buffered_routed, 3);
  EXPECT_EQ(drains, scope_.counters().ticks);
  EXPECT_EQ(scope_.poll_stats()->lost, 0);
}

TEST_F(ScopeBufferedTest, DrainedScopeWithCoalescedTapDrainsOnPeriodTicksOnly) {
  // A coalesced tap keeps one winner per signal per period: its timer is
  // never brought forward.
  scope_.AddSignal({.name = "ev", .source = BufferSource{}});
  scope_.SetDelayMs(50);
  std::vector<std::pair<int64_t, int64_t>> seen;  // (stamp, scope time)
  scope_.SetBufferedTap(
      [&](std::string_view, int64_t time_ms, double) {
        seen.emplace_back(time_ms, scope_.NowMs());
      },
      TapMode::kCoalesced);
  std::vector<int64_t> drain_times;
  ASSERT_TRUE(scope_.StartDraining([&]() { drain_times.push_back(scope_.NowMs()); }));
  ASSERT_TRUE(scope_.PushBuffered("ev", 3, 3.0));
  ASSERT_TRUE(scope_.PushBuffered("ev", 7, 7.0));
  ASSERT_TRUE(scope_.PushBuffered("ev", 12, 12.0));
  loop_.RunForMs(100);
  ASSERT_FALSE(drain_times.empty());
  for (int64_t t : drain_times) {
    EXPECT_EQ(t % 10, 0) << "drain off the period grid at " << t;
  }
  using Seen = std::vector<std::pair<int64_t, int64_t>>;
  EXPECT_EQ(seen, (Seen{{7, 60}, {12, 70}}));
}

TEST_F(ScopeBufferedTest, LateDataDropped) {
  scope_.AddSignal({.name = "ev", .source = BufferSource{}});
  scope_.SetDelayMs(20);
  scope_.StartPolling();
  loop_.RunForMs(200);
  // Stamped 100ms ago with a 20ms delay: its display time has passed.
  EXPECT_FALSE(scope_.PushBuffered("ev", scope_.NowMs() - 100, 1.0));
  EXPECT_EQ(scope_.ingest_span_stats().dropped_late, 1);
}

TEST_F(ScopeBufferedTest, SampleAndHoldBetweenPushes) {
  SignalId id = scope_.AddSignal({.name = "ev", .source = BufferSource{}});
  scope_.StartPolling();
  scope_.PushBuffered("ev", scope_.NowMs(), 5.0);
  loop_.RunForMs(100);
  EXPECT_DOUBLE_EQ(scope_.LatestValue(id).value_or(-1), 5.0);
  // No new pushes for many ticks: the value holds.
  loop_.RunForMs(200);
  EXPECT_DOUBLE_EQ(scope_.LatestValue(id).value_or(-1), 5.0);
  const Trace* trace = scope_.TraceFor(id);
  EXPECT_GT(trace->size(), 20u);
}

TEST_F(ScopeBufferedTest, UnnamedPushRoutesToFirstBufferSignal) {
  int32_t polled = 0;
  scope_.AddSignal({.name = "polled", .source = &polled});
  SignalId buf = scope_.AddSignal({.name = "stream", .source = BufferSource{}});
  scope_.StartPolling();
  scope_.PushBuffered("", scope_.NowMs(), 9.0);
  loop_.RunForMs(50);
  EXPECT_DOUBLE_EQ(scope_.LatestValue(buf).value_or(-1), 9.0);
}

TEST_F(ScopeBufferedTest, NamedPushToNonBufferSignalUnmatched) {
  int32_t polled = 0;
  scope_.AddSignal({.name = "polled", .source = &polled});
  scope_.StartPolling();
  scope_.PushBuffered("polled", scope_.NowMs(), 9.0);
  loop_.RunForMs(50);
  EXPECT_GE(scope_.counters().buffered_unmatched, 1);
  EXPECT_DOUBLE_EQ(scope_.LatestValue(scope_.FindSignal("polled")).value_or(-1), 0.0);
}

TEST_F(ScopeBufferedTest, MultipleSamplesPerIntervalLastWins) {
  SignalId id = scope_.AddSignal({.name = "ev", .source = BufferSource{}});
  scope_.StartPolling();
  int64_t now = scope_.NowMs();
  scope_.PushBuffered("ev", now, 1.0);
  scope_.PushBuffered("ev", now + 1, 2.0);
  scope_.PushBuffered("ev", now + 2, 3.0);
  loop_.RunForMs(50);
  EXPECT_DOUBLE_EQ(scope_.LatestValue(id).value_or(-1), 3.0);
  EXPECT_EQ(scope_.counters().buffered_routed, 3);
}

TEST_F(ScopeBufferedTest, TwoBufferedSignalsRouteByName) {
  SignalId a = scope_.AddSignal({.name = "a", .source = BufferSource{}});
  SignalId b = scope_.AddSignal({.name = "b", .source = BufferSource{}});
  scope_.StartPolling();
  int64_t now = scope_.NowMs();
  scope_.PushBuffered("a", now, 1.0);
  scope_.PushBuffered("b", now, 2.0);
  loop_.RunForMs(50);
  EXPECT_DOUBLE_EQ(scope_.LatestValue(a).value_or(-1), 1.0);
  EXPECT_DOUBLE_EQ(scope_.LatestValue(b).value_or(-1), 2.0);
}

TEST_F(ScopeBufferedTest, PushFromProducerThread) {
  // The netlink-style push pattern of Section 3.1: a producer thread feeds
  // the buffer while the scope polls on the loop thread.
  SignalId id = scope_.AddSignal({.name = "ev", .source = BufferSource{}});
  scope_.StartPolling();
  std::thread producer([this]() {
    for (int i = 1; i <= 100; ++i) {
      scope_.PushBuffered("ev", scope_.NowMs(), static_cast<double>(i));
    }
  });
  producer.join();
  loop_.RunForMs(100);
  EXPECT_DOUBLE_EQ(scope_.LatestValue(id).value_or(-1), 100.0);
}

TEST_F(ScopeBufferedTest, DelayedStreamDisplaysInOrder) {
  // Feed a ramp with timestamps 10ms apart, delay 30ms; the displayed trace
  // must be non-decreasing (ordered drain).
  SignalId id = scope_.AddSignal({.name = "ramp", .source = BufferSource{}});
  scope_.SetDelayMs(30);
  scope_.StartPolling();
  for (int i = 0; i < 20; ++i) {
    scope_.PushBuffered("ramp", scope_.NowMs() + i * 10, static_cast<double>(i));
  }
  loop_.RunForMs(400);
  const Trace* trace = scope_.TraceFor(id);
  auto values = trace->Values();
  for (size_t i = 1; i < values.size(); ++i) {
    EXPECT_LE(values[i - 1], values[i]);
  }
  EXPECT_DOUBLE_EQ(scope_.LatestValue(id).value_or(-1), 19.0);
}

// ---- the one ingest queue, driven tick by tick on the SimClock ------------

TEST_F(ScopeBufferedTest, DelayGatesDisplayAndAcceptsExactDeadline) {
  SignalId id = scope_.AddSignal({.name = "ev", .source = BufferSource{}});
  scope_.SetDelayMs(100);
  scope_.TickOnce();  // scope time starts at 0
  clock_.AdvanceMs(200);
  // time + delay == now: displayable right now, not late.
  EXPECT_TRUE(scope_.PushBuffered(id, 100, 1.0));
  EXPECT_TRUE(scope_.PushBuffered(id, 150, 2.0));  // displays at 250
  scope_.TickOnce();
  EXPECT_DOUBLE_EQ(scope_.LatestValue(id).value_or(-1), 1.0);
  // The partial drain kept the future sample queued.
  EXPECT_EQ(scope_.pending_ingest_samples(), 1u);
  clock_.AdvanceMs(49);
  scope_.TickOnce();
  EXPECT_DOUBLE_EQ(scope_.LatestValue(id).value_or(-1), 1.0);
  clock_.AdvanceMs(1);
  scope_.TickOnce();
  EXPECT_DOUBLE_EQ(scope_.LatestValue(id).value_or(-1), 2.0);
  EXPECT_EQ(scope_.pending_ingest_samples(), 0u);
  EXPECT_EQ(scope_.ingest_span_stats().dropped_late, 0);
}

TEST_F(ScopeBufferedTest, LateIdAndBatchPushesAreCounted) {
  // Section 4.4: "Data arriving at the server after this delay is not
  // buffered but dropped immediately."
  SignalId id = scope_.AddSignal({.name = "ev", .source = BufferSource{}});
  scope_.SetDelayMs(100);
  scope_.TickOnce();
  clock_.AdvanceMs(200);
  EXPECT_FALSE(scope_.PushBuffered(id, 10, 1.0));
  std::vector<Sample> batch = {{150, 2.0, static_cast<SampleKey>(id)},
                               {99, 3.0, static_cast<SampleKey>(id)},  // late
                               {160, 4.0, static_cast<SampleKey>(id)}};
  EXPECT_EQ(scope_.PushBufferedBatch(batch.data(), batch.size()), 2u);
  EXPECT_EQ(scope_.ingest_span_stats().dropped_late, 2);
  EXPECT_EQ(scope_.pending_ingest_samples(), 2u);
}

TEST_F(ScopeBufferedTest, ExtremeStampsDoNotOverflowTheLateCheck) {
  SignalId id = scope_.AddSignal({.name = "ev", .source = BufferSource{}});
  scope_.SetDelayMs(100);
  scope_.TickOnce();
  clock_.AdvanceMs(200);
  EXPECT_TRUE(scope_.PushBuffered(id, std::numeric_limits<int64_t>::max(), 1.0));
  EXPECT_FALSE(scope_.PushBuffered(id, std::numeric_limits<int64_t>::min(), 2.0));
  EXPECT_EQ(scope_.ingest_span_stats().dropped_late, 1);
  EXPECT_EQ(scope_.pending_ingest_samples(), 1u);
}

TEST_F(ScopeBufferedTest, EqualStampsRouteInPushOrder) {
  std::vector<SignalId> ids;
  for (int k = 0; k < 6; ++k) {
    ids.push_back(scope_.AddSignal({.name = "s" + std::to_string(k), .source = BufferSource{}}));
  }
  std::vector<double> seen;
  scope_.SetBufferedTap([&seen](std::string_view, int64_t, double v) { seen.push_back(v); });
  scope_.TickOnce();
  for (int k = 0; k < 6; ++k) {
    EXPECT_TRUE(scope_.PushBuffered(ids[static_cast<size_t>(k)], 100, static_cast<double>(k)));
  }
  clock_.AdvanceMs(100);
  scope_.TickOnce();
  ASSERT_EQ(seen.size(), 6u);
  for (size_t k = 0; k < seen.size(); ++k) {
    EXPECT_DOUBLE_EQ(seen[k], static_cast<double>(k));
  }
}

TEST_F(ScopeBufferedTest, OutOfOrderPushesRouteInTimeOrder) {
  SignalId id = scope_.AddSignal({.name = "ev", .source = BufferSource{}});
  std::vector<int64_t> seen;
  ASSERT_NE(scope_.AttachSampleSink(id, [&seen](int64_t t, double) { seen.push_back(t); }), 0u);
  scope_.TickOnce();
  for (int64_t t : {50, 10, 40, 20, 30}) {
    EXPECT_TRUE(scope_.PushBuffered(id, t, static_cast<double>(t)));
  }
  clock_.AdvanceMs(100);
  scope_.TickOnce();
  EXPECT_EQ(seen, (std::vector<int64_t>{10, 20, 30, 40, 50}));
  EXPECT_EQ(scope_.LatestBufferedTime(id).value_or(-1), 50);
}

TEST_F(ScopeBufferedTest, ConcurrentProducersLoseNothingAndKeepPerSignalOrder) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<SignalId> ids;
  std::vector<std::vector<int64_t>> seen(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ids.push_back(scope_.AddSignal({.name = "p" + std::to_string(t), .source = BufferSource{}}));
    std::vector<int64_t>* out = &seen[static_cast<size_t>(t)];
    ASSERT_NE(scope_.AttachSampleSink(ids.back(), [out](int64_t time, double) {
      out->push_back(time);
    }), 0u);
  }
  scope_.SetDelayMs(1 << 20);
  scope_.TickOnce();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, id = ids[static_cast<size_t>(t)]]() {
      for (int i = 0; i < kPerThread; ++i) {
        scope_.PushBuffered(id, i, 1.0);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(scope_.pending_ingest_samples(), static_cast<size_t>(kThreads * kPerThread));
  clock_.AdvanceMs(2 << 20);
  scope_.TickOnce();
  EXPECT_EQ(scope_.counters().buffered_routed, kThreads * kPerThread);
  for (const std::vector<int64_t>& times : seen) {
    ASSERT_EQ(times.size(), static_cast<size_t>(kPerThread));
    for (size_t i = 0; i < times.size(); ++i) {
      EXPECT_EQ(times[i], static_cast<int64_t>(i));
    }
  }
}

TEST_F(ScopeBufferedTest, CapacityBoundsQueueAndEvictsOldestFirst) {
  // One bound per scope: staged direct pushes and queued spans share it.
  Scope small(&loop_, {.name = "small", .width = 64, .buffer_capacity = 64});
  SignalId id = small.AddSignal({.name = "ev", .source = BufferSource{}});
  std::vector<int64_t> seen;
  ASSERT_NE(small.AttachSampleSink(id, [&seen](int64_t t, double) { seen.push_back(t); }), 0u);
  small.SetDelayMs(1000);
  small.TickOnce();
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(small.PushBuffered(id, i, 1.0));
  }
  size_t pending = small.pending_ingest_samples();
  EXPECT_LE(pending, 64u);
  EXPECT_GT(pending, 0u);
  EXPECT_EQ(small.ingest_span_stats().dropped_overflow, static_cast<int64_t>(200 - pending));
  clock_.AdvanceMs(2000);
  small.TickOnce();
  // The survivors are the newest samples, in order.
  ASSERT_EQ(seen.size(), pending);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<int64_t>(200 - pending + i));
  }
}

}  // namespace
}  // namespace gscope
