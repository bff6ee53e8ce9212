// The signal-routed ingest bus: route-table resolution and epoch
// invalidation, O(1) span fan-out, dynamic scope/signal topology under load,
// late/overflow policy on the span path, and pushes from other threads
// racing the drain.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/ingest_bus.h"
#include "core/ingest_router.h"
#include "core/scope.h"
#include "runtime/clock.h"

namespace gscope {
namespace {

class IngestRouterTest : public ::testing::Test {
 protected:
  IngestRouterTest() : loop_(&clock_) {}

  Scope* MakeScope(const std::string& name, size_t buffer_capacity = 1 << 16) {
    scopes_.push_back(std::make_unique<Scope>(
        &loop_, ScopeOptions{.name = name, .width = 64, .buffer_capacity = buffer_capacity}));
    Scope* scope = scopes_.back().get();
    scope->SetPollingMode(10);
    scope->StartPolling();
    return scope;
  }

  SimClock clock_;
  MainLoop loop_;
  std::vector<std::unique_ptr<Scope>> scopes_;
};

TEST_F(IngestRouterTest, FansOneBatchOutToAllScopes) {
  IngestRouter router;
  Scope* a = MakeScope("a");
  Scope* b = MakeScope("b");
  ASSERT_TRUE(router.AddScope(a));
  ASSERT_TRUE(router.AddScope(b));

  router.Append("sig", 0, 7.0);
  router.Append("sig", 1, 8.0);
  EXPECT_EQ(router.Flush().dropped_late, 0);

  clock_.AdvanceMs(5);
  a->TickOnce();
  b->TickOnce();
  EXPECT_DOUBLE_EQ(a->LatestValue(a->FindSignal("sig")).value_or(-1), 8.0);
  EXPECT_DOUBLE_EQ(b->LatestValue(b->FindSignal("sig")).value_or(-1), 8.0);
  EXPECT_EQ(a->counters().buffered_routed, 2);
  EXPECT_EQ(b->counters().buffered_routed, 2);
  EXPECT_EQ(router.route_count(), 1u);
}

TEST_F(IngestRouterTest, AddAndRemoveScopeAreO1AndIdempotent) {
  IngestRouter router;
  Scope* a = MakeScope("a");
  Scope* b = MakeScope("b");
  EXPECT_FALSE(router.AddScope(nullptr));
  EXPECT_TRUE(router.AddScope(a));
  EXPECT_FALSE(router.AddScope(a));  // duplicate
  EXPECT_TRUE(router.AddScope(b));
  EXPECT_EQ(router.scope_count(), 2u);
  EXPECT_TRUE(router.HasScope(a));
  EXPECT_TRUE(router.RemoveScope(a));
  EXPECT_FALSE(router.RemoveScope(a));
  EXPECT_FALSE(router.HasScope(a));
  EXPECT_EQ(router.scope_count(), 1u);
}

TEST_F(IngestRouterTest, UnnamedTuplesRouteToFirstBufferSignal) {
  IngestRouter router;
  Scope* a = MakeScope("a");
  SignalId id = a->AddSignal({.name = "only", .source = BufferSource{}});
  ASSERT_TRUE(router.AddScope(a));

  router.Append("", 0, 3.5);
  router.Flush();
  clock_.AdvanceMs(5);
  a->TickOnce();
  EXPECT_DOUBLE_EQ(a->LatestValue(id).value_or(-1), 3.5);
}

TEST_F(IngestRouterTest, ScopeAddedMidStreamReceivesOnlySubsequentTuples) {
  IngestRouter router;
  Scope* a = MakeScope("a");
  ASSERT_TRUE(router.AddScope(a));

  router.Append("sig", 0, 1.0);
  router.Flush();

  Scope* late_scope = MakeScope("late");
  ASSERT_TRUE(router.AddScope(late_scope));
  router.Append("sig", 1, 2.0);
  router.Flush();

  clock_.AdvanceMs(5);
  a->TickOnce();
  late_scope->TickOnce();
  EXPECT_DOUBLE_EQ(a->LatestValue(a->FindSignal("sig")).value_or(-1), 2.0);
  EXPECT_EQ(a->counters().buffered_routed, 2);
  // The late scope saw only the tuple sent after it subscribed.
  EXPECT_DOUBLE_EQ(late_scope->LatestValue(late_scope->FindSignal("sig")).value_or(-1), 2.0);
  EXPECT_EQ(late_scope->counters().buffered_routed, 1);
}

TEST_F(IngestRouterTest, ScopeRemovedMidStreamStopsReceivingButDrainsQueuedSpans) {
  IngestRouter router;
  Scope* keep = MakeScope("keep");
  Scope* gone = MakeScope("gone");
  ASSERT_TRUE(router.AddScope(keep));
  ASSERT_TRUE(router.AddScope(gone));

  router.Append("sig", 0, 1.0);
  router.Flush();  // queued on both scopes, not yet drained
  ASSERT_TRUE(router.RemoveScope(gone));
  router.Append("sig", 1, 2.0);
  router.Flush();

  clock_.AdvanceMs(5);
  keep->TickOnce();
  gone->TickOnce();
  EXPECT_EQ(keep->counters().buffered_routed, 2);
  // The removed scope still drains the span it got before removal.
  EXPECT_EQ(gone->counters().buffered_routed, 1);
  EXPECT_DOUBLE_EQ(gone->LatestValue(gone->FindSignal("sig")).value_or(-1), 1.0);
}

TEST_F(IngestRouterTest, RemovedSignalIsRecreatedOnNextTupleWhenAutoCreateOn) {
  IngestRouter router;
  Scope* a = MakeScope("a");
  ASSERT_TRUE(router.AddScope(a));

  router.Append("sig", 0, 1.0);
  router.Flush();
  SignalId first = a->FindSignal("sig");
  ASSERT_NE(first, 0);
  ASSERT_TRUE(a->RemoveSignal(first));  // epoch bump invalidates the table

  router.Append("sig", 1, 2.0);
  router.Flush();
  SignalId second = a->FindSignal("sig");
  ASSERT_NE(second, 0);
  EXPECT_NE(second, first);

  clock_.AdvanceMs(5);
  a->TickOnce();
  EXPECT_DOUBLE_EQ(a->LatestValue(second).value_or(-1), 2.0);
}

TEST_F(IngestRouterTest, AutoCreateOffPartialResolutionUsesShimForUnknownScope) {
  IngestRouter router({.auto_create_signals = false});
  Scope* knows = MakeScope("knows");
  Scope* learns = MakeScope("learns");
  knows->SetDelayMs(100);
  learns->SetDelayMs(100);
  SignalId known = knows->AddSignal({.name = "sig", .source = BufferSource{}});
  ASSERT_TRUE(router.AddScope(knows));
  ASSERT_TRUE(router.AddScope(learns));

  router.Append("sig", 10, 5.0);
  router.Flush();
  // The scope that learns the signal within the delay window still gets the
  // sample through the drain-time pending-name resolution.
  SignalId learned = learns->AddSignal({.name = "sig", .source = BufferSource{}});
  ASSERT_NE(learned, 0);

  clock_.AdvanceMs(150);
  knows->TickOnce();
  learns->TickOnce();
  EXPECT_DOUBLE_EQ(knows->LatestValue(known).value_or(-1), 5.0);
  EXPECT_DOUBLE_EQ(learns->LatestValue(learned).value_or(-1), 5.0);
}

TEST_F(IngestRouterTest, AutoCreateOffUnknownEverywhereDoesNotGrowRouteTable) {
  IngestRouter router({.auto_create_signals = false});
  Scope* a = MakeScope("a");
  ASSERT_TRUE(router.AddScope(a));
  for (int i = 0; i < 100; ++i) {
    router.Append("unknown_" + std::to_string(i), 0, 1.0);
  }
  router.Flush();
  EXPECT_EQ(router.route_count(), 0u);
  EXPECT_EQ(a->signal_count(), 0u);
}

TEST_F(IngestRouterTest, WholeLateBatchDroppedInO1PerScope) {
  IngestRouter router;
  Scope* a = MakeScope("a");
  ASSERT_TRUE(router.AddScope(a));
  clock_.AdvanceMs(1000);
  a->TickOnce();  // scope time is now ~1000ms

  router.Append("sig", 0, 1.0);  // stamped far in the past, delay 0
  router.Append("sig", 1, 2.0);
  EXPECT_EQ(router.Flush().dropped_late, 2);
  EXPECT_EQ(a->ingest_span_stats().dropped_late, 2);
  EXPECT_EQ(a->pending_ingest_samples(), 0u);
}

TEST_F(IngestRouterTest, StraddlingBatchSplitsPerSample) {
  IngestRouter router;
  Scope* a = MakeScope("a");
  ASSERT_TRUE(router.AddScope(a));
  clock_.AdvanceMs(1000);
  a->TickOnce();
  int64_t now = a->NowMs();

  router.Append("sig", now - 500, 1.0);  // late
  router.Append("sig", now + 5, 2.0);    // fresh
  EXPECT_EQ(router.Flush().dropped_late, 1);

  clock_.AdvanceMs(10);
  a->TickOnce();
  EXPECT_DOUBLE_EQ(a->LatestValue(a->FindSignal("sig")).value_or(-1), 2.0);
  EXPECT_EQ(a->counters().buffered_routed, 1);
}

TEST_F(IngestRouterTest, ReorderedStampsRouteNewestValueLast) {
  // UDP datagrams (or multi-client TCP) can interleave stamps out of order
  // within one batch; sample-and-hold must still end on the newest-stamped
  // value, as the ring drain's (time, arrival) sort guaranteed.
  IngestRouter router;
  Scope* a = MakeScope("a");
  ASSERT_TRUE(router.AddScope(a));
  int64_t now = a->NowMs();
  router.Append("sig", now + 10, 2.0);  // newer stamp arrives first
  router.Append("sig", now + 5, 1.0);   // older stamp second
  router.Flush();
  clock_.AdvanceMs(20);
  a->TickOnce();
  EXPECT_DOUBLE_EQ(a->LatestValue(a->FindSignal("sig")).value_or(-1), 2.0);
  EXPECT_EQ(a->counters().buffered_routed, 2);
}

TEST_F(IngestRouterTest, ScopeAddedMidBatchKeepsTableStrideConsistent) {
  // Regression: a scope attached between Append() and Flush() changes the
  // slot count; the span's table snapshot must be re-synced or slot indexes
  // would read the next route's row (wrong-signal delivery).
  IngestRouter router;
  Scope* a = MakeScope("a");
  ASSERT_TRUE(router.AddScope(a));
  router.Append("r0", 0, 1.0);
  router.Append("r1", 0, 2.0);
  Scope* b = MakeScope("b");
  ASSERT_TRUE(router.AddScope(b));  // mid-batch
  router.Append("r0", 1, 3.0);
  router.Flush();

  clock_.AdvanceMs(5);
  a->TickOnce();
  b->TickOnce();
  EXPECT_DOUBLE_EQ(a->LatestValue(a->FindSignal("r0")).value_or(-1), 3.0);
  EXPECT_DOUBLE_EQ(a->LatestValue(a->FindSignal("r1")).value_or(-1), 2.0);
  // The late joiner shares the batch's block; its r0 resolves through the
  // re-synced table, and nothing lands on a wrong signal.
  EXPECT_DOUBLE_EQ(b->LatestValue(b->FindSignal("r0")).value_or(-1), 3.0);
  EXPECT_EQ(a->counters().buffered_unmatched, 0);
  EXPECT_EQ(b->counters().buffered_unmatched, 0);
}

TEST_F(IngestRouterTest, LateShimServedSamplesAreNotDoubleCounted) {
  // Regression: a late sample delivered to a scope through the name shim
  // must not ALSO be counted late when that scope's span is dropped whole.
  IngestRouter router({.auto_create_signals = false});
  Scope* knows = MakeScope("knows");
  Scope* other = MakeScope("other");
  SignalId known = knows->AddSignal({.name = "sig", .source = BufferSource{}});
  ASSERT_NE(known, 0);
  ASSERT_TRUE(router.AddScope(knows));
  ASSERT_TRUE(router.AddScope(other));
  clock_.AdvanceMs(1000);
  knows->TickOnce();
  other->TickOnce();

  router.Append("sig", 0, 1.0);  // late everywhere (delay 0, scope time ~1s)
  // One drop through the shim (other) + one through the span (knows) = 2;
  // the pre-fix accounting reported 3 for the single tuple.
  EXPECT_EQ(router.Flush().dropped_late, 2);
}

TEST_F(IngestRouterTest, SpanQueueOverflowEvictsOldestSpans) {
  IngestRouter router;
  Scope* a = MakeScope("a", /*buffer_capacity=*/64);
  a->SetDelayMs(1 << 20);  // keep spans queued (far-future display)
  ASSERT_TRUE(router.AddScope(a));
  for (int batch = 0; batch < 8; ++batch) {
    for (int i = 0; i < 32; ++i) {
      router.Append("sig", batch * 32 + i, 1.0);
    }
    router.Flush();
  }
  EXPECT_LE(a->pending_ingest_samples(), 64u);
  EXPECT_EQ(a->ingest_span_stats().dropped_overflow, 8 * 32 - 64);
}

TEST_F(IngestRouterTest, EmptyFlushIsANoOpAndBatchesAreIndependent) {
  IngestRouter router;
  Scope* a = MakeScope("a");
  ASSERT_TRUE(router.AddScope(a));
  EXPECT_EQ(router.Flush().dropped_late, 0);  // nothing appended
  for (int round = 0; round < 10; ++round) {
    router.Append("sig", a->NowMs(), static_cast<double>(round));
    router.Flush();
    EXPECT_EQ(router.pending_batch_samples(), 0u);
    clock_.AdvanceMs(5);
    a->TickOnce();  // drains the span, releasing the block back to the pool
  }
  EXPECT_EQ(a->counters().buffered_routed, 10);
  EXPECT_DOUBLE_EQ(a->LatestValue(a->FindSignal("sig")).value_or(-1), 9.0);
}

// ---- pushes from other threads racing the drain (the TSan target) ---------

TEST_F(IngestRouterTest, FanoutDeliversEverySampleBesideDirectPushes) {
  IngestRouter router;
  constexpr int kScopes = 8;
  constexpr int kBatches = 50;
  constexpr int kPerBatch = 64;
  std::vector<Scope*> targets;
  for (int i = 0; i < kScopes; ++i) {
    Scope* s = MakeScope("s" + std::to_string(i));
    targets.push_back(s);
    ASSERT_TRUE(router.AddScope(s));
  }
  // A concurrent producer thread exercises the thread-safe direct push path
  // against the same scopes while the router hands off spans and the scopes
  // drain.
  std::atomic<bool> stop{false};
  Scope* contended = targets[0];
  SignalId direct = contended->AddSignal({.name = "direct", .source = BufferSource{}});
  std::thread producer([&]() {
    int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      contended->PushBuffered(direct, contended->NowMs() + 1, static_cast<double>(++i));
    }
  });

  for (int batch = 0; batch < kBatches; ++batch) {
    int64_t now = targets[0]->NowMs();
    for (int i = 0; i < kPerBatch; ++i) {
      router.Append("sig", now + 1, static_cast<double>(i));
    }
    EXPECT_EQ(router.Flush().dropped_late, 0);
    clock_.AdvanceMs(5);
    for (Scope* s : targets) {
      s->TickOnce();
    }
  }
  stop.store(true);
  producer.join();
  clock_.AdvanceMs(5);
  for (Scope* s : targets) {
    s->TickOnce();
  }
  for (Scope* s : targets) {
    EXPECT_GE(s->counters().buffered_routed, kBatches * kPerBatch)
        << "scope " << s->name() << " missed fan-out samples";
  }
}

TEST_F(IngestRouterTest, TopologyChangesUnderLoad) {
  IngestRouter router;
  std::vector<Scope*> targets;
  for (int i = 0; i < 6; ++i) {
    targets.push_back(MakeScope("t" + std::to_string(i)));
  }
  for (int round = 0; round < 30; ++round) {
    // Rotate membership: scope (round % 6) leaves, rejoins next round.
    Scope* rotating = targets[static_cast<size_t>(round % 6)];
    for (Scope* s : targets) {
      if (s != rotating) {
        router.AddScope(s);
      }
    }
    router.RemoveScope(rotating);
    int64_t now = targets[0]->NowMs();
    for (int i = 0; i < 32; ++i) {
      router.Append("a", now + 1, 1.0);
      router.Append("b", now + 1, 2.0);
    }
    router.Flush();
    clock_.AdvanceMs(5);
    for (Scope* s : targets) {
      s->TickOnce();
    }
  }
  // Every scope participated in most rounds; all must have routed samples
  // and agree on the final values.
  for (Scope* s : targets) {
    EXPECT_GT(s->counters().buffered_routed, 0);
    EXPECT_DOUBLE_EQ(s->LatestValue(s->FindSignal("a")).value_or(-1), 1.0);
    EXPECT_DOUBLE_EQ(s->LatestValue(s->FindSignal("b")).value_or(-1), 2.0);
  }
}

TEST_F(IngestRouterTest, CrossLoopSpanPushesRaceTheDrain) {
  // With loops > 1 the router is shared: one loop's Flush pushes spans into
  // scopes that tick on another loop.  A second thread plays the ingesting
  // loop; this thread ticks.  The clock stands still, so every sample is on
  // time and displayable as soon as it is queued.
  IngestRouter router;
  router.SetConcurrent(true);
  std::vector<Scope*> targets;
  for (int i = 0; i < 4; ++i) {
    Scope* s = MakeScope("x" + std::to_string(i));
    s->SetConcurrent(true);
    targets.push_back(s);
    ASSERT_TRUE(router.AddScope(s));
  }
  constexpr int kBatches = 200;
  constexpr int kPerBatch = 64;
  std::atomic<bool> done{false};
  int64_t dropped = 0;
  std::thread ingest_loop([&]() {
    double value = 0;
    for (int batch = 0; batch < kBatches; ++batch) {
      int64_t now = targets[0]->NowMs();
      for (int i = 0; i < kPerBatch; ++i) {
        router.Append("sig", now, ++value);
      }
      dropped += router.Flush().dropped_late;
    }
    done.store(true);
  });
  while (!done.load()) {
    for (Scope* s : targets) {
      s->TickOnce();
    }
  }
  ingest_loop.join();
  clock_.AdvanceMs(5);
  for (Scope* s : targets) {
    s->TickOnce();
  }
  EXPECT_EQ(dropped, 0);
  for (Scope* s : targets) {
    EXPECT_EQ(s->counters().buffered_routed, kBatches * kPerBatch)
        << "scope " << s->name() << " missed span samples";
    EXPECT_DOUBLE_EQ(s->LatestValue(s->FindSignal("sig")).value_or(-1), kBatches * kPerBatch);
  }
}

}  // namespace
}  // namespace gscope
