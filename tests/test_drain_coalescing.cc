// Last-wins drain coalescing (docs/perf.md): display-only signals keep only
// the newest sample per poll tick via the block's per-route summary, while
// every-sample consumers (trigger, trace, aggregate, envelope, export, tap)
// provably observe every sample.  Mode flips ride the route epoch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/aggregate.h"
#include "core/envelope.h"
#include "core/ingest_router.h"
#include "core/scope.h"
#include "core/trigger.h"
#include "core/tuple_io.h"
#include "runtime/clock.h"

namespace gscope {
namespace {

class DrainCoalescingTest : public ::testing::Test {
 protected:
  DrainCoalescingTest() : loop_(&clock_) {}

  Scope* MakeScope(const std::string& name) {
    scopes_.push_back(std::make_unique<Scope>(&loop_, ScopeOptions{.name = name, .width = 64}));
    Scope* scope = scopes_.back().get();
    scope->SetPollingMode(10);
    scope->StartPolling();
    return scope;
  }

  // One append->flush->tick round: `count` samples for `name`, values
  // 0..count-1, all stamped at scope-now so the span is wholly displayable
  // at the tick that follows.
  void Round(IngestRouter& router, const std::string& name, int count) {
    int64_t now = scopes_[0]->NowMs();
    for (int i = 0; i < count; ++i) {
      router.Append(name, now + 1, static_cast<double>(i));
    }
    router.Flush();
    clock_.AdvanceMs(5);
    for (auto& scope : scopes_) {
      scope->TickOnce();
    }
  }

  SimClock clock_;
  MainLoop loop_;
  std::vector<std::unique_ptr<Scope>> scopes_;
};

TEST_F(DrainCoalescingTest, DisplayOnlySignalCoalescesToLastValuePerTick) {
  IngestRouter router;
  Scope* scope = MakeScope("disp");
  ASSERT_TRUE(router.AddScope(scope));

  int64_t now = scope->NowMs();
  for (int i = 0; i < 100; ++i) {
    router.Append("sig", now + 1, static_cast<double>(i));
  }
  router.Flush();
  clock_.AdvanceMs(5);
  scope->TickOnce();

  SignalId id = scope->FindSignal("sig");
  ASSERT_NE(id, 0);
  // Exactly the last value per tick, with the winning sample's timestamp.
  EXPECT_DOUBLE_EQ(scope->LatestValue(id).value_or(-1), 99.0);
  EXPECT_EQ(scope->LatestBufferedTime(id).value_or(-1), now + 1);
  // All 100 samples were attributed; 99 never took the per-sample walk.
  EXPECT_EQ(scope->counters().buffered_routed, 100);
  EXPECT_EQ(scope->counters().samples_coalesced, 99);
  EXPECT_EQ(scope->counters().samples_retained, 0);
}

TEST_F(DrainCoalescingTest, CoalescingPicksNewestStampInUnorderedSpan) {
  IngestRouter router;
  Scope* scope = MakeScope("unordered");
  ASSERT_TRUE(router.AddScope(scope));

  clock_.AdvanceMs(50);
  int64_t now = scope->NowMs();
  // Stamps run backwards (but none late): the winner is the (time,
  // arrival)-max sample, the one a stable sort by time would route last.
  router.Append("sig", now + 1, 1.0);
  router.Append("sig", now + 3, 7.0);  // newest stamp
  router.Append("sig", now + 2, 3.0);
  router.Flush();
  clock_.AdvanceMs(5);
  scope->TickOnce();

  SignalId id = scope->FindSignal("sig");
  EXPECT_DOUBLE_EQ(scope->LatestValue(id).value_or(-1), 7.0);
  EXPECT_EQ(scope->LatestBufferedTime(id).value_or(-1), now + 3);
  EXPECT_EQ(scope->counters().samples_coalesced, 2);
}

TEST_F(DrainCoalescingTest, TriggerAttachedObservesEverySample) {
  IngestRouter router;
  Scope* scope = MakeScope("trig");
  ASSERT_TRUE(router.AddScope(scope));
  SignalId id = scope->FindOrAddBufferSignal("wave");
  ASSERT_NE(id, 0);

  Trigger trigger({.edge = TriggerEdge::kRising, .level = 0.5, .hysteresis = 0.1});
  uint64_t handle = scope->AttachTrigger(id, &trigger);
  ASSERT_NE(handle, 0u);

  // 100-sample square wave: 50 rising edges, every one only visible if the
  // trigger is fed each sample (the coalesced hold would show one edge).
  int64_t now = scope->NowMs();
  for (int i = 0; i < 100; ++i) {
    router.Append("wave", now + 1, i % 2 == 0 ? 0.0 : 1.0);
  }
  router.Flush();
  clock_.AdvanceMs(5);
  scope->TickOnce();

  EXPECT_EQ(trigger.fires(), 50);
  EXPECT_EQ(scope->counters().samples_retained, 100);
  EXPECT_EQ(scope->counters().samples_coalesced, 0);
  EXPECT_DOUBLE_EQ(scope->LatestValue(id).value_or(-1), 1.0);
}

TEST_F(DrainCoalescingTest, AggregateTraceEnvelopeExportLoseNoSamples) {
  IngestRouter router;
  Scope* scope = MakeScope("sinks");
  ASSERT_TRUE(router.AddScope(scope));
  SignalId id = scope->FindOrAddBufferSignal("metric");

  EventAggregator sum(AggregateKind::kSum);
  ASSERT_NE(scope->AttachAggregate(id, &sum), 0u);
  Trace history(256);
  ASSERT_NE(scope->AttachHistoryTrace(id, &history), 0u);
  // Envelope fed through a generic sink (sweep accumulation).
  std::vector<double> sweep_samples;
  ASSERT_NE(scope->AttachSampleSink(id, [&sweep_samples](int64_t, double v) {
    sweep_samples.push_back(v);
  }), 0u);
  std::string path = testing::TempDir() + "/coalesce_export.tup";
  TupleWriter writer;
  ASSERT_TRUE(writer.Open(path));
  ASSERT_NE(scope->AttachExport(id, &writer), 0u);

  constexpr int kSamples = 64;
  double expected_sum = 0;
  int64_t now = scope->NowMs();
  for (int i = 0; i < kSamples; ++i) {
    router.Append("metric", now + 1, static_cast<double>(i));
    expected_sum += i;
  }
  router.Flush();
  clock_.AdvanceMs(5);
  scope->TickOnce();
  writer.Close();

  EXPECT_DOUBLE_EQ(sum.Drain(MillisToNanos(10)), expected_sum);
  EXPECT_EQ(history.size(), static_cast<size_t>(kSamples));
  ASSERT_EQ(sweep_samples.size(), static_cast<size_t>(kSamples));
  Envelope envelope(32);
  envelope.AddSweeps(sweep_samples, {.level = 16.0});
  EXPECT_GT(envelope.sweeps(), 0);

  // Every exported line parses back: no sample was lost on the way to disk.
  std::ifstream in(path);
  std::string line;
  int exported = 0;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') {
      ++exported;
    }
  }
  EXPECT_EQ(exported, kSamples);
  std::remove(path.c_str());

  EXPECT_EQ(scope->counters().samples_retained, kSamples);
  EXPECT_EQ(scope->counters().samples_coalesced, 0);
}

TEST_F(DrainCoalescingTest, MixedSpanCoalescesOnlyDisplayOnlyRoutes) {
  IngestRouter router;
  Scope* scope = MakeScope("mixed");
  ASSERT_TRUE(router.AddScope(scope));
  SignalId hist = scope->FindOrAddBufferSignal("hist");
  scope->FindOrAddBufferSignal("disp");

  std::vector<double> seen;
  ASSERT_NE(scope->AttachSampleSink(hist, [&seen](int64_t, double v) { seen.push_back(v); }),
            0u);

  int64_t now = scope->NowMs();
  for (int i = 0; i < 20; ++i) {
    router.Append("hist", now + 1, static_cast<double>(i));
    router.Append("disp", now + 1, static_cast<double>(100 + i));
  }
  router.Flush();
  clock_.AdvanceMs(5);
  scope->TickOnce();

  // Both routes shared one span: "hist" was walked per sample, "disp" was
  // folded to its newest value.
  ASSERT_EQ(seen.size(), 20u);
  EXPECT_DOUBLE_EQ(seen.front(), 0.0);
  EXPECT_DOUBLE_EQ(seen.back(), 19.0);
  EXPECT_DOUBLE_EQ(scope->LatestValue(scope->FindSignal("disp")).value_or(-1), 119.0);
  EXPECT_EQ(scope->counters().samples_retained, 20);
  EXPECT_EQ(scope->counters().samples_coalesced, 19);
  EXPECT_EQ(scope->counters().buffered_routed, 40);
}

TEST_F(DrainCoalescingTest, HistorySinkObservesUnorderedSpanInTimeOrder) {
  IngestRouter router;
  Scope* scope = MakeScope("sorted");
  ASSERT_TRUE(router.AddScope(scope));
  SignalId id = scope->FindOrAddBufferSignal("sig");
  std::vector<int64_t> seen_times;
  ASSERT_NE(scope->AttachSampleSink(
                id, [&seen_times](int64_t t, double) { seen_times.push_back(t); }),
            0u);

  clock_.AdvanceMs(50);
  int64_t now = scope->NowMs();
  const int64_t stamps[] = {now + 3, now + 5, now + 1, now + 2, now + 4};
  for (int64_t t : stamps) {
    router.Append("sig", t, static_cast<double>(t));
  }
  router.Flush();
  clock_.AdvanceMs(10);
  scope->TickOnce();

  ASSERT_EQ(seen_times.size(), 5u);
  EXPECT_TRUE(std::is_sorted(seen_times.begin(), seen_times.end()));
  EXPECT_EQ(scope->LatestBufferedTime(id).value_or(-1), now + 5);
}

TEST_F(DrainCoalescingTest, AttachDetachFlipsModeAtNextRouteEpoch) {
  IngestRouter router;
  Scope* scope = MakeScope("flip");
  ASSERT_TRUE(router.AddScope(scope));

  // Phase 1: display-only -> coalesced.
  Round(router, "sig", 10);
  EXPECT_EQ(scope->counters().samples_coalesced, 9);
  EXPECT_EQ(scope->counters().samples_retained, 0);

  // Phase 2: attaching a trigger bumps consumers_epoch; the router's next
  // batch rebuilds the table with the history bit set.
  SignalId id = scope->FindSignal("sig");
  Trigger trigger;
  uint64_t epoch_before = router.route_epoch();
  uint64_t handle = scope->AttachTrigger(id, &trigger);
  ASSERT_NE(handle, 0u);
  EXPECT_GT(router.route_epoch(), epoch_before);
  Round(router, "sig", 10);
  EXPECT_EQ(scope->counters().samples_coalesced, 9);   // unchanged
  EXPECT_EQ(scope->counters().samples_retained, 10);

  // Phase 3: detach -> back to the fold at the next epoch.
  EXPECT_TRUE(scope->DetachSampleSink(handle));
  Round(router, "sig", 10);
  EXPECT_EQ(scope->counters().samples_coalesced, 18);
  EXPECT_EQ(scope->counters().samples_retained, 10);  // unchanged
}

TEST_F(DrainCoalescingTest, EverySampleTapKeepsWholeScopeOnHistoryPath) {
  IngestRouter router;
  Scope* scope = MakeScope("tap");
  ASSERT_TRUE(router.AddScope(scope));
  int tap_calls = 0;
  scope->SetBufferedTap(
      [&tap_calls](std::string_view, int64_t, double) { ++tap_calls; });

  Round(router, "sig", 50);
  EXPECT_EQ(tap_calls, 50);  // the remote-session echo contract
  EXPECT_EQ(scope->counters().samples_retained, 50);
  EXPECT_EQ(scope->counters().samples_coalesced, 0);
}

TEST_F(DrainCoalescingTest, CoalescedTapFiresOncePerSignalPerTick) {
  IngestRouter router;
  Scope* scope = MakeScope("ctap");
  ASSERT_TRUE(router.AddScope(scope));
  std::vector<std::pair<std::string, double>> taps;
  scope->SetBufferedTap(
      [&taps](std::string_view name, int64_t, double v) { taps.emplace_back(name, v); },
      TapMode::kCoalesced);

  Round(router, "sig", 50);
  ASSERT_EQ(taps.size(), 1u);  // one winner per signal per tick
  EXPECT_EQ(taps[0].first, "sig");
  EXPECT_DOUBLE_EQ(taps[0].second, 49.0);
  EXPECT_EQ(scope->counters().samples_coalesced, 49);
}

TEST_F(DrainCoalescingTest, CoalescedTapFiresOncePerTickAcrossBatches) {
  // docs/protocol.md COALESCE: the freshest value per signal per display
  // tick, however many batches arrived in between.
  IngestRouter router;
  Scope* scope = MakeScope("ctap2");
  ASSERT_TRUE(router.AddScope(scope));
  int tap_calls = 0;
  double tapped = -1;
  scope->SetBufferedTap(
      [&tap_calls, &tapped](std::string_view, int64_t, double v) {
        ++tap_calls;
        tapped = v;
      },
      TapMode::kCoalesced);

  int64_t now = scope->NowMs();
  for (int batch = 0; batch < 2; ++batch) {
    for (int i = 0; i < 10; ++i) {
      router.Append("sig", now + 1, static_cast<double>(batch * 10 + i));
    }
    router.Flush();
  }
  clock_.AdvanceMs(5);
  scope->TickOnce();

  EXPECT_EQ(tap_calls, 1);
  EXPECT_DOUBLE_EQ(tapped, 19.0);
  EXPECT_EQ(scope->counters().samples_coalesced, 19);
  EXPECT_EQ(scope->counters().buffered_routed, 20);
}

TEST_F(DrainCoalescingTest, StraddlingBatchKeepsPerSignalOrder) {
  // A batch that straddles the late-drop deadline must not let its on-time
  // samples overtake older queued samples of the same signal.
  IngestRouter router;
  Scope* scope = MakeScope("straddle");
  ASSERT_TRUE(router.AddScope(scope));
  scope->SetDelayMs(50);
  std::vector<int64_t> s_times;
  scope->SetBufferedTap([&s_times](std::string_view name, int64_t t, double) {
    if (name == "s") {
      s_times.push_back(t);
    }
  });
  clock_.AdvanceMs(100);
  ASSERT_EQ(scope->NowMs(), 100);

  router.Append("s", 110, 1.0);
  EXPECT_EQ(router.Flush().dropped_late, 0);
  router.Append("t", 40, 2.0);  // 40 + 50 < 100: late
  router.Append("s", 120, 3.0);
  EXPECT_EQ(router.Flush().dropped_late, 1);
  clock_.AdvanceMs(80);
  scope->TickOnce();

  ASSERT_EQ(s_times.size(), 2u);
  EXPECT_EQ(s_times[0], 110);
  EXPECT_EQ(s_times[1], 120);
  EXPECT_EQ(scope->LatestBufferedTime(scope->FindSignal("s")).value_or(-1), 120);
}

TEST_F(DrainCoalescingTest, ModeChangeWithinOneTickEndsOnNewestSample) {
  // The signal's route is folded in the first span and walked in the second
  // (a trigger attached between the two flushes): the folded winner settles
  // before the walked samples, so the hold ends on the newest sample.
  IngestRouter router;
  Scope* scope = MakeScope("flip_mid_tick");
  ASSERT_TRUE(router.AddScope(scope));
  std::vector<double> taps;
  scope->SetBufferedTap([&taps](std::string_view, int64_t, double v) { taps.push_back(v); },
                        TapMode::kCoalesced);
  int64_t now = scope->NowMs();
  for (int i = 0; i < 10; ++i) {
    router.Append("sig", now + 1, static_cast<double>(i));
  }
  router.Flush();
  Trigger trigger;
  ASSERT_NE(scope->AttachTrigger(scope->FindSignal("sig"), &trigger), 0u);
  for (int i = 10; i < 20; ++i) {
    router.Append("sig", now + 1, static_cast<double>(i));
  }
  router.Flush();
  clock_.AdvanceMs(5);
  scope->TickOnce();

  SignalId id = scope->FindSignal("sig");
  EXPECT_DOUBLE_EQ(scope->LatestValue(id).value_or(-1), 19.0);
  EXPECT_EQ(scope->counters().buffered_routed, 20);
  EXPECT_EQ(scope->counters().samples_coalesced, 9);
  EXPECT_EQ(scope->counters().samples_retained, 10);
  // The tap sees the first span's winner, then the walked samples in order.
  ASSERT_EQ(taps.size(), 11u);
  EXPECT_DOUBLE_EQ(taps.front(), 9.0);
  EXPECT_DOUBLE_EQ(taps[1], 10.0);
  EXPECT_DOUBLE_EQ(taps.back(), 19.0);
}

TEST_F(DrainCoalescingTest, RingPathCoalescesDirectPushes) {
  // Direct pushes (PushBuffered, the router's name shim) wait in the same
  // queue as router spans and feed the same per-tick last-wins fold.
  Scope* scope = MakeScope("ring");
  SignalId id = scope->AddSignal({.name = "direct", .source = BufferSource{}});
  ASSERT_NE(id, 0);
  int64_t now = scope->NowMs();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(scope->PushBuffered(id, now + 1, static_cast<double>(i)));
  }
  clock_.AdvanceMs(5);
  scope->TickOnce();
  EXPECT_DOUBLE_EQ(scope->LatestValue(id).value_or(-1), 39.0);
  EXPECT_EQ(scope->LatestBufferedTime(id).value_or(-1), now + 1);
  EXPECT_EQ(scope->counters().buffered_routed, 40);
  EXPECT_EQ(scope->counters().samples_coalesced, 39);

  // With a sink attached direct pushes walk per sample again.
  std::vector<double> seen;
  ASSERT_NE(scope->AttachSampleSink(id, [&seen](int64_t, double v) { seen.push_back(v); }),
            0u);
  now = scope->NowMs();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(scope->PushBuffered(id, now + 1, static_cast<double>(i)));
  }
  clock_.AdvanceMs(5);
  scope->TickOnce();
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(scope->counters().samples_coalesced, 39);  // unchanged
  EXPECT_EQ(scope->counters().samples_retained, 10);   // direct pushes count too
}

TEST_F(DrainCoalescingTest, RemovingSignalDropsItsSinks) {
  Scope* scope = MakeScope("gone");
  SignalId id = scope->AddSignal({.name = "s", .source = BufferSource{}});
  Trigger trigger;
  ASSERT_NE(scope->AttachTrigger(id, &trigger), 0u);
  EXPECT_EQ(scope->sample_sink_count(), 1u);
  uint64_t epoch = scope->consumers_epoch();
  ASSERT_TRUE(scope->RemoveSignal(id));
  EXPECT_EQ(scope->sample_sink_count(), 0u);
  EXPECT_GT(scope->consumers_epoch(), epoch);
}

TEST_F(DrainCoalescingTest, CoalescedAndHistoryScopesBesideConcurrentProducer) {
  // TSan target (scripts/check.sh): the router hands spans to a mix of
  // display-only and history scopes while a producer thread uses the direct
  // push path; drains run on the loop thread.
  IngestRouter router;
  std::vector<Scope*> targets;
  for (int i = 0; i < 4; ++i) {
    targets.push_back(MakeScope("t" + std::to_string(i)));
    ASSERT_TRUE(router.AddScope(targets.back()));
  }
  // Scope 0 takes the history path for "sig"; the rest coalesce.
  SignalId hist_id = targets[0]->FindOrAddBufferSignal("sig");
  std::atomic<int64_t> sink_seen{0};
  ASSERT_NE(targets[0]->AttachSampleSink(
                hist_id, [&sink_seen](int64_t, double) {
                  sink_seen.fetch_add(1, std::memory_order_relaxed);
                }),
            0u);

  std::atomic<bool> stop{false};
  Scope* contended = targets[1];
  SignalId direct = contended->FindOrAddBufferSignal("direct");
  std::thread producer([&]() {
    int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      contended->PushBuffered(direct, contended->NowMs() + 1, static_cast<double>(++i));
    }
  });

  constexpr int kBatches = 50;
  constexpr int kPerBatch = 64;
  for (int batch = 0; batch < kBatches; ++batch) {
    int64_t now = targets[0]->NowMs();
    for (int i = 0; i < kPerBatch; ++i) {
      router.Append("sig", now + 1, static_cast<double>(i));
    }
    router.Flush();
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

  EXPECT_EQ(sink_seen.load(), kBatches * kPerBatch);
  EXPECT_EQ(targets[0]->counters().samples_retained, kBatches * kPerBatch);
  for (size_t i = 2; i < targets.size(); ++i) {
    EXPECT_EQ(targets[i]->counters().samples_coalesced, kBatches * (kPerBatch - 1));
    EXPECT_EQ(targets[i]->counters().buffered_routed, kBatches * kPerBatch);
  }
}

}  // namespace
}  // namespace gscope
