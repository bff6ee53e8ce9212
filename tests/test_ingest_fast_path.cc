// The zero-allocation ingest pipeline: the Scope id fast path and batch
// push, Scope name interning, id/name-shim equivalence, and the router's
// steady-state fan-out.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/ingest_router.h"
#include "core/scope.h"
#include "net/frame_codec.h"
#include "runtime/clock.h"

// Global allocation counter for the steady-state zero-allocation assertions.
// Only deltas inside tight measurement windows are inspected.
namespace {
std::atomic<int64_t> g_heap_allocs{0};

void* CountedAlloc(size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(size_t n) { return CountedAlloc(n); }
void* operator new[](size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace gscope {
namespace {

// ---- Scope id fast path vs name shim ---------------------------------------

class ScopeIngestTest : public ::testing::Test {
 protected:
  ScopeIngestTest() : loop_(&clock_), scope_(&loop_, {.name = "ingest", .width = 64}) {
    scope_.SetPollingMode(10);
  }

  SimClock clock_;
  MainLoop loop_;
  Scope scope_;
};

TEST_F(ScopeIngestTest, IdFastPathEquivalentToNameShim) {
  SignalId by_id = scope_.AddSignal({.name = "by_id", .source = BufferSource{}});
  SignalId by_name = scope_.AddSignal({.name = "by_name", .source = BufferSource{}});
  scope_.StartPolling();
  int64_t now = scope_.NowMs();
  for (int i = 1; i <= 5; ++i) {
    EXPECT_TRUE(scope_.PushBuffered(by_id, now + i, static_cast<double>(i)));
    EXPECT_TRUE(scope_.PushBuffered("by_name", now + i, static_cast<double>(i)));
  }
  loop_.RunForMs(50);
  EXPECT_DOUBLE_EQ(scope_.LatestValue(by_id).value_or(-1), 5.0);
  EXPECT_DOUBLE_EQ(scope_.LatestValue(by_name).value_or(-1), 5.0);
  EXPECT_EQ(scope_.counters().buffered_routed, 10);
  EXPECT_EQ(scope_.TraceFor(by_id)->size(), scope_.TraceFor(by_name)->size());
}

TEST_F(ScopeIngestTest, IdZeroCountsUnmatched) {
  scope_.AddSignal({.name = "ev", .source = BufferSource{}});
  scope_.StartPolling();
  EXPECT_TRUE(scope_.PushBuffered(SignalId{0}, scope_.NowMs(), 1.0));
  loop_.RunForMs(50);
  EXPECT_GE(scope_.counters().buffered_unmatched, 1);
  EXPECT_EQ(scope_.counters().buffered_routed, 0);
}

TEST_F(ScopeIngestTest, StaleIdAfterRemovalCountsUnmatched) {
  SignalId id = scope_.AddSignal({.name = "gone", .source = BufferSource{}});
  scope_.StartPolling();
  EXPECT_TRUE(scope_.RemoveSignal(id));
  EXPECT_TRUE(scope_.PushBuffered(id, scope_.NowMs(), 1.0));
  loop_.RunForMs(50);
  EXPECT_GE(scope_.counters().buffered_unmatched, 1);
}

TEST_F(ScopeIngestTest, NamePushedBeforeSignalExistsResolvesAtDrain) {
  // Drain-time resolution: a sample pushed before its signal is added must
  // still route if the signal appears within the display delay window.
  scope_.SetDelayMs(100);
  scope_.StartPolling();
  EXPECT_TRUE(scope_.PushBuffered("early", scope_.NowMs(), 5.0));
  SignalId id = scope_.AddSignal({.name = "early", .source = BufferSource{}});
  ASSERT_NE(id, 0);
  loop_.RunForMs(200);
  EXPECT_DOUBLE_EQ(scope_.LatestValue(id).value_or(-1), 5.0);
  EXPECT_EQ(scope_.counters().buffered_routed, 1);
  EXPECT_EQ(scope_.counters().buffered_unmatched, 0);
}

TEST_F(ScopeIngestTest, UnknownNameNeverAddedCountsUnmatched) {
  scope_.StartPolling();
  EXPECT_TRUE(scope_.PushBuffered("never", scope_.NowMs(), 1.0));
  loop_.RunForMs(50);
  EXPECT_GE(scope_.counters().buffered_unmatched, 1);
}

TEST_F(ScopeIngestTest, FindOrAddBufferSignalIsIdempotent) {
  SignalId a = scope_.FindOrAddBufferSignal("auto");
  ASSERT_NE(a, 0);
  EXPECT_EQ(scope_.FindOrAddBufferSignal("auto"), a);
  EXPECT_EQ(scope_.FindSignal("auto"), a);
  EXPECT_EQ(scope_.SpecFor(a)->type(), SignalType::kBuffer);
  EXPECT_EQ(scope_.FindOrAddBufferSignal(""), 0);
}

TEST_F(ScopeIngestTest, SignalsEpochBumpsOnAddAndRemove) {
  uint64_t e0 = scope_.signals_epoch();
  SignalId id = scope_.AddSignal({.name = "e", .source = BufferSource{}});
  uint64_t e1 = scope_.signals_epoch();
  EXPECT_GT(e1, e0);
  scope_.RemoveSignal(id);
  EXPECT_GT(scope_.signals_epoch(), e1);
}

TEST_F(ScopeIngestTest, PushBufferedBatchRoutesAndCountsLate) {
  SignalId id = scope_.AddSignal({.name = "batched", .source = BufferSource{}});
  scope_.StartPolling();
  loop_.RunForMs(100);
  scope_.SetDelayMs(0);
  int64_t now = scope_.NowMs();
  std::vector<Sample> batch = {
      {now, 1.0, static_cast<SampleKey>(id)},
      {now - 1000, 9.0, static_cast<SampleKey>(id)},  // late
      {now, 2.0, static_cast<SampleKey>(id)},
  };
  EXPECT_EQ(scope_.PushBufferedBatch(batch.data(), batch.size()), 2u);
  loop_.RunForMs(50);
  EXPECT_DOUBLE_EQ(scope_.LatestValue(id).value_or(-1), 2.0);
  EXPECT_EQ(scope_.counters().buffered_routed, 2);
}

TEST_F(ScopeIngestTest, SteadyStateIdPathDoesNotAllocate) {
  SignalId id = scope_.AddSignal({.name = "hot", .source = BufferSource{}});
  scope_.StartPolling();
  // Warm up: grow the drain scratch and the staging block pool.
  for (int round = 0; round < 5; ++round) {
    int64_t now = scope_.NowMs();
    for (int i = 0; i < 256; ++i) {
      scope_.PushBuffered(id, now, static_cast<double>(i));
    }
    scope_.TickOnce();
  }

  int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < 20; ++round) {
    int64_t now = scope_.NowMs();
    for (int i = 0; i < 256; ++i) {
      scope_.PushBuffered(id, now, static_cast<double>(i));
    }
    scope_.TickOnce();
  }
  int64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "steady-state id-path ingest must not allocate";
}

TEST_F(ScopeIngestTest, MultiScopeSteadyStateFanoutDoesNotAllocate) {
  // The span fan-out: one router feeding 4 scopes.  After warm-up (route
  // table built, block pool and span queues at capacity), a steady stream of
  // append -> flush -> drain cycles must not allocate, regardless of how
  // many scopes subscribe.
  IngestRouter router;
  constexpr int kScopes = 4;
  std::vector<std::unique_ptr<Scope>> scopes;
  for (int i = 0; i < kScopes; ++i) {
    scopes.push_back(std::make_unique<Scope>(
        &loop_, ScopeOptions{.name = "fan" + std::to_string(i), .width = 64}));
    scopes.back()->SetPollingMode(10);
    scopes.back()->StartPolling();
    ASSERT_TRUE(router.AddScope(scopes.back().get()));
  }
  auto round = [&]() {
    int64_t now = scopes[0]->NowMs();
    for (int i = 0; i < 256; ++i) {
      router.Append("hot", now, static_cast<double>(i));
    }
    router.Flush();
    clock_.AdvanceMs(5);
    for (auto& scope : scopes) {
      scope->TickOnce();
    }
  };
  for (int warm = 0; warm < 5; ++warm) {
    round();
  }

  int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int r = 0; r < 20; ++r) {
    round();
  }
  int64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "steady-state multi-scope fan-out must not allocate";
  for (auto& scope : scopes) {
    // All samples attributed; with no every-sample consumer attached the
    // drain folded each 256-sample span to one hold write (255 coalesced).
    EXPECT_EQ(scope->counters().buffered_routed, 25 * 256);
    EXPECT_EQ(scope->counters().samples_coalesced, 25 * 255);
    EXPECT_EQ(scope->counters().samples_retained, 0);
  }
}

TEST_F(ScopeIngestTest, SteadyStateCoalescedHistoryMixDoesNotAllocate) {
  // The coalesced drain with a history signal in the same span: the fold
  // handles the display-only route, the per-sample walk feeds the sink, and
  // neither allocates in steady state.
  IngestRouter router;
  Scope sink_scope(&loop_, ScopeOptions{.name = "mix", .width = 64});
  sink_scope.SetPollingMode(10);
  sink_scope.StartPolling();
  ASSERT_TRUE(router.AddScope(&sink_scope));
  SignalId hist = sink_scope.FindOrAddBufferSignal("hist");
  int64_t seen = 0;
  int64_t* seen_ptr = &seen;  // pointer capture: fits std::function's SBO
  ASSERT_NE(sink_scope.AttachSampleSink(hist, [seen_ptr](int64_t, double) { ++*seen_ptr; }),
            0u);
  auto round = [&]() {
    int64_t now = sink_scope.NowMs();
    for (int i = 0; i < 128; ++i) {
      router.Append("hist", now, static_cast<double>(i));
      router.Append("disp", now, static_cast<double>(i));
    }
    router.Flush();
    clock_.AdvanceMs(5);
    sink_scope.TickOnce();
  };
  for (int warm = 0; warm < 5; ++warm) {
    round();
  }

  int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int r = 0; r < 20; ++r) {
    round();
  }
  int64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "steady-state coalesced drain must not allocate";
  EXPECT_EQ(seen, 25 * 128);
  EXPECT_EQ(sink_scope.counters().samples_retained, 25 * 128);
  EXPECT_EQ(sink_scope.counters().samples_coalesced, 25 * 127);
}

TEST_F(ScopeIngestTest, SteadyStateBatchPathDoesNotAllocate) {
  SignalId id = scope_.AddSignal({.name = "hot", .source = BufferSource{}});
  scope_.StartPolling();
  std::vector<Sample> batch(256);
  auto fill = [&batch, id](int64_t now) {
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i] = Sample{now, static_cast<double>(i), static_cast<SampleKey>(id)};
    }
  };
  for (int round = 0; round < 5; ++round) {
    fill(scope_.NowMs());
    scope_.PushBufferedBatch(batch.data(), batch.size());
    scope_.TickOnce();
  }

  int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < 20; ++round) {
    fill(scope_.NowMs());
    scope_.PushBufferedBatch(batch.data(), batch.size());
    scope_.TickOnce();
  }
  int64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "steady-state batch ingest must not allocate";
}

// ---- Binary wire codec steady state -----------------------------------------

TEST(WireCodecFastPathTest, SteadyStateEncodeDecodeDoesNotAllocate) {
  // The binary upload path's per-tuple cost claim rests on both ends reusing
  // their buffers: once every name is interned (encoder) and the side buffer
  // has grown to a frame (decoder), a continuous stream of stage -> emit ->
  // consume cycles - including frames split across reads - must not touch
  // the heap.
  wire::WireEncoder encoder;
  wire::FrameDecoder decoder;
  struct CountingHandler {
    int64_t samples = 0;
    int64_t dict = 0;
    void OnDictEntry(uint32_t, std::string_view) { ++dict; }
    void OnSampleBatch(int64_t, const char*, size_t n) { samples += n; }
    void OnTextLine(std::string_view) {}
  };
  CountingHandler handler;
  std::string out;
  auto round = [&]() {
    out.clear();
    for (int i = 0; i < 256; ++i) {
      const char* name = (i & 1) != 0 ? "wire_hot_a" : "wire_hot_b";
      if (encoder.Add(name, 1000 + i, i * 0.5) != wire::StageResult::kStaged) {
        ADD_FAILURE() << "unexpected stage result";
      }
      if (encoder.staged_samples() >= 128) {
        encoder.EmitFrame(out);
      }
    }
    encoder.EmitFrame(out);
    // Split every frame across two reads so the decoder's buffered path
    // (assign + erase) stays on the measured fast path too.
    size_t half = out.size() / 2;
    decoder.Consume(out.data(), half, handler);
    decoder.Consume(out.data() + half, out.size() - half, handler);
  };
  for (int warm = 0; warm < 5; ++warm) {
    round();
  }

  int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int r = 0; r < 20; ++r) {
    round();
  }
  int64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "steady-state wire encode/decode must not allocate";
  EXPECT_EQ(handler.samples, 25 * 256);
  EXPECT_EQ(decoder.stats().crc_errors, 0);
  EXPECT_EQ(decoder.stats().frames_rx, 25 * 2);
}

}  // namespace
}  // namespace gscope
