// Experiment E8 (part): per-sample scope costs and the Section 4.2 ablation
// (aggregation vs. sample-and-hold capture) plus the filter-alpha sweep.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/aggregate.h"
#include "core/filter.h"
#include "core/sample_hold.h"
#include "core/scope.h"
#include "render/scope_view.h"
#include "runtime/clock.h"

namespace {

// One poll tick across N INTEGER signals: the paper's overhead inner loop.
void BM_ScopeTick_IntegerSignals(benchmark::State& state) {
  gscope::SimClock clock;
  gscope::MainLoop loop(&clock);
  gscope::Scope scope(&loop, {.name = "bench", .width = 512});
  int signals = static_cast<int>(state.range(0));
  std::vector<int32_t> values(static_cast<size_t>(signals), 7);
  for (int i = 0; i < signals; ++i) {
    scope.AddSignal({.name = "s" + std::to_string(i), .source = &values[static_cast<size_t>(i)]});
  }
  for (auto _ : state) {
    scope.TickOnce();
    benchmark::DoNotOptimize(scope.counters().samples);
  }
  state.SetItemsProcessed(state.iterations() * signals);
}
BENCHMARK(BM_ScopeTick_IntegerSignals)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

void BM_ScopeTick_FuncSignals(benchmark::State& state) {
  gscope::SimClock clock;
  gscope::MainLoop loop(&clock);
  gscope::Scope scope(&loop, {.name = "bench", .width = 512});
  int signals = static_cast<int>(state.range(0));
  for (int i = 0; i < signals; ++i) {
    scope.AddSignal({.name = "s" + std::to_string(i),
                     .source = gscope::MakeFunc([i]() { return static_cast<double>(i); })});
  }
  for (auto _ : state) {
    scope.TickOnce();
  }
  state.SetItemsProcessed(state.iterations() * signals);
}
BENCHMARK(BM_ScopeTick_FuncSignals)->Arg(8)->Arg(64);

// Filter-alpha ablation: the filter cost is alpha-independent (one multiply-
// add), shown by a flat sweep.
void BM_FilterSweep(benchmark::State& state) {
  double alpha = static_cast<double>(state.range(0)) / 100.0;
  gscope::LowPassFilter filter(alpha);
  double x = 0.0;
  for (auto _ : state) {
    x += 1.0;
    benchmark::DoNotOptimize(filter.Apply(x));
  }
}
BENCHMARK(BM_FilterSweep)->Arg(0)->Arg(25)->Arg(50)->Arg(90);

// Section 4.2 ablation: capturing a burst of events via aggregation (push
// into an EventAggregator, drain once per poll) vs. sample-and-hold (only
// the last event survives the interval).  Aggregation pays per event;
// sample-and-hold pays per update but loses intermediate extremes.
void BM_EventCapture_Aggregation(benchmark::State& state) {
  gscope::EventAggregator agg(gscope::AggregateKind::kMaximum);
  int events_per_poll = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < events_per_poll; ++i) {
      agg.Push(static_cast<double>(i));
    }
    benchmark::DoNotOptimize(agg.Drain(gscope::MillisToNanos(10)));
  }
  state.SetItemsProcessed(state.iterations() * events_per_poll);
}
BENCHMARK(BM_EventCapture_Aggregation)->Arg(1)->Arg(16)->Arg(256);

void BM_EventCapture_SampleAndHold(benchmark::State& state) {
  gscope::SampleAndHold hold;
  int events_per_poll = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < events_per_poll; ++i) {
      hold.Update(static_cast<double>(i));
    }
    benchmark::DoNotOptimize(hold.Read());
  }
  state.SetItemsProcessed(state.iterations() * events_per_poll);
}
BENCHMARK(BM_EventCapture_SampleAndHold)->Arg(1)->Arg(16)->Arg(256);

// Buffered-signal path: one push + one drain tick through the scope's
// ingest queue, on a SimClock advancing 1 ms per iteration.
void BM_BufferedPushDrain(benchmark::State& state) {
  gscope::SimClock clock;
  gscope::MainLoop loop(&clock);
  gscope::Scope scope(&loop, {.name = "bench", .width = 64});
  gscope::SignalId id = scope.AddSignal({.name = "s", .source = gscope::BufferSource{}});
  scope.TickOnce();  // starts scope time
  for (auto _ : state) {
    clock.AdvanceMs(1);
    scope.PushBuffered(id, scope.NowMs(), 1.0);
    scope.TickOnce();
  }
  benchmark::DoNotOptimize(scope.LatestRaw(id));
}
BENCHMARK(BM_BufferedPushDrain);

// Full widget repaint, the display half of the paper's overhead.
void BM_ScopeViewRender(benchmark::State& state) {
  gscope::SimClock clock;
  gscope::MainLoop loop(&clock);
  gscope::Scope scope(&loop, {.name = "bench", .width = 512});
  std::vector<int32_t> values(8, 0);
  for (int i = 0; i < 8; ++i) {
    scope.AddSignal({.name = "s" + std::to_string(i), .source = &values[static_cast<size_t>(i)]});
  }
  for (int tick = 0; tick < 512; ++tick) {
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] = static_cast<int32_t>((tick + 13 * i) % 100);
    }
    scope.TickOnce();
  }
  gscope::Canvas canvas(560, 320);
  gscope::ScopeView view(&scope);
  for (auto _ : state) {
    view.Render(&canvas);
    benchmark::DoNotOptimize(canvas.data().data());
  }
}
BENCHMARK(BM_ScopeViewRender);

}  // namespace
