// Drain-coalescing measurement: scope drain throughput as batch-per-tick
// and scope count vary, for display-only scopes and for history scopes.
// Sample-and-hold (Section 4.2) means that between two polls only the last
// value per signal is displayable, so a display-only drain costs O(live
// signals) per tick — the block's last-wins summary — instead of O(batch)
// per scope.  history attaches an every-sample sink to every signal of
// every scope: that path bypasses the fold by design.  The two arms are
// interleaved in one process (the BENCH_fanout.json methodology).  Every
// run self-checks: each scope ends on the last value per signal, and the
// history sinks observe every sample.
//
// Usage: bench_drain [tuples_per_config] [rounds]
//   (defaults 200000 and 3; smoke runs pass less)
#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <cinttypes>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "gscope.h"

namespace {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

constexpr int kSignals = 8;

struct DrainRunResult {
  int64_t tuples = 0;  // appended (each fans out to every scope)
  double cpu_seconds = 0.0;
  double tuples_per_cpu_sec() const { return cpu_seconds > 0 ? tuples / cpu_seconds : 0; }
};

// One config: `scopes` display targets, kSignals live signals, `batch`
// samples per signal per tick, driven for `ticks` deterministic SimClock
// ticks through one router (drain cost is what varies).
DrainRunResult RunDrain(int num_scopes, int batch, int ticks, bool history) {
  gscope::SimClock clock;
  gscope::MainLoop loop(&clock);
  gscope::IngestRouter router;

  std::vector<std::unique_ptr<gscope::Scope>> scopes;
  for (int i = 0; i < num_scopes; ++i) {
    scopes.push_back(std::make_unique<gscope::Scope>(
        &loop, gscope::ScopeOptions{.name = "sink" + std::to_string(i), .width = 128}));
    scopes.back()->SetPollingMode(5);
    scopes.back()->StartPolling();
    router.AddScope(scopes.back().get());
  }

  std::vector<std::string> names;
  for (int s = 0; s < kSignals; ++s) {
    names.push_back("sig" + std::to_string(s));
  }
  // history = every signal of every scope gets an every-sample sink (the
  // trigger/trace/export shape); its samples must all be delivered.
  int64_t sink_hits = 0;
  int64_t* hits = &sink_hits;
  if (history) {
    for (auto& scope : scopes) {
      for (const std::string& name : names) {
        gscope::SignalId id = scope->FindOrAddBufferSignal(name);
        scope->AttachSampleSink(id, [hits](int64_t, double) { ++*hits; });
      }
    }
  }

  // Warm-up: build routes, pool blocks, grow scratches.
  for (int warm = 0; warm < 3; ++warm) {
    int64_t now = scopes[0]->NowMs();
    for (const std::string& name : names) {
      for (int b = 0; b < batch; ++b) {
        router.Append(name, now, static_cast<double>(b));
      }
    }
    router.Flush();
    clock.AdvanceMs(5);
    for (auto& scope : scopes) {
      scope->TickOnce();
    }
  }

  double cpu_start = ProcessCpuSeconds();
  for (int t = 0; t < ticks; ++t) {
    int64_t now = scopes[0]->NowMs();
    for (const std::string& name : names) {
      for (int b = 0; b < batch; ++b) {
        router.Append(name, now, static_cast<double>(b));
      }
    }
    router.Flush();
    clock.AdvanceMs(5);
    for (auto& scope : scopes) {
      scope->TickOnce();
    }
  }
  DrainRunResult result;
  result.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  result.tuples = static_cast<int64_t>(ticks) * kSignals * batch;

  // Sanity: every scope holds the last value per signal, and history sinks
  // observed every sample (warm-up included).
  for (auto& scope : scopes) {
    for (const std::string& name : names) {
      gscope::SignalId id = scope->FindSignal(name);
      double v = scope->LatestValue(id).value_or(-1);
      if (v != static_cast<double>(batch - 1)) {
        std::fprintf(stderr, "FAIL: %s last value %.1f != %d\n", name.c_str(), v, batch - 1);
        std::exit(1);
      }
    }
  }
  if (history &&
      sink_hits != static_cast<int64_t>(num_scopes) * (ticks + 3) * kSignals * batch) {
    std::fprintf(stderr, "FAIL: history sinks lost samples\n");
    std::exit(1);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  int total = 200'000;
  int rounds = 3;
  if (argc > 1) {
    total = std::atoi(argv[1]);
    if (total <= 0) {
      total = 200'000;
    }
  }
  if (argc > 2) {
    rounds = std::max(1, std::atoi(argv[2]));
  }

  std::printf("Drain coalescing: %d signals, %d tuples per config, best of %d "
              "interleaved rounds\n\n",
              kSignals, total, rounds);
  std::printf("%-7s %-6s %-14s %-14s\n", "scopes", "batch", "disp/cpu-s", "hist/cpu-s");

  for (int num_scopes : {1, 16, 64}) {
    for (int batch : {32, 128, 512}) {
      int ticks = std::max(3, total / (kSignals * batch));
      double best_disp = 0, best_hist = 0;
      for (int r = 0; r < rounds; ++r) {
        best_disp = std::max(best_disp,
                             RunDrain(num_scopes, batch, ticks, false).tuples_per_cpu_sec());
        best_hist = std::max(best_hist,
                             RunDrain(num_scopes, batch, ticks, true).tuples_per_cpu_sec());
      }
      std::printf("%-7d %-6d %-14.0f %-14.0f\n", num_scopes, batch, best_disp, best_hist);
    }
  }
  std::printf("\npaper behaviour: sample-and-hold displays the last value per signal per\n"
              "poll; a display-only drain should cost O(live signals), not O(batch),\n"
              "while every-sample consumers (hist columns) keep the full history path.\n");
  return 0;
}
