#include "isolated.h"

#include <cstdio>
#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>

#include "core/ingest_router.h"
#include "core/scope.h"
#include "core/signal_filter.h"
#include "core/tuple.h"
#include "histogram.h"
#include "net/frame_codec.h"
#include "net/line_framer.h"
#include "record/extent_log.h"
#include "runtime/clock.h"
#include "runtime/event_loop.h"
#include "spans.h"

namespace e2ebench {
namespace {

constexpr size_t kSampleBatches = 128;  // 32768 tuples per pass
constexpr int kPasses = 7;              // one untimed warm pass first
constexpr size_t kChunk = 4096;         // router tuples between drains

struct SampleTuple {
  const std::string* name;
  int64_t stamp_ms;
  double value;
};

// The first timed batches of producer 0, as the producer sends them, with
// stamps relative to the phase start.
std::vector<SampleTuple> Sample(const WorkloadSpec& spec, const Population& pop,
                                const ProducerSchedule& s) {
  std::vector<SampleTuple> out;
  const size_t batches = std::min(kSampleBatches, s.due_ns.size());
  for (size_t b = 0; b < batches; ++b) {
    const int64_t n0 = static_cast<int64_t>(s.signals + b * kBatch);
    for (int64_t n = n0; n < n0 + static_cast<int64_t>(kBatch); ++n) {
      out.push_back(SampleTuple{&pop.names[static_cast<size_t>(n) % s.signals],
                                s.due_ns[b] / 1'000'000, ValueOf(spec.producers, 0, n)});
    }
  }
  return out;
}

// Median, over kPasses passes after one warm pass, of the thread CPU a pass
// reports divided by `items`.
template <typename Pass>
double NsPerItem(size_t items, Pass&& pass) {
  if (items == 0) {
    return 0.0;
  }
  pass();
  std::vector<double> per_item;
  for (int i = 0; i < kPasses; ++i) {
    per_item.push_back(static_cast<double>(pass()) / static_cast<double>(items));
  }
  return Median(per_item);
}

// Results of timed work land here so the compiler cannot drop the work.
volatile double g_keep = 0;

// Thread CPU of `work`.
template <typename Work>
int64_t TimeCpu(Work&& work) {
  const int64_t c0 = ThreadCpuNs();
  g_keep = work();
  return ThreadCpuNs() - c0;
}

double MeasureParse(const std::vector<SampleTuple>& tuples) {
  std::string bytes;
  for (const SampleTuple& t : tuples) {
    gscope::AppendTuple(bytes, t.stamp_ms, t.value, *t.name);
  }
  return NsPerItem(tuples.size(), [&] { return TimeCpu([&] {
    gscope::LineFramer framer(4096);
    int64_t overlong = 0;
    double sum = 0;
    for (size_t off = 0; off < bytes.size(); off += 65536) {
      framer.Consume(bytes.data() + off, std::min<size_t>(65536, bytes.size() - off), &overlong,
                     [&](std::string_view line) {
                       if (std::optional<gscope::TupleView> t = gscope::ParseTupleView(line)) {
                         sum += t->value;
                       }
                     });
    }
    return sum;
  }); });
}

struct DecodeSink {
  double sum = 0;
  void OnDictEntry(uint32_t id, std::string_view name) { sum += id + name.size(); }
  void OnSampleBatch(int64_t base_time_ms, const char* records, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      double v;
      std::memcpy(&v, records + i * gscope::wire::kSampleRecordBytes + 8, sizeof(v));
      sum += v;
    }
    sum += static_cast<double>(base_time_ms);
  }
  void OnTextLine(std::string_view line) { sum += line.size(); }
};

double MeasureDecode(const std::vector<SampleTuple>& tuples) {
  // Framed exactly as StreamClient frames a binary upload: 128 samples.
  std::string bytes;
  gscope::wire::WireEncoder enc;
  for (const SampleTuple& t : tuples) {
    if (enc.Add(*t.name, t.stamp_ms, t.value) == gscope::wire::StageResult::kFrameFull) {
      enc.EmitFrame(bytes);
      enc.Add(*t.name, t.stamp_ms, t.value);
    }
    if (enc.staged_samples() >= 128) {
      enc.EmitFrame(bytes);
    }
  }
  enc.EmitFrame(bytes);
  return NsPerItem(tuples.size(), [&] { return TimeCpu([&] {
    gscope::wire::FrameDecoder decoder;
    DecodeSink sink;
    for (size_t off = 0; off < bytes.size(); off += 65536) {
      decoder.Consume(bytes.data() + off, std::min<size_t>(65536, bytes.size() - off), sink);
    }
    return sink.sum;
  }); });
}

// The router with the scopes the workload registers: the local display
// (coalesced), one every-sample scope per distinct session (two viewers with
// the same subscription and stage share one stage group), and the recorder's
// unfiltered every-sample scope.  Virtual time keeps every tuple on time;
// scopes drain between chunks, outside the timed region.
double MeasureRoute(const WorkloadSpec& spec,
                    const std::vector<std::vector<std::string>>& session_globs,
                    const std::vector<SampleTuple>& tuples) {
  gscope::SimClock clock(1'000'000'000);
  gscope::MainLoop loop(&clock);
  gscope::IngestRouter router(gscope::IngestRouterOptions{
      .auto_create_signals = true, .fanout_shards = 4, .worker_threads = 0});
  std::vector<std::unique_ptr<gscope::Scope>> scopes;
  std::vector<std::unique_ptr<gscope::SignalFilter>> filters;
  auto add_scope = [&](const std::vector<std::string>* globs, bool every_sample, int64_t delay) {
    auto scope = std::make_unique<gscope::Scope>(&loop, gscope::ScopeOptions{});
    scope->SetDelayMs(delay);
    if (scopes.empty()) {
      scope->TickOnce();  // starts scope time
    } else {
      scope->AdoptTimeBase(*scopes.front());
    }
    if (every_sample) {
      scope->SetBufferedTap([](std::string_view, int64_t, double) {},
                            gscope::TapMode::kEverySample);
    }
    gscope::SignalFilter* filter = nullptr;
    if (globs != nullptr) {
      filters.push_back(std::make_unique<gscope::SignalFilter>());
      filter = filters.back().get();
      for (const std::string& g : *globs) {
        filter->Add(g);
      }
    }
    router.AddScope(scope.get(), filter);
    scopes.push_back(std::move(scope));
  };
  add_scope(nullptr, false, kDelayMs);
  std::vector<std::vector<std::string>> seen;
  for (size_t i = 0; i < session_globs.size(); ++i) {
    const bool staged = spec.viewers[i].decimate > 1;
    if (staged && std::find(seen.begin(), seen.end(), session_globs[i]) != seen.end()) {
      continue;
    }
    seen.push_back(session_globs[i]);
    add_scope(&session_globs[i], true, kDelayMs);
  }
  if (spec.record) {
    add_scope(nullptr, true, 0);
  }
  return NsPerItem(tuples.size(), [&] {
    int64_t cpu = 0;
    for (size_t begin = 0; begin < tuples.size(); begin += kChunk) {
      const size_t end = std::min(tuples.size(), begin + kChunk);
      // Re-stamp the chunk onto the scopes' current time, keeping spacing.
      const int64_t base = scopes.front()->NowMs() - tuples[begin].stamp_ms;
      const int64_t c0 = ThreadCpuNs();
      for (size_t i = begin; i < end; ++i) {
        router.Append(*tuples[i].name, tuples[i].stamp_ms + base, tuples[i].value);
        if ((i + 1) % kBatch == 0) {
          router.Flush();
        }
      }
      router.Flush();
      cpu += ThreadCpuNs() - c0;
      clock.AdvanceMs(tuples[end - 1].stamp_ms - tuples[begin].stamp_ms + 2 * kDelayMs);
      for (auto& scope : scopes) {
        scope->TickOnce();
      }
    }
    return cpu;  // Append/Flush only; the drains are not the router's
  });
}

double MeasureAppend(const std::vector<SampleTuple>& tuples, const std::string& work_dir) {
  const std::string path = work_dir + "/isolated.log";
  gscope::ExtentLogOptions o;
  o.extent_bytes = kRecordExtentBytes;
  o.max_extents = kRecordMaxExtents;
  o.fsync_policy = gscope::FsyncPolicy::kNone;
  gscope::ExtentLog log(o);
  if (!log.Open(path)) {
    return 0.0;
  }
  double ns = NsPerItem(tuples.size(), [&] { return TimeCpu([&] {
    double n = 0;
    for (const SampleTuple& t : tuples) {
      n += log.Append(*t.name, t.stamp_ms, t.value) ? 1 : 0;
    }
    return n;
  }); });
  log.Close();
  std::remove(path.c_str());
  return ns;
}

}  // namespace

IsolatedCosts MeasureIsolated(const WorkloadSpec& spec, const Population& pop,
                              const std::vector<ProducerSchedule>& schedules,
                              const std::vector<std::vector<std::string>>& session_globs,
                              const std::string& work_dir) {
  IsolatedCosts costs;
  const std::vector<SampleTuple> tuples = Sample(spec, pop, schedules.front());
  if (spec.binary_producers) {
    costs.decode_ns = MeasureDecode(tuples);
  } else {
    costs.parse_ns = MeasureParse(tuples);
  }
  costs.route_ns = MeasureRoute(spec, session_globs, tuples);
  if (spec.record) {
    costs.append_ns = MeasureAppend(tuples, work_dir);
  }
  return costs;
}

}  // namespace e2ebench
