// Time-travel replay: streams a recorded window back through the normal
// ingest path at Nx speed.
//
// The emit callback receives (name, time_ms, value) in recorded time order —
// point it at IngestRouter::Append (or Scope::PushBuffered; both land in the
// scope's one ingest queue) and every downstream consumer (triggers,
// aggregates, FFT, derived stages) runs identically on recorded data,
// because nothing after the emit can tell a replayed sample from a live one
// (the test_scope_playback seam).
//
// Pacing rides the driving loop's Clock: under a SimClock a replay is fully
// deterministic, and RunForMs fast-forwards it; under the real clock
// speed = 2.0 plays a second of recording in half a second.  speed <= 0
// emits the whole window synchronously (burst mode).
#ifndef GSCOPE_RECORD_REPLAYER_H_
#define GSCOPE_RECORD_REPLAYER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "record/extent_log.h"
#include "runtime/event_loop.h"

namespace gscope {

class Replayer {
 public:
  using EmitFn = std::function<void(std::string_view name, int64_t time_ms, double value)>;
  using DoneFn = std::function<void(int64_t emitted)>;

  // Pacing timer granularity (paced mode).
  static constexpr int64_t kTickMs = 5;

  // Opens `path` read-only and scans its extents (no mutation; torn slots
  // are skipped).  May be called while a Recorder still appends to the file.
  bool Load(const std::string& path);
  const ExtentReader& reader() const { return reader_; }

  // Collects [t0, t1] and starts emitting.  speed <= 0: everything is
  // emitted (and `done` runs) before Start returns.  speed > 0: recorded
  // time advances at `speed` x the loop clock from the moment of the call;
  // `done` fires on the loop after the last record.  False when a replay is
  // already active or the window read fails.  `loop` must outlive the
  // replay; Cancel() before destroying either.
  bool Start(MainLoop* loop, int64_t t0, int64_t t1, double speed,
             EmitFn emit, DoneFn done = {});

  // Stops a paced replay without emitting the remainder (no done callback).
  void Cancel();

  bool active() const { return timer_ != 0; }
  // Records emitted by the current/last replay.
  int64_t emitted() const { return emitted_; }

 private:
  bool OnTick();
  void EmitUpTo(int64_t virtual_time_ms);

  ExtentReader reader_;
  std::vector<ReplayRecord> window_;
  size_t next_ = 0;
  int64_t emitted_ = 0;
  int64_t t0_ = 0;
  int64_t t1_ = 0;
  double speed_ = 0.0;
  Nanos start_ns_ = 0;
  MainLoop* loop_ = nullptr;
  SourceId timer_ = 0;
  EmitFn emit_;
  DoneFn done_;
};

}  // namespace gscope

#endif  // GSCOPE_RECORD_REPLAYER_H_
