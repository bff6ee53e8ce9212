// Flight-recorder capture sink: a Scope consumer that appends every routed
// sample to an ExtentLog, on its own event loop.
//
// The Recorder owns a dedicated Scope.  The caller registers that scope with
// the IngestRouter (AddScope) like any other display target: the router
// hands it O(1) spans, and the scope's every-sample buffered tap (PR 5's
// consumer registry) feeds the log at drain time.  Because needs_history is
// tracked per (scope, slot), the recorder's every-sample tap does NOT
// disable drain coalescing for the serving scopes — capture-while-serving
// leaves BENCH_drain untouched (the acceptance bar of ROADMAP item 3).
//
// Threading: by default Start() spawns a thread running the recorder's own
// MainLoop, so extent assembly, pwrite and fsync all happen off the serving
// loops (the serving loops' router flushes only enqueue spans, which is
// thread-safe).  Tests pass RecorderOptions::loop to drive the scope
// deterministically on an existing loop instead (no thread).
//
// Stats: the log's plain tallies are mirrored into relaxed atomics once per
// poll tick (the CoalesceMirror pattern), so a STATS fold on another loop
// reads them lock-free at most one tick stale.
#ifndef GSCOPE_RECORD_RECORDER_H_
#define GSCOPE_RECORD_RECORDER_H_

#include <memory>
#include <string>
#include <thread>

#include "core/scope.h"
#include "record/extent_log.h"
#include "runtime/event_loop.h"
#include "runtime/relaxed_counter.h"

namespace gscope {

struct RecorderOptions {
  ExtentLogOptions log;
  // Drain granularity of the capture scope.
  int64_t poll_period_ms = 10;
  // Drive the capture scope on this loop instead of a dedicated thread
  // (deterministic embeddings/tests).  Not owned; must outlive the recorder.
  MainLoop* loop = nullptr;
  std::string name = "recorder";
  // Buffer capacity of the capture scope (samples it may hold in flight).
  size_t buffer_capacity = 1 << 16;
};

class Recorder {
 public:
  // Cross-thread mirror of ExtentLog::Stats (+ capture tally), published
  // once per tick.
  struct Stats {
    RelaxedCounter samples_captured;
    RelaxedCounter extents_sealed;
    RelaxedCounter extents_recovered;
    RelaxedCounter extents_truncated;
    RelaxedCounter extents_dropped;
    RelaxedCounter capture_bytes;
    RelaxedCounter seal_failures;
    RelaxedCounter fsync_failures;
    RelaxedCounter degraded_entered;
    RelaxedCounter samples_coalesced;
    RelaxedCounter degraded;  // gauge: 1 while in coalesced capture
  };

  explicit Recorder(RecorderOptions options = {});
  ~Recorder();

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Opens (recovering) the log at `path`, then starts the capture scope —
  // on a fresh thread+loop, or on options.loop when set.  False if the log
  // cannot be opened or the recorder already runs.
  bool Start(const std::string& path);

  // Seals the staged extent and stops.  The caller MUST have unregistered
  // scope() from its router first — Stop does not know the router.  Safe to
  // call twice; also called by the destructor.
  void Stop();

  bool running() const { return running_; }

  // The capture scope, for IngestRouter::AddScope.  Already in concurrent
  // mode; valid between Start and Stop.  Null when not running.
  Scope* scope() const { return scope_.get(); }

  const std::string& path() const { return path_; }
  FsyncPolicy fsync_policy() const { return options_.log.fsync_policy; }
  const Stats& stats() const { return stats_; }

  // Seals the staged extent from the recorder loop (tests: make a window
  // durable without stopping).  Blocks until done on own-thread recorders.
  void FlushNow();

 private:
  void InstallOnLoop();    // loop thread: start polling + the publish timer
  void TeardownOnLoop();   // loop thread: stop polling, final drain + seal
  void PublishTick();      // loop thread: stats mirror + interval fsync

  RecorderOptions options_;
  std::string path_;
  bool running_ = false;

  std::unique_ptr<MainLoop> own_loop_;
  MainLoop* loop_ = nullptr;  // own_loop_.get() or options_.loop
  std::thread thread_;
  std::unique_ptr<Scope> scope_;
  ExtentLog log_;
  SourceId publish_timer_ = 0;

  // Loop-thread-only tallies, mirrored into stats_ by PublishTick.
  int64_t captured_ = 0;

  Stats stats_;
};

}  // namespace gscope

#endif  // GSCOPE_RECORD_RECORDER_H_
