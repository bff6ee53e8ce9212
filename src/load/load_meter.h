// The Section 4.6 overhead-measurement methodology.
//
// "To measure overhead, we use a CPU load program that runs in a tight loop
// at a low priority and measures the number of loop iterations it can
// perform at any given period.  The ratio of the iteration count when
// running gscope versus on an idle system gives an estimate of the gscope
// overhead."
//
// BackgroundSpinner is that load program: a nice(19) thread spinning on a
// side-effectful counter.  A bench runs it once against an idle main loop
// (baseline) and once against a polling scope, and reports
// 1 - loaded/baseline as the scope's CPU overhead.
#ifndef GSCOPE_LOAD_LOAD_METER_H_
#define GSCOPE_LOAD_LOAD_METER_H_

#include <atomic>
#include <cstdint>
#include <thread>

#include "runtime/clock.h"

namespace gscope {

struct LoadResult {
  int64_t iterations = 0;
  double seconds = 0.0;

  double IterationsPerSecond() const { return seconds > 0.0 ? iterations / seconds : 0.0; }
};

// Overhead estimate per Section 4.6: the fraction of iterations lost
// relative to the idle baseline.  Negative results (noise) clamp to 0.
double OverheadRatio(const LoadResult& baseline, const LoadResult& loaded);

class BackgroundSpinner {
 public:
  BackgroundSpinner() = default;
  ~BackgroundSpinner();

  BackgroundSpinner(const BackgroundSpinner&) = delete;
  BackgroundSpinner& operator=(const BackgroundSpinner&) = delete;

  // Starts the low-priority spin thread.  No-op if already running.
  void Start();

  // Stops the thread and returns its iteration count and elapsed time.
  LoadResult Stop();

  bool running() const { return thread_.joinable(); }

  // Iterations the running thread has counted so far, published once per
  // batch of spins: 0 until the thread has had some CPU.
  int64_t iterations() const { return iterations_.load(std::memory_order_relaxed); }

 private:
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> iterations_{0};
  Nanos start_ns_ = 0;
  Nanos stop_ns_ = 0;
};

// Convenience: spins on the calling thread for `duration_ns` (calibration).
LoadResult SpinFor(Nanos duration_ns);

}  // namespace gscope

#endif  // GSCOPE_LOAD_LOAD_METER_H_
