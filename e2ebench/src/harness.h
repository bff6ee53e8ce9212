// The end-to-end benchmark: one process per run holding a producer thread,
// gscope's server loops and a viewer thread, all over loopback TCP.
#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory for this run's recorder logs; must exist, and is
  // emptied (not removed) by the run.
  std::string work_dir;
  // Traced runs write their spans here (empty = keep them in memory only).
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  // False when the run could not be carried out at all (error says why);
  // nothing else is meaningful then.
  bool completed = false;
  std::string error;
  // No delivery was corrupted, duplicated, reordered, unsubscribed, early or
  // outside its replay window, and the display held the schedule's values.
  bool correct = false;
  int64_t attempted = 0;  // deliveries the schedule owed to some consumer
  int64_t failed = 0;     // missing + wrong deliveries, producer drops,
                          // parse errors and late drops
  // Untraced runs: the end-to-end metrics.  Traced runs: the per-layer ones.
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable detail for stderr
};

RunResult RunBenchmark(const RunOptions& options);

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_H_
