// Isolated layer costs for the traced run: the workload's own bytes and
// tuples re-driven through one gscope layer at a time, on one thread, with
// nothing else running.  Where a layer is off the workload's path its cost
// reads 0.
#ifndef E2EBENCH_ISOLATED_H_
#define E2EBENCH_ISOLATED_H_

#include <string>
#include <vector>

#include "schedule.h"

namespace e2ebench {

struct IsolatedCosts {
  double parse_ns = 0;   // LineFramer + ParseTupleView, per tuple (text ingest)
  double decode_ns = 0;  // wire::FrameDecoder, per tuple (binary ingest)
  double route_ns = 0;   // IngestRouter::Append + Flush, per tuple
  double append_ns = 0;  // ExtentLog::Append, per sample (recording workloads)
};

// `session_globs` are the viewers' subscriptions, in WorkloadSpec::viewers
// order; `work_dir` holds the scratch extent log (removed again).
IsolatedCosts MeasureIsolated(const WorkloadSpec& spec, const Population& pop,
                              const std::vector<ProducerSchedule>& schedules,
                              const std::vector<std::vector<std::string>>& session_globs,
                              const std::string& work_dir);

}  // namespace e2ebench

#endif  // E2EBENCH_ISOLATED_H_
