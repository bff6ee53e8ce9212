// In-memory spans for the traced run.
//
// Spans are recorded from the benchmark's own code around its calls into
// gscope (no span lives inside the program).  Each thread owns one SpanLog
// and writes it without locks; the log keeps running totals per span name
// for every span and the first `keep` records verbatim, which are written
// out when the run ends.  A span's id is the producer batch index where one
// exists, so a batch can be followed from Send through the server's ingest
// tap to the viewer's receipt.
#ifndef E2EBENCH_SPANS_H_
#define E2EBENCH_SPANS_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace e2ebench {

enum class SpanName : uint8_t {
  kNone,
  kProducerBatch,   // producer thread: one batch, Send calls + flush
  kClientSend,      //   StreamClient::Send x kBatch
  kClientFlush,     //   MainLoop::Iterate of the producer loop
  kLoopIterate,     // main thread: one MainLoop::Iterate of server loop 0
  kScopeTick,       //   Scope::TickOnce of the local display scope
  kViewerIterate,   // viewer thread: one MainLoop::Iterate of the viewer loop
  kReplayVerb,      //   ControlClient::Replay
  kReplayTrip,      // event: Replay issued -> INFO REPLAY DONE
  kIngestEvent,     // event: batch due -> first tuple seen by the ingest tap
  kReceiptEvent,    // event: batch due -> first tuple of it at a viewer
  kCount,
};

const char* SpanLabel(SpanName name);

// Steady clock (the clock gscope's loops run on) and this thread's CPU time.
int64_t SteadyNs();
int64_t ThreadCpuNs();

class SpanLog {
 public:
  struct Totals {
    int64_t count = 0;
    int64_t wall_ns = 0;
    int64_t cpu_ns = 0;
  };

  explicit SpanLog(size_t keep = size_t{1} << 16) : keep_(keep) {}

  void Add(SpanName name, SpanName parent, int64_t id, int64_t start_ns, int64_t end_ns,
           int64_t cpu_ns);
  const Totals& totals(SpanName name) const { return totals_[static_cast<size_t>(name)]; }
  // One tab-separated line per kept span: role, name, parent, id, start,
  // end, cpu (ns).
  void Write(std::FILE* out, const char* role) const;

 private:
  struct Record {
    SpanName name;
    SpanName parent;
    int64_t id;
    int64_t start_ns;
    int64_t end_ns;
    int64_t cpu_ns;
  };
  size_t keep_;
  std::vector<Record> kept_;
  std::array<Totals, static_cast<size_t>(SpanName::kCount)> totals_{};
};

}  // namespace e2ebench

#endif  // E2EBENCH_SPANS_H_
