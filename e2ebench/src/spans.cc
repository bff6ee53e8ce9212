#include "spans.h"

#include <ctime>
#include <cinttypes>

namespace e2ebench {

const char* SpanLabel(SpanName name) {
  switch (name) {
    case SpanName::kNone: return "-";
    case SpanName::kProducerBatch: return "producer.batch";
    case SpanName::kClientSend: return "net.stream_client.send";
    case SpanName::kClientFlush: return "net.stream_client.flush";
    case SpanName::kLoopIterate: return "runtime.event_loop.iterate";
    case SpanName::kScopeTick: return "core.scope.tick";
    case SpanName::kViewerIterate: return "net.control_client.iterate";
    case SpanName::kReplayVerb: return "net.control_client.replay";
    case SpanName::kReplayTrip: return "record.replayer.trip";
    case SpanName::kIngestEvent: return "net.stream_server.ingest";
    case SpanName::kReceiptEvent: return "viewer.receipt";
    case SpanName::kCount: break;
  }
  return "?";
}

static int64_t ReadClock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int64_t SteadyNs() { return ReadClock(CLOCK_MONOTONIC); }
int64_t ThreadCpuNs() { return ReadClock(CLOCK_THREAD_CPUTIME_ID); }

void SpanLog::Add(SpanName name, SpanName parent, int64_t id, int64_t start_ns,
                  int64_t end_ns, int64_t cpu_ns) {
  Totals& t = totals_[static_cast<size_t>(name)];
  t.count += 1;
  t.wall_ns += end_ns - start_ns;
  t.cpu_ns += cpu_ns;
  if (kept_.size() < keep_) {
    kept_.push_back(Record{name, parent, id, start_ns, end_ns, cpu_ns});
  }
}

void SpanLog::Write(std::FILE* out, const char* role) const {
  for (const Record& r : kept_) {
    std::fprintf(out, "%s\t%s\t%s\t%" PRId64 "\t%" PRId64 "\t%" PRId64 "\t%" PRId64 "\n", role,
                 SpanLabel(r.name), SpanLabel(r.parent), r.id, r.start_ns, r.end_ns, r.cpu_ns);
  }
}

}  // namespace e2ebench
