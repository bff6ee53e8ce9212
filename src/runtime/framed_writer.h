// Bounded, frame-preserving write buffer over a MainLoop writability watch.
//
// The server->client egress of the control channel and the StreamClient's
// tuple upload share the same machinery (docs/protocol.md, "Backlog and drop
// semantics"): output is buffered and drained through a non-blocking fd
// watch, the unsent backlog is capped, and overload never tears a frame.
// Bytes already committed are never truncated mid-frame, so the peer can
// never observe a torn line - every overload decision discards complete
// frames only, whichever policy picks the victim.
//
// What happens when a committed frame would push the backlog past the cap is
// an OverflowPolicy:
//
//   kDropNewest (default)  the frame being appended is rolled back WHOLE and
//                          counted (frames_dropped).  The paper's stance:
//                          visualization data is disposable, the app is not.
//   kDropOldest            whole frames are evicted from the backlog HEAD
//                          (oldest first, via a frame-boundary index) until
//                          the new frame fits; a frame the kernel already
//                          consumed part of is never evicted.  Keeps the
//                          newest data on a stalled viewer (frames_evicted).
//   kBlockWithDeadline     the commit waits - poll(2) on the fd, draining as
//                          writability arrives - up to block_deadline_ns,
//                          then falls back to kDropNewest.  Bounds producer
//                          latency instead of sacrificing data first
//                          (block_time_ns accumulates the waits).
//
// Usage per frame:
//   std::string& buf = writer.BeginFrame();
//   AppendTuple(buf, ...);          // append the frame's bytes, no escaping
//   if (!writer.CommitFrame()) ...  // false = dropped (rolled back whole)
//
// The buffer may be filled before a connection exists (Attach later flushes
// it: pre-connect sends queue) and survives Detach(fd-only) via Reset().
// Single-threaded: all calls on the loop thread.  kBlockWithDeadline blocks
// that thread for up to the deadline per overflowing commit.
//
// Write timing: by default every commit arms the writability watch, and the
// loop's next poll writes the backlog.  With deferred writes
// (SetDeferredWrites) commits only queue, and the owner writes them itself
// with Flush() - the stream server flushes each session once at the end of
// a drain, so the drain's echo leaves in one write with no extra loop
// iteration, and the watch is armed only for what the kernel did not take.
#ifndef GSCOPE_RUNTIME_FRAMED_WRITER_H_
#define GSCOPE_RUNTIME_FRAMED_WRITER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "runtime/clock.h"
#include "runtime/event_loop.h"

namespace gscope {

// How a committed frame that would overflow the backlog cap is handled.
enum class OverflowPolicy : uint8_t {
  kDropNewest = 0,
  kDropOldest = 1,
  kBlockWithDeadline = 2,
};

class FramedWriter {
 public:
  struct Stats {
    int64_t frames_committed = 0;
    int64_t frames_dropped = 0;    // newest rolled back whole at the cap
    int64_t frames_evicted = 0;    // oldest evicted whole (kDropOldest)
    int64_t frames_abandoned = 0;  // committed-but-unsent frames lost to Reset
    int64_t bytes_written = 0;
    // Bytes of every frame that was dropped, evicted, or abandoned: with
    // bytes_written and pending_bytes() this balances byte-for-byte against
    // everything ever committed (plus rolled-back newest frames).
    int64_t bytes_dropped = 0;
    // Weighted mirrors of the frame counters.  A frame commits with a
    // weight (CommitFrame's argument, default 1): the number of payload
    // units - tuples - it carries.  Binary wire frames batch many tuples
    // per frame, and these counters are what keep tuple-exact accounting
    // (delivered == sent - evicted - abandoned) alive when the eviction
    // unit is a multi-tuple frame.  For weight-1 frames they equal the
    // frame counters.
    int64_t units_committed = 0;
    int64_t units_dropped = 0;
    int64_t units_evicted = 0;
    int64_t units_abandoned = 0;
    int64_t block_time_ns = 0;     // time spent waiting (kBlockWithDeadline)
    size_t high_water_bytes = 0;   // max unsent backlog ever observed
  };

  // Invoked (once) when a drain hits a hard write error; the writer has
  // already detached from the fd and cleared its backlog.  The owner closes
  // the socket / drops the session.
  using ErrorFn = std::function<void()>;

  // `loop` is not owned.  `max_buffer` caps the unsent byte backlog.
  FramedWriter(MainLoop* loop, size_t max_buffer);
  ~FramedWriter();

  FramedWriter(const FramedWriter&) = delete;
  FramedWriter& operator=(const FramedWriter&) = delete;

  // Selects the overflow policy.  `block_deadline_ns` bounds each
  // kBlockWithDeadline wait; with no fd attached (or a zero deadline) that
  // policy degrades to kDropNewest for the commit in question.  May be
  // changed at any time between frames.
  void SetPolicy(OverflowPolicy policy, Nanos block_deadline_ns = 0);
  OverflowPolicy policy() const { return policy_; }

  // Re-caps the unsent backlog.  Consulted only at commit time, so shrinking
  // below the current backlog simply makes the next commits overflow.
  void SetMaxBuffer(size_t max_buffer) { max_buffer_ = max_buffer == 0 ? 1 : max_buffer; }
  size_t max_buffer() const { return max_buffer_; }

  // Starts draining into `fd` (non-blocking; not owned).  Any bytes already
  // committed while detached are scheduled immediately.
  void Attach(int fd);
  // Stops watching the fd.  Buffered-but-unsent bytes are kept (a later
  // Attach resumes them); use Reset() to also discard them.
  void Detach();
  bool attached() const { return fd_ >= 0; }

  void SetErrorCallback(ErrorFn fn) { on_error_ = std::move(fn); }

  // Deferred writes (header comment): on, CommitFrame no longer arms the
  // writability watch and the owner calls Flush().  Off by default.
  void SetDeferredWrites(bool on) { deferred_ = on; }

  // Writes the committed backlog now, as far as the kernel takes it, and
  // arms the writability watch for the rest.  A hard write error is left to
  // that watch, which surfaces it through the error callback on its own
  // loop iteration: the owner is never torn down inside its own Flush.
  // No-op while detached, while the watch already owns the backlog, or with
  // nothing committed.  Call between frames.
  void Flush();

  // Opens a frame and returns the buffer to append its bytes to.  Only the
  // tail past the returned buffer's current size belongs to the new frame.
  std::string& BeginFrame();
  // Seals the open frame.  If the unsent backlog (including this frame)
  // would exceed max_buffer, the overflow policy runs; when it cannot make
  // room the frame is removed again - whole - and false is returned.  On
  // success schedules the writability watch.  `weight` is the number of
  // payload units (tuples) the frame carries, echoed into the units_*
  // stats when the frame is committed / dropped / evicted / abandoned.
  bool CommitFrame(uint32_t weight = 1);
  // Discards the open frame (error paths).
  void RollbackFrame();

  // Unsent bytes currently queued.
  size_t pending_bytes() const { return buffer_.size() - offset_; }
  const Stats& stats() const { return stats_; }

  // Drops backlog and detaches.  Returns the total WEIGHT of the
  // committed-but-unsent frames discarded (== their count for weight-1
  // frames), counted into frames_abandoned / units_abandoned (partial head
  // bytes of a frame the kernel already consumed count toward the frame
  // they belong to; an open uncommitted frame is not counted).
  size_t Reset();

 private:
  enum class DrainStatus { kDrained, kBlocked, kError };

  bool OnWritable();
  void EnsureWatch();
  // Sends committed bytes in [offset_, limit).  Returns kError on a hard
  // write error WITHOUT cleaning up (callers reset + surface it).
  DrainStatus Drain(size_t limit);
  // End of the committed region (the open frame's bytes are excluded).
  size_t committed_end() const { return frame_open_ ? frame_start_ : buffer_.size(); }
  // Drops frame-index entries for frames the kernel fully consumed.
  void PruneSentFrames();
  // Erases the consumed [0, offset_) prefix once it dominates the buffer.
  void CompactConsumedPrefix();
  // Empties the buffer once every committed byte was sent.
  void ClearSent();
  // kDropOldest: evicts wholly-unsent frames, oldest first, until the
  // backlog (including the still-open frame) fits under the cap or nothing
  // evictable remains.
  void EvictOldestUntilFits();
  // kBlockWithDeadline: polls the fd and drains until the backlog fits or
  // the deadline passes.  Returns false if a hard error reset the writer.
  bool BlockUntilFits();

  MainLoop* loop_;
  size_t max_buffer_;
  OverflowPolicy policy_ = OverflowPolicy::kDropNewest;
  Nanos block_deadline_ns_ = 0;
  int fd_ = -1;
  SourceId watch_ = 0;
  std::string buffer_;
  size_t offset_ = 0;       // bytes already handed to the kernel
  size_t frame_start_ = 0;  // BeginFrame position; npos-like 0 when closed
  bool frame_open_ = false;
  bool deferred_ = false;   // SetDeferredWrites
  // Committed frames not yet fully sent, oldest first: start offset into
  // buffer_ plus the commit weight (tuple count).  Frame i ends where frame
  // i+1 starts; the last committed frame ends at committed_end().  This is
  // what lets kDropOldest evict on exact frame boundaries and Reset() count
  // whole frames with tuple-exact weights.
  struct FrameRec {
    size_t start;
    uint32_t weight;
  };
  std::deque<FrameRec> frame_starts_;
  // The head frame has bytes the kernel already consumed.  Tracked as state
  // (not derived from offsets): the EAGAIN compaction erases the consumed
  // prefix, after which the head frame's remainder starts at offset 0 and
  // would be indistinguishable from a wholly-unsent - evictable - frame.
  bool head_partial_ = false;
  ErrorFn on_error_;
  Stats stats_;
};

}  // namespace gscope

#endif  // GSCOPE_RUNTIME_FRAMED_WRITER_H_
