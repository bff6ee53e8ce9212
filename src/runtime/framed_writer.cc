#include "runtime/framed_writer.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

// The drain path is a write syscall site like Socket::Write, so it honours
// the same deterministic fault shim - partial writes and connection kills
// injected here are what prove the frame-boundary invariants under overload.
#include "net/fault_injector.h"

namespace gscope {

FramedWriter::FramedWriter(MainLoop* loop, size_t max_buffer)
    : loop_(loop), max_buffer_(max_buffer == 0 ? 1 : max_buffer) {}

FramedWriter::~FramedWriter() { Detach(); }

void FramedWriter::SetPolicy(OverflowPolicy policy, Nanos block_deadline_ns) {
  policy_ = policy;
  block_deadline_ns_ = block_deadline_ns < 0 ? 0 : block_deadline_ns;
}

void FramedWriter::Attach(int fd) {
  if (fd_ == fd) {
    return;
  }
  Detach();
  fd_ = fd;
  if (pending_bytes() > 0) {
    EnsureWatch();
  }
}

void FramedWriter::Detach() {
  if (watch_ != 0) {
    loop_->Remove(watch_);
    watch_ = 0;
  }
  fd_ = -1;
}

size_t FramedWriter::Reset() {
  Detach();
  PruneSentFrames();
  // Committed-but-unsent bytes are lost with their frames; the open frame's
  // uncommitted tail is the caller's rollback, not a loss to account here.
  size_t abandoned_units = 0;
  for (const FrameRec& frame : frame_starts_) {
    abandoned_units += frame.weight;
  }
  size_t end = committed_end();
  if (end > offset_) {
    stats_.bytes_dropped += static_cast<int64_t>(end - offset_);
  }
  stats_.frames_abandoned += static_cast<int64_t>(frame_starts_.size());
  stats_.units_abandoned += static_cast<int64_t>(abandoned_units);
  buffer_.clear();
  offset_ = 0;
  frame_open_ = false;
  frame_start_ = 0;
  frame_starts_.clear();
  head_partial_ = false;
  return abandoned_units;
}

std::string& FramedWriter::BeginFrame() {
  frame_start_ = buffer_.size();
  frame_open_ = true;
  return buffer_;
}

bool FramedWriter::CommitFrame(uint32_t weight) {
  if (!frame_open_) {
    return false;
  }
  size_t frame_len = buffer_.size() - frame_start_;
  if (pending_bytes() > max_buffer_) {
    if (policy_ == OverflowPolicy::kDropOldest) {
      // A frame that exceeds the cap on its own can never fit: evicting the
      // backlog for it would wipe the queue AND drop it - skip straight to
      // the drop-newest fallback.
      if (frame_len <= max_buffer_) {
        EvictOldestUntilFits();
      }
    } else if (policy_ == OverflowPolicy::kBlockWithDeadline) {
      if (!BlockUntilFits()) {
        // Hard write error during the blocking drain.  Settle every piece
        // of writer state BEFORE surfacing the error: the callback is
        // allowed to destroy this writer's owner.  The open frame resolves
        // as dropped (counted here, while Reset - which accounts only the
        // committed region - still sees it as open and excludes its bytes).
        stats_.frames_dropped += 1;
        stats_.units_dropped += weight;
        stats_.bytes_dropped += static_cast<int64_t>(frame_len);
        Reset();
        if (on_error_) {
          on_error_();
        }
        return false;
      }
    }
    if (pending_bytes() > max_buffer_) {
      // Whole-frame rollback: everything before frame_start_ was committed
      // by earlier calls and stays byte-for-byte intact, so a drop can never
      // leave a truncated frame on the wire.
      buffer_.resize(frame_start_);
      frame_open_ = false;
      stats_.frames_dropped += 1;
      stats_.units_dropped += weight;
      stats_.bytes_dropped += static_cast<int64_t>(frame_len);
      return false;
    }
  }
  frame_starts_.push_back(FrameRec{frame_start_, weight});
  frame_open_ = false;
  stats_.frames_committed += 1;
  stats_.units_committed += weight;
  stats_.high_water_bytes = std::max(stats_.high_water_bytes, pending_bytes());
  if (fd_ >= 0 && !deferred_) {
    EnsureWatch();
  }
  return true;
}

void FramedWriter::Flush() {
  if (fd_ < 0 || watch_ != 0 || offset_ >= committed_end()) {
    return;
  }
  DrainStatus status = Drain(committed_end());
  PruneSentFrames();
  if (status == DrainStatus::kDrained) {
    ClearSent();
    return;
  }
  // kBlocked: the watch writes the rest as the kernel makes room.  kError:
  // the watch's next run fails the same write and surfaces the error.
  CompactConsumedPrefix();
  EnsureWatch();
}

void FramedWriter::RollbackFrame() {
  if (frame_open_) {
    buffer_.resize(frame_start_);
    frame_open_ = false;
  }
}

void FramedWriter::PruneSentFrames() {
  while (!frame_starts_.empty()) {
    size_t end = frame_starts_.size() > 1 ? frame_starts_[1].start : committed_end();
    if (end <= offset_) {
      frame_starts_.pop_front();
      head_partial_ = false;  // the partially-sent frame completed
    } else {
      break;
    }
  }
  if (frame_starts_.empty()) {
    head_partial_ = false;
  } else if (frame_starts_.front().start < offset_) {
    // Never cleared here: after the EAGAIN compaction the head's remainder
    // sits at offset 0 and this comparison goes blind, but the frame is
    // still mid-flight until it fully drains (pop above).
    head_partial_ = true;
  }
}

void FramedWriter::EvictOldestUntilFits() {
  // Called from CommitFrame with the new frame still open at the tail: the
  // committed region ends at frame_start_.
  while (pending_bytes() > max_buffer_) {
    PruneSentFrames();
    // The oldest evictable frame is the oldest WHOLLY-unsent one; a frame
    // the kernel already consumed part of must finish (evicting it would
    // tear the stream at the peer).
    size_t idx = head_partial_ ? 1 : 0;
    if (idx >= frame_starts_.size()) {
      return;  // nothing evictable; CommitFrame falls back to drop-newest
    }
    size_t start = frame_starts_[idx].start;
    uint32_t weight = frame_starts_[idx].weight;
    size_t end =
        idx + 1 < frame_starts_.size() ? frame_starts_[idx + 1].start : committed_end();
    size_t len = end - start;
    if (idx == 0 && start == offset_) {
      // The victim sits exactly at the drain point (after a prune the read
      // cursor is always at the head frame's start unless that frame is
      // partial): skip it by advancing the cursor instead of memmoving the
      // whole tail - the steady-state eviction path stays O(1) per frame,
      // with the consumed prefix reclaimed below.
      offset_ = end;
      frame_starts_.pop_front();
    } else {
      buffer_.erase(start, len);
      frame_starts_.erase(frame_starts_.begin() + static_cast<ptrdiff_t>(idx));
      for (size_t i = idx; i < frame_starts_.size(); ++i) {
        frame_starts_[i].start -= len;
      }
      frame_start_ -= len;
    }
    stats_.frames_evicted += 1;
    stats_.units_evicted += weight;
    stats_.bytes_dropped += static_cast<int64_t>(len);
  }
  // A fully-stalled peer never reaches OnWritable's compaction; reclaim the
  // skipped prefix here or the string would grow without bound.
  CompactConsumedPrefix();
}

bool FramedWriter::BlockUntilFits() {
  if (fd_ < 0 || block_deadline_ns_ <= 0) {
    return true;  // nothing to wait on; degrade to drop-newest
  }
  SteadyClock* clock = SteadyClock::Instance();  // waits are real time
  Nanos start = clock->NowNs();
  Nanos deadline = start + block_deadline_ns_;
  while (pending_bytes() > max_buffer_) {
    if (offset_ >= committed_end()) {
      break;  // nothing committed left to drain: the frame alone exceeds the cap
    }
    Nanos now = clock->NowNs();
    if (now >= deadline) {
      break;
    }
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLOUT;
    int timeout_ms =
        static_cast<int>((deadline - now + kNanosPerMilli - 1) / kNanosPerMilli);
    int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if (ready == 0) {
      break;  // deadline elapsed inside poll
    }
    DrainStatus status = Drain(committed_end());
    PruneSentFrames();
    if (status == DrainStatus::kError) {
      // Cleanup (Reset + error callback) belongs to CommitFrame, which
      // must finish its own accounting first.
      stats_.block_time_ns += clock->NowNs() - start;
      return false;
    }
  }
  stats_.block_time_ns += clock->NowNs() - start;
  return true;
}

void FramedWriter::EnsureWatch() {
  if (watch_ != 0 || fd_ < 0) {
    return;
  }
  watch_ = loop_->AddIoWatch(fd_, IoCondition::kOut,
                             [this](int, IoCondition) { return OnWritable(); });
}

FramedWriter::DrainStatus FramedWriter::Drain(size_t limit) {
  while (offset_ < limit) {
    size_t want = limit - offset_;
    ssize_t n;
    if (FaultInjector::Shim(FaultOp::kWrite, fd_, &want)) {
      n = -1;
    } else {
      // MSG_NOSIGNAL: writing to a peer that already reset the connection
      // must surface as EPIPE (the error path drops the session), not raise
      // SIGPIPE and kill the whole process.  Non-socket fds (pipes in tests)
      // fall back to plain write.
      n = ::send(fd_, buffer_.data() + offset_, want, MSG_NOSIGNAL);
      if (n < 0 && errno == ENOTSOCK) {
        n = ::write(fd_, buffer_.data() + offset_, want);
      }
    }
    if (n >= 0) {
      offset_ += static_cast<size_t>(n);
      stats_.bytes_written += n;
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return DrainStatus::kBlocked;
    }
    if (errno == EINTR) {
      continue;
    }
    return DrainStatus::kError;
  }
  return DrainStatus::kDrained;
}

void FramedWriter::CompactConsumedPrefix() {
  // Compact the consumed prefix when it dominates the buffer, so a
  // connection that drains steadily but never fully (offset_ chasing a
  // backlog pinned near the cap, or eviction skipping frames at the drain
  // point) cannot grow the string without bound.  Amortized O(1): each
  // erase moves at most as many bytes as were consumed since the last one.
  // frame_start_ and the frame index are kept coherent whether or not a
  // frame is open.
  if (offset_ >= 4096 && offset_ * 2 >= buffer_.size()) {
    buffer_.erase(0, offset_);
    for (FrameRec& frame : frame_starts_) {
      frame.start = frame.start > offset_ ? frame.start - offset_ : 0;
    }
    frame_start_ = frame_start_ > offset_ ? frame_start_ - offset_ : 0;
    offset_ = 0;
  }
}

bool FramedWriter::OnWritable() {
  DrainStatus status = Drain(buffer_.size());
  PruneSentFrames();
  if (status == DrainStatus::kBlocked) {
    CompactConsumedPrefix();
    return true;  // keep the watch; try again when writable
  }
  if (status == DrainStatus::kError) {
    // Hard error: the connection is gone.  Clean up before surfacing so the
    // callback may destroy this writer's owner.
    watch_ = 0;
    Reset();
    if (on_error_) {
      on_error_();
    }
    return false;
  }
  // Fully drained: compact and drop the watch until more data is committed.
  ClearSent();
  watch_ = 0;
  return false;
}

void FramedWriter::ClearSent() {
  buffer_.clear();
  offset_ = 0;
  frame_start_ = 0;
  frame_starts_.clear();
  head_partial_ = false;
}

}  // namespace gscope
