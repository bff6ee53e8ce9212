// Unit tests of FramedWriter's overflow policies at exact frame-boundary
// granularity, over pipes with pinned kernel capacity (F_SETPIPE_SZ) so
// partial drains land mid-frame deterministically.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>

#include "runtime/clock.h"
#include "runtime/event_loop.h"
#include "runtime/framed_writer.h"

namespace gscope {
namespace {

class FramedWriterTest : public ::testing::Test {
 protected:
  void MakePipe(int capacity = 4096) {
    if (rfd_ >= 0) close(rfd_);
    if (wfd_ >= 0) close(wfd_);
    int fds[2];
    ASSERT_EQ(pipe2(fds, O_NONBLOCK | O_CLOEXEC), 0);
    rfd_ = fds[0];
    wfd_ = fds[1];
    ASSERT_GT(fcntl(wfd_, F_SETPIPE_SZ, capacity), 0);
  }

  void TearDown() override {
    if (rfd_ >= 0) close(rfd_);
    if (wfd_ >= 0) close(wfd_);
  }

  // Appends and commits one frame of `len` bytes filled with `fill`.
  static bool CommitFilled(FramedWriter& writer, size_t len, char fill) {
    std::string& buf = writer.BeginFrame();
    buf.append(len - 1, fill);
    buf.push_back('\n');
    return writer.CommitFrame();
  }

  // Drains the writer through the loop while collecting pipe output.
  std::string DrainAll(MainLoop& loop, FramedWriter& writer) {
    std::string received;
    char buf[4096];
    Nanos deadline = SteadyClock::Instance()->NowNs() + MillisToNanos(2000);
    while (SteadyClock::Instance()->NowNs() < deadline) {
      loop.RunForMs(1);
      ssize_t n;
      while ((n = read(rfd_, buf, sizeof(buf))) > 0) {
        received.append(buf, static_cast<size_t>(n));
      }
      if (writer.pending_bytes() == 0) {
        break;
      }
    }
    return received;
  }

  int rfd_ = -1;
  int wfd_ = -1;
};

TEST_F(FramedWriterTest, DropNewestCountsBytesAndHighWater) {
  MainLoop loop;
  FramedWriter writer(&loop, /*max_buffer=*/100);  // default kDropNewest
  EXPECT_TRUE(CommitFilled(writer, 40, 'a'));
  EXPECT_TRUE(CommitFilled(writer, 40, 'b'));
  EXPECT_FALSE(CommitFilled(writer, 40, 'c'));  // 120 > 100: newest dropped
  EXPECT_TRUE(CommitFilled(writer, 20, 'd'));   // exactly at the cap
  const FramedWriter::Stats& s = writer.stats();
  EXPECT_EQ(s.frames_committed, 3);
  EXPECT_EQ(s.frames_dropped, 1);
  EXPECT_EQ(s.frames_evicted, 0);
  EXPECT_EQ(s.bytes_dropped, 40);
  EXPECT_EQ(s.high_water_bytes, 100u);
  EXPECT_EQ(writer.pending_bytes(), 100u);

  MakePipe();
  writer.Attach(wfd_);
  std::string received = DrainAll(loop, writer);
  // Survivors only, whole and in order.
  ASSERT_EQ(received.size(), 100u);
  EXPECT_EQ(received.find('c'), std::string::npos);
  EXPECT_EQ(received[0], 'a');
  EXPECT_EQ(received[40], 'b');
  EXPECT_EQ(received[80], 'd');
  EXPECT_EQ(writer.stats().bytes_written, 100);
}

TEST_F(FramedWriterTest, DropOldestEvictsWholeFramesFromTheHead) {
  MainLoop loop;
  FramedWriter writer(&loop, /*max_buffer=*/100);
  writer.SetPolicy(OverflowPolicy::kDropOldest);
  // 10 frames of 20 bytes against a 100-byte cap: every commit succeeds,
  // the oldest five are evicted whole.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(CommitFilled(writer, 20, static_cast<char>('0' + i)));
  }
  const FramedWriter::Stats& s = writer.stats();
  EXPECT_EQ(s.frames_committed, 10);
  EXPECT_EQ(s.frames_dropped, 0);
  EXPECT_EQ(s.frames_evicted, 5);
  EXPECT_EQ(s.bytes_dropped, 100);
  EXPECT_EQ(writer.pending_bytes(), 100u);

  MakePipe();
  writer.Attach(wfd_);
  std::string received = DrainAll(loop, writer);
  ASSERT_EQ(received.size(), 100u);
  for (int i = 0; i < 5; ++i) {  // newest five, in order, whole
    EXPECT_EQ(received[static_cast<size_t>(i) * 20], static_cast<char>('5' + i));
  }
}

TEST_F(FramedWriterTest, DropOldestOversizedFrameDoesNotWipeTheQueue) {
  // A frame that exceeds the cap on its own can never fit; evicting the
  // backlog for it would lose everything AND the frame.  It must be
  // dropped alone, with the queue intact.
  MainLoop loop;
  FramedWriter writer(&loop, /*max_buffer=*/100);
  writer.SetPolicy(OverflowPolicy::kDropOldest);
  EXPECT_TRUE(CommitFilled(writer, 30, 'a'));
  EXPECT_TRUE(CommitFilled(writer, 30, 'b'));
  EXPECT_FALSE(CommitFilled(writer, 150, 'X'));  // oversized
  EXPECT_EQ(writer.stats().frames_evicted, 0);
  EXPECT_EQ(writer.stats().frames_dropped, 1);
  EXPECT_EQ(writer.stats().bytes_dropped, 150);
  EXPECT_EQ(writer.pending_bytes(), 60u);  // queue untouched

  MakePipe();
  writer.Attach(wfd_);
  std::string received = DrainAll(loop, writer);
  ASSERT_EQ(received.size(), 60u);
  EXPECT_EQ(received[0], 'a');
  EXPECT_EQ(received[30], 'b');
}

TEST_F(FramedWriterTest, DropOldestNeverEvictsAPartiallySentFrame) {
  MainLoop loop;
  MakePipe(4096);
  FramedWriter writer(&loop, /*max_buffer=*/16384);
  writer.SetPolicy(OverflowPolicy::kDropOldest);
  writer.Attach(wfd_);

  // One 8 KiB frame into a 4 KiB pipe: the kernel consumes roughly half,
  // leaving the write offset mid-frame.
  ASSERT_TRUE(CommitFilled(writer, 8192, 'A'));
  loop.RunForMs(1);
  ASSERT_GT(writer.stats().bytes_written, 0);
  ASSERT_GT(writer.pending_bytes(), 0u);

  // Flood with small frames far past the cap: eviction must make room from
  // the oldest WHOLLY-unsent frames, never by truncating the in-flight one.
  for (int i = 0; i < 400; ++i) {
    std::string& buf = writer.BeginFrame();
    char mark = static_cast<char>('a' + i % 26);
    buf.append(99, mark);
    buf.push_back('\n');
    ASSERT_TRUE(writer.CommitFrame());
  }
  EXPECT_GT(writer.stats().frames_evicted, 0);
  EXPECT_LE(writer.pending_bytes(), 16384u);

  std::string received = DrainAll(loop, writer);
  // The big frame arrived intact - all 8 KiB of 'A's and its newline...
  ASSERT_GT(received.size(), 8192u);
  for (size_t i = 0; i < 8191; ++i) {
    ASSERT_EQ(received[i], 'A') << "torn big frame at byte " << i;
  }
  EXPECT_EQ(received[8191], '\n');
  // ... and everything after it is whole 100-byte frames.
  EXPECT_EQ((received.size() - 8192) % 100, 0u);
  for (size_t off = 8192; off < received.size(); off += 100) {
    EXPECT_EQ(received[off + 99], '\n') << "torn small frame at offset " << off;
  }
}

TEST_F(FramedWriterTest, BlockWithDeadlineWaitsThenFallsBackToDropNewest) {
  MainLoop loop;
  MakePipe(4096);
  // Jam the pipe so nothing can drain.
  std::string junk(4096, 'j');
  ASSERT_EQ(write(wfd_, junk.data(), junk.size()), static_cast<ssize_t>(junk.size()));

  FramedWriter writer(&loop, /*max_buffer=*/150);
  writer.SetPolicy(OverflowPolicy::kBlockWithDeadline, MillisToNanos(60));
  writer.Attach(wfd_);
  ASSERT_TRUE(CommitFilled(writer, 100, 'a'));  // fits; cannot drain (pipe full)

  Nanos before = SteadyClock::Instance()->NowNs();
  EXPECT_FALSE(CommitFilled(writer, 100, 'b'));  // waits ~60 ms, then drops
  Nanos waited = SteadyClock::Instance()->NowNs() - before;
  EXPECT_GE(waited, MillisToNanos(55));
  EXPECT_LT(waited, MillisToNanos(2000));
  EXPECT_GE(writer.stats().block_time_ns, MillisToNanos(55));
  EXPECT_EQ(writer.stats().frames_dropped, 1);
  EXPECT_EQ(writer.pending_bytes(), 100u);  // the committed frame is intact

  // Make room: once the peer reads, a blocking commit succeeds quickly.
  char buf[4096];
  ASSERT_GT(read(rfd_, buf, sizeof(buf)), 0);
  before = SteadyClock::Instance()->NowNs();
  EXPECT_TRUE(CommitFilled(writer, 100, 'c'));  // drains 'a' inside the wait
  EXPECT_LT(SteadyClock::Instance()->NowNs() - before, MillisToNanos(55));
  EXPECT_EQ(writer.stats().frames_committed, 2);
  EXPECT_EQ(writer.stats().frames_dropped, 1);
}

TEST_F(FramedWriterTest, BlockWithoutFdDegradesToDropNewest) {
  MainLoop loop;
  FramedWriter writer(&loop, /*max_buffer=*/50);
  writer.SetPolicy(OverflowPolicy::kBlockWithDeadline, MillisToNanos(500));
  ASSERT_TRUE(CommitFilled(writer, 40, 'a'));
  Nanos before = SteadyClock::Instance()->NowNs();
  EXPECT_FALSE(CommitFilled(writer, 40, 'b'));  // nothing to wait on
  EXPECT_LT(SteadyClock::Instance()->NowNs() - before, MillisToNanos(100));
  EXPECT_EQ(writer.stats().frames_dropped, 1);
}

TEST_F(FramedWriterTest, DeferredWritesLeaveOnFlushAndWatchOnlyTheRest) {
  // The stream server's session writer: commits only queue, Flush writes
  // them in one go, and the writability watch is armed only for what the
  // kernel did not take.
  MainLoop loop;
  MakePipe(4096);
  FramedWriter writer(&loop, /*max_buffer=*/1 << 20);
  writer.SetDeferredWrites(true);
  writer.Attach(wfd_);
  const size_t idle_sources = loop.source_count();
  EXPECT_TRUE(CommitFilled(writer, 100, 'a'));
  EXPECT_TRUE(CommitFilled(writer, 100, 'b'));
  EXPECT_EQ(loop.source_count(), idle_sources);  // no watch armed
  EXPECT_EQ(writer.pending_bytes(), 200u);
  writer.Flush();
  EXPECT_EQ(writer.pending_bytes(), 0u);
  EXPECT_EQ(writer.stats().bytes_written, 200);
  EXPECT_EQ(loop.source_count(), idle_sources);
  char buf[8192];
  EXPECT_EQ(read(rfd_, buf, sizeof(buf)), 200);

  // More than the pipe holds: Flush writes what fits and the watch drains
  // the rest as the reader makes room.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(CommitFilled(writer, 1000, static_cast<char>('c' + i)));
  }
  writer.Flush();
  EXPECT_EQ(writer.stats().bytes_written, 200 + 4096);
  EXPECT_EQ(loop.source_count(), idle_sources + 1);
  std::string received = DrainAll(loop, writer);
  EXPECT_EQ(received.size(), 10000u);
  EXPECT_EQ(writer.pending_bytes(), 0u);
  EXPECT_EQ(loop.source_count(), idle_sources);
}

TEST_F(FramedWriterTest, DeferredFlushLeavesAWriteErrorToTheWatch) {
  // A hard write error inside Flush does not run the error callback there:
  // the watch's own loop iteration surfaces it.
  MainLoop loop;
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0, fds), 0);
  rfd_ = fds[0];
  wfd_ = fds[1];
  FramedWriter writer(&loop, /*max_buffer=*/1 << 20);
  writer.SetDeferredWrites(true);
  writer.Attach(wfd_);
  int errors = 0;
  writer.SetErrorCallback([&]() { ++errors; });
  close(rfd_);  // the peer is gone: writes fail with EPIPE
  rfd_ = -1;
  EXPECT_TRUE(CommitFilled(writer, 100, 'a'));
  writer.Flush();
  EXPECT_EQ(errors, 0);
  loop.RunForMs(5);
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(writer.stats().frames_abandoned, 1);
  EXPECT_FALSE(writer.attached());
}

TEST_F(FramedWriterTest, ResetCountsAbandonedFramesAndBytes) {
  MainLoop loop;
  FramedWriter writer(&loop, /*max_buffer=*/1000);
  EXPECT_TRUE(CommitFilled(writer, 20, 'a'));
  EXPECT_TRUE(CommitFilled(writer, 30, 'b'));
  EXPECT_TRUE(CommitFilled(writer, 40, 'c'));
  EXPECT_EQ(writer.Reset(), 3u);
  const FramedWriter::Stats& s = writer.stats();
  EXPECT_EQ(s.frames_abandoned, 3);
  EXPECT_EQ(s.bytes_dropped, 90);
  EXPECT_EQ(writer.pending_bytes(), 0u);
  // The writer is reusable after Reset.
  EXPECT_TRUE(CommitFilled(writer, 20, 'd'));
  EXPECT_EQ(writer.stats().frames_committed, 4);
}

TEST_F(FramedWriterTest, ByteAccountingBalancesAcrossPolicies) {
  // committed bytes == written + pending, and every lost byte is in
  // bytes_dropped - the balance the stress harness asserts end-to-end.
  for (OverflowPolicy policy : {OverflowPolicy::kDropNewest, OverflowPolicy::kDropOldest}) {
    MainLoop loop;
    MakePipe(4096);
    FramedWriter writer(&loop, /*max_buffer=*/300);
    writer.SetPolicy(policy);
    writer.Attach(wfd_);
    int64_t committed_bytes = 0;
    for (int i = 0; i < 50; ++i) {
      std::string& buf = writer.BeginFrame();
      size_t before = buf.size();
      buf.append(59, static_cast<char>('a' + i % 26));
      buf.push_back('\n');
      size_t len = buf.size() - before;
      if (writer.CommitFrame()) {
        committed_bytes += static_cast<int64_t>(len);
      }
      if (i % 10 == 9) {
        loop.RunForMs(1);
      }
    }
    std::string received = DrainAll(loop, writer);
    const FramedWriter::Stats& s = writer.stats();
    SCOPED_TRACE(static_cast<int>(policy));
    EXPECT_EQ(writer.pending_bytes(), 0u);
    // Evicted frames were committed, then discarded: they are the exact gap
    // between commits and wire bytes.
    EXPECT_EQ(committed_bytes - s.frames_evicted * 60, s.bytes_written);
    EXPECT_EQ(static_cast<int64_t>(received.size()), s.bytes_written);
    EXPECT_EQ(received.size() % 60, 0u);  // whole frames only, ever
    EXPECT_LE(s.high_water_bytes, 300u);
  }
}

}  // namespace
}  // namespace gscope
