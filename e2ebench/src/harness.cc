#include "harness.h"

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>

#include "checker.h"
#include "histogram.h"
#include "isolated.h"
#include "net/control_client.h"
#include "net/stream_client.h"
#include "net/stream_server.h"
#include "schedule.h"
#include "spans.h"

namespace e2ebench {
namespace {

using gscope::ControlClient;
using gscope::ControlClientOptions;
using gscope::MainLoop;
using gscope::Scope;
using gscope::ScopeOptions;
using gscope::StreamClient;
using gscope::StreamServer;
using gscope::StreamServerOptions;
using gscope::TimeoutTick;
using gscope::TupleView;
using gscope::WireFormat;

constexpr int64_t kMs = 1'000'000;
constexpr int64_t kReplayWindowMs = 100;
constexpr int64_t kDeclLeadMs = 250;
// Display scope time at which RECORD is sent (see Setup and NOTES.md).
constexpr int64_t kRecordAtMs = 60;
// How far behind the display axis a replayed window ends.  The recorder
// trails that axis by the RECORD instant and drains once per poll, so a
// window ending this long ago has been captured whole (two polls of margin).
constexpr int64_t kReplayLagMs = kRecordAtMs + 2 * kPollMs;
// Set-up steps and the warm-up each get this long before the run fails.
constexpr int64_t kStepTimeoutNs = 10'000 * kMs;
// Quiet tail after the last due batch: covers DELAY + a tick + the ~40 ms
// delayed-ACK stall with room to spare, so every owed delivery has landed.
constexpr int64_t kDrainNs = 400 * kMs;
constexpr double kSegmentSeconds = 3.0;  // about this long per measured segment

// Steady clock that can be held still for an instant, so the local display
// scope's origin - which the scope reads from its loop's clock - is known to
// the nanosecond.  Pinned only while no other thread reads the clock.
class OriginClock final : public gscope::Clock {
 public:
  gscope::Nanos NowNs() override {
    gscope::Nanos pinned = pinned_.load(std::memory_order_relaxed);
    return pinned != 0 ? pinned : SteadyNs();
  }
  void Pin(gscope::Nanos t) { pinned_.store(t, std::memory_order_relaxed); }

 private:
  std::atomic<gscope::Nanos> pinned_{0};
};

class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

struct ReplayRequest {
  int64_t issue_offset_ns = 0;  // after the phase start
};

// Everything derived from (workload, seed, seconds) before timing starts.
struct Plan {
  WorkloadSpec spec;
  double seconds = 0;
  Population pop;
  std::vector<ProducerSchedule> schedules;
  std::vector<std::vector<std::string>> viewer_globs;
  std::vector<ReplayRequest> replays;
};

Plan MakePlan(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  Plan plan;
  plan.spec = spec;
  plan.seconds = seconds;
  plan.pop = MakePopulation(spec, seed);
  plan.schedules = MakeSchedules(spec, seed, seconds);
  Rng rng(seed ^ 0x76696577ull);
  for (const ViewerSpec& v : spec.viewers) {
    std::vector<std::string> globs;
    switch (v.sub) {
      case Subscription::kAll:
        globs.push_back("*");
        break;
      case Subscription::kGroup:
        globs.push_back(plan.pop.GroupPattern(rng.Next() % plan.pop.groups()));
        break;
      case Subscription::kQuarter:
        globs.push_back(Population::QuarterPattern(rng.Next() % 4));
        break;
    }
    plan.viewer_globs.push_back(std::move(globs));
  }
  // Burst REPLAYs, about every 500 ms, of a 100 ms window ending
  // kReplayLagMs ago.  Each burst holds the serving loop for its whole
  // window, and waits for the recorder thread to seal; 250 ms windows held
  // it 17-60 ms on a 4-core VM, past the 50 ms delay budget.
  for (double t = 0.4 + (rng.Uniform() - 0.5) * 0.1; t < seconds - 0.2;
       t += 0.5 + (rng.Uniform() - 0.5) * 0.1) {
    plan.replays.push_back(ReplayRequest{static_cast<int64_t>(t * 1e9)});
  }
  return plan;
}

struct Viewer {
  ViewerSpec spec;
  std::vector<std::string> globs;
  std::unique_ptr<ControlClient> client;
  std::unique_ptr<StreamChecker> live;
  std::unique_ptr<ReplayChecker> replay;  // replaying sessions only
  int64_t acks = 0;
  int64_t acks_needed = 0;
  int64_t errors = 0;
  std::string last_error;
  bool record_ok = false;
  std::string stats_line;
  // Replay state (viewer thread).
  size_t next_replay = 0;
  int64_t pending_t0 = 0;
  int64_t pending_t1 = 0;
  int64_t issued_ns = 0;
  int64_t announced = 0;
  // Traced runs: last batch whose receipt was logged.
  int64_t last_batch_seen = -1;
};

// CPU clocks read at one instant: the whole process, and each thread the
// benchmark itself runs.  The server's CPU is the process minus the
// producer and viewer threads; the main thread drives server loop 0.
struct Reading {
  int64_t wall = 0;
  int64_t process = 0;
  int64_t main = 0;
  int64_t producer = 0;
  int64_t viewer = 0;
};

int64_t ClockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int64_t ThreadClockNs(std::thread& t) {
  clockid_t id;
  if (pthread_getcpuclockid(t.native_handle(), &id) != 0) {
    return 0;
  }
  return ClockNs(id);
}

struct ServerSnap {
  int64_t tuples = 0;
  int64_t parse_errors = 0;
  int64_t dropped_late = 0;
  int64_t frames_rx = 0;
  int64_t crc_errors = 0;
  int64_t stage_evals = 0;
  int64_t derived = 0;
  int64_t echo_dropped = 0;
  int64_t echo_evicted = 0;
  int64_t quota_drops = 0;
};

ServerSnap Snap(const StreamServer& server) {
  const StreamServer::Stats& s = server.stats();
  ServerSnap out;
  out.tuples = s.tuples.load();
  out.parse_errors = s.parse_errors.load();
  out.dropped_late = s.dropped_late.load();
  out.frames_rx = s.frames_rx.load();
  out.crc_errors = s.frames_crc_errors.load();
  out.stage_evals = s.stage_evals.load();
  out.derived = s.tuples_derived.load();
  out.echo_dropped = s.echo_dropped.load();
  out.echo_evicted = s.echo_evicted.load();
  out.quota_drops = s.quota_drops.load();
  return out;
}

// "OK STATS k v k v ..." -> value of `key` (0 when absent).
int64_t StatsValue(std::string_view line, std::string_view key) {
  size_t pos = 0;
  std::string needle = " " + std::string(key) + " ";
  pos = line.find(needle);
  if (pos == std::string_view::npos) {
    return 0;
  }
  return std::strtoll(std::string(line.substr(pos + needle.size(), 24)).c_str(), nullptr, 10);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

void SleepUntil(int64_t t_ns) {
  timespec ts{static_cast<time_t>(t_ns / 1'000'000'000), static_cast<long>(t_ns % 1'000'000'000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

// One complete instance of the system under test: server loop 0 with the
// local display scope, the server, and the producer and viewer connections
// on their own loops.  Set up on the main thread; during the measured phase
// the producer and viewer loops move to their own threads.
class Rig {
 public:
  Rig(const Plan& plan, bool traced, std::string record_path)
      : plan_(plan), traced_(traced), record_path_(std::move(record_path)) {
    ref_ = Reference{&plan_.pop, &plan_.schedules, &axis_};
    loop0_ = std::make_unique<MainLoop>(&clock_);
    producer_loop_ = std::make_unique<MainLoop>();
    viewer_loop_ = std::make_unique<MainLoop>();
    // The paper's configuration: a local display scope with a 10 ms poll and
    // a 50 ms delay, coalesced.  It is ticked by a benchmark timer so the
    // traced run can time each tick; the tick itself is Scope::TickOnce, the
    // same body the scope's own poll timer runs.
    display_ = std::make_unique<Scope>(loop0_.get(), ScopeOptions{.name = "display"});
    display_->SetDelayMs(kDelayMs);
    display_->SetConcurrent(plan_.spec.loops > 1);
    axis_.origin_ns = SteadyNs();
    clock_.Pin(axis_.origin_ns);
    display_->TickOnce();  // scope time 0 = origin_ns exactly
    clock_.Pin(0);
    display_timer_ = loop0_->AddTimeoutMs(
        kPollMs, [this](const TimeoutTick& tick) { return TickDisplay(tick); });
    for (size_t i = 0; i < plan_.spec.viewers.size(); ++i) {
      auto v = std::make_unique<Viewer>();
      v->spec = plan_.spec.viewers[i];
      v->globs = plan_.viewer_globs[i];
      std::vector<bool> filter = SelectSignals(plan_.pop, v->globs);
      v->live = std::make_unique<StreamChecker>(ref_, filter, v->spec.decimate);
      if (v->spec.replays) {
        v->replay = std::make_unique<ReplayChecker>(ref_, filter);
      }
      viewers_.push_back(std::move(v));
    }
  }

  ~Rig() { Close(); }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  // Wall time from constructing the server until every connection is up,
  // in order, and negotiated, every verb is acknowledged and every signal
  // of the population is declared.
  bool Setup(int64_t* setup_ns, std::string* err);
  // Waits until every consumer holds its declaration deliveries.
  bool Warmup(std::string* err);
  // The measured phase: open-loop load for plan.seconds, then the drain.
  bool Measure(std::string* err);
  // Final STATS, server shutdown and the reference checks.
  bool Finish(std::string* err);

  // Results (valid after Finish).
  struct Tally {
    int64_t expected = 0;
    int64_t accepted = 0;
    int64_t wrong = 0;
    int64_t early = 0;
    int64_t producer_drops = 0;
    int64_t server_failed = 0;
    int64_t display_stale = 0;
    int64_t off_phase = 0;
    int64_t reordered = 0;
    int64_t errors = 0;
  };
  const Tally& tally() const { return tally_; }
  bool correct() const {
    return tally_.wrong == 0 && tally_.early == 0 && tally_.errors == 0 && !timed_out_;
  }
  int64_t failed() const {
    // A reordered delivery is owed but not accepted: it fails once, in
    // expected - accepted.  Off-phase outputs were never owed.
    return (tally_.expected - tally_.accepted) + tally_.wrong + tally_.off_phase +
           tally_.producer_drops + tally_.server_failed;
  }
  int64_t timed_tuples() const {
    int64_t n = 0;
    for (const ProducerSchedule& s : plan_.schedules) {
      n += s.total_tuples() - static_cast<int64_t>(s.decl_tuples());
    }
    return n;
  }
  int64_t ingested() const { return std::max<int64_t>(1, snap1_.tuples - snap0_.tuples); }
  // CPU of the measured phase: the producer thread, and every server-side
  // thread (the process minus the producer and viewer threads).
  int64_t producer_cpu_ns() const { return r1_.producer - r0_.producer; }
  int64_t server_cpu_ns() const {
    return (r1_.process - r0_.process) - producer_cpu_ns() - (r1_.viewer - r0_.viewer);
  }
  double ServerCpuPerTuple() const {
    return static_cast<double>(server_cpu_ns()) / static_cast<double>(ingested());
  }
  const LogHistogram& lag() const { return lag_hist_; }
  void AddMetrics(const IsolatedCosts& iso, double untraced_server_cpu,
                  std::vector<Metric>* out) const;
  void Describe(std::vector<std::string>* notes) const;
  // Every kept span, one tab-separated line each (see SpanLog::Write).
  bool WriteSpans(const std::string& path) const;

 private:
  template <typename Pred>
  bool DriveUntil(Pred done, const char* what, std::string* err);
  void ConnectViewer(Viewer& v, uint16_t port);
  void OnTuple(Viewer& v, const TupleView& t);
  void OnReply(Viewer& v, std::string_view line);
  void OnIngest(const TupleView& t);
  bool TickDisplay(const TimeoutTick& tick);
  void IterateLoop0();
  void ScheduleReplay(Viewer& v);
  void IssueReplay(Viewer& v);
  void ProducerThread();
  void ViewerThread();
  Reading Read(std::thread& producer, std::thread& viewer);
  bool RequestStats(std::string* line, std::string* err);
  void Close();

  const Plan& plan_;
  const bool traced_;
  const std::string record_path_;
  OriginClock clock_;
  TimeAxis axis_;
  Reference ref_;

  std::unique_ptr<MainLoop> loop0_;
  std::unique_ptr<MainLoop> producer_loop_;
  std::unique_ptr<MainLoop> viewer_loop_;
  std::unique_ptr<Scope> display_;
  gscope::SourceId display_timer_ = 0;
  std::unique_ptr<StreamServer> server_;
  std::vector<std::unique_ptr<StreamClient>> producers_;
  std::vector<std::unique_ptr<Viewer>> viewers_;

  // Measured phase.
  Gate start_gate_;
  Gate stop_gate_;
  std::atomic<bool> stop_viewer_{false};
  std::atomic<bool> producer_done_{false};
  std::atomic<size_t> replays_done_{0};
  bool timed_out_ = false;
  Reading r0_, r1_;
  ServerSnap snap0_, snap1_;
  gscope::TimerStatsAggregate timers0_, timers1_;
  Scope::Counters display0_, display1_;
  int64_t producer_bytes0_ = 0, producer_bytes1_ = 0;
  int64_t viewer_bytes0_ = 0, viewer_bytes1_ = 0;
  std::string stats0_, stats1_;
  size_t route_count_ = 0;
  size_t excluded_slots_ = 0;
  int64_t phase_wall_ns_ = 0;

  // Viewer thread.
  LogHistogram lag_hist_;           // ns past the display deadline
  LogHistogram trip_hist_;          // us, REPLAY issued -> DONE
  int64_t deliveries_ = 0;          // every tuple the viewers received
  int64_t wakeups_ = 0;             // viewer Iterate calls that delivered data
  SpanLog viewer_spans_;
  // Producer thread.
  LogHistogram late_hist_;          // ns the generator ran behind schedule
  SpanLog producer_spans_;
  // Main thread (server loop 0).
  SpanLog main_spans_;
  int64_t loop_dispatches_ = 0;
  size_t backlog_max_ = 0;
  // The loop owning the producers (ingest tap).
  LogHistogram ingest_hist_;        // ns, batch due -> parsed
  SpanLog tap_spans_;

  Tally tally_;
  std::string first_early_;
  std::string first_display_wrong_;
};

template <typename Pred>
bool Rig::DriveUntil(Pred done, const char* what, std::string* err) {
  const int64_t deadline = SteadyNs() + kStepTimeoutNs;
  while (!done()) {
    if (SteadyNs() > deadline) {
      *err = std::string("timed out waiting for ") + what;
      return false;
    }
    loop0_->Iterate(false);
    producer_loop_->Iterate(false);
    viewer_loop_->Iterate(false);
  }
  return true;
}

void Rig::ConnectViewer(Viewer& v, uint16_t port) {
  ControlClientOptions o;
  o.wire_format = v.spec.binary ? WireFormat::kBinary : WireFormat::kText;
  o.max_buffer = 1 << 20;
  o.ping_interval_ms = v.spec.ping_ms;
  v.client = std::make_unique<ControlClient>(viewer_loop_.get(), o);
  Viewer* vp = &v;
  v.client->SetTupleCallback([this, vp](const TupleView& t) { OnTuple(*vp, t); });
  v.client->SetReplyCallback([this, vp](std::string_view line) { OnReply(*vp, line); });
  // Remembered session state is sent on establishment, after HELLO.
  for (const std::string& glob : v.globs) {
    v.client->Subscribe(glob);
  }
  v.client->SetDelay(kDelayMs);
  v.acks_needed = static_cast<int64_t>(v.globs.size()) + 1;
  if (v.spec.decimate > 1) {
    v.client->Stage("DECIMATE " + std::to_string(v.spec.decimate));
    v.acks_needed += 1;
  }
  v.client->Connect(port);
}

bool Rig::Setup(int64_t* setup_ns, std::string* err) {
  const WorkloadSpec& spec = plan_.spec;
  const int64_t t0 = SteadyNs();
  StreamServerOptions o;
  o.loops = spec.loops;
  // One acceptor hands each connection to the least-loaded loop, so the
  // fixed connection order (WorkloadSpec::order) fixes the placement.
  o.reuse_port = false;
  o.fanout_shards = 4;
  o.fanout_workers = spec.fanout_workers;
  o.max_clients = 8;
  o.control_poll_period_ms = kPollMs;
  o.control_max_buffer = 1 << 20;
  o.record_extent_bytes = kRecordExtentBytes;
  o.record_max_extents = kRecordMaxExtents;
  o.record_fsync_policy = gscope::FsyncPolicy::kNone;
  o.record_poll_period_ms = kPollMs;
  server_ = std::make_unique<StreamServer>(loop0_.get(), display_.get(), o);
  if (traced_) {
    server_->SetIngestTap([this](const TupleView& t) { OnIngest(t); });
  }
  if (!server_->Listen(0)) {
    *err = "StreamServer::Listen failed";
    return false;
  }
  const uint16_t port = server_->port();
  int64_t waited_ns = 0;
  size_t next_viewer = 0;
  size_t connections = 0;
  for (char c : spec.order) {
    connections += 1;
    if (c == 'V') {
      Viewer& v = *viewers_[next_viewer++];
      ConnectViewer(v, port);
      if (!DriveUntil(
              [&] {
                return v.errors > 0 ||
                       (v.client->connected() && server_->client_count() >= connections &&
                        (!v.spec.binary || v.client->wire_binary()) && v.acks >= v.acks_needed);
              },
              "a viewer session", err)) {
        return false;
      }
      if (v.spec.record) {
        // The capture scope keeps its own clock, started by RECORD, with no
        // delay, so it trails the display axis by the RECORD instant: it
        // captures a tuple only once that offset has passed, and drops one
        // ingested later than that after its stamp (NOTES.md, finding 3).
        // RECORD therefore goes out at a fixed display time, so the offset
        // is the same in every run and replayed windows end far enough back
        // (kReplayLagMs) to be captured whole.  The wait is not part of the
        // set-up time.
        const int64_t wait_start = SteadyNs();
        while (display_->NowMs() < kRecordAtMs) {
          loop0_->Iterate(false);
        }
        waited_ns += SteadyNs() - wait_start;
        v.client->Record(record_path_);
        if (!DriveUntil([&] { return v.errors > 0 || v.record_ok; }, "RECORD", err)) {
          return false;
        }
      }
      if (v.errors > 0) {
        *err = "viewer set-up refused: " + v.last_error;
        return false;
      }
    } else {
      StreamClient::Options po;
      po.wire_format = spec.binary_producers ? WireFormat::kBinary : WireFormat::kText;
      po.frame_samples = 128;
      po.max_buffer = 16 << 20;
      producers_.push_back(std::make_unique<StreamClient>(producer_loop_.get(), po));
      StreamClient& p = *producers_.back();
      p.Connect(port);
      if (!DriveUntil(
              [&] {
                return p.state() == gscope::ConnectState::kFailed ||
                       (p.connected() && server_->client_count() >= connections &&
                        (!spec.binary_producers || p.wire_binary()));
              },
              "a producer connection", err)) {
        return false;
      }
      if (!p.connected()) {
        *err = "producer connect failed";
        return false;
      }
    }
  }
  // Declare the population: one tuple per signal.  Creating thousands of
  // routes and signals takes tens of ms, so the stamp leads by far more than
  // that: a declaration tuple judged late would never reach its consumers.
  axis_.decl_stamp_ms = axis_.StampAt(SteadyNs()) + kDeclLeadMs;
  const size_t signals = plan_.pop.signals_per_producer;
  for (size_t p = 0; p < producers_.size(); ++p) {
    for (size_t s = 0; s < signals; ++s) {
      producers_[p]->Send(axis_.decl_stamp_ms,
                          ValueOf(producers_.size(), p, static_cast<int64_t>(s)),
                          plan_.pop.names[p * signals + s]);
    }
  }
  const int64_t declared = static_cast<int64_t>(plan_.pop.size());
  if (!DriveUntil([&] { return server_->stats().tuples.load() >= declared; },
                  "the declaration", err)) {
    return false;
  }
  *setup_ns = SteadyNs() - t0 - waited_ns;
  return true;
}

bool Rig::Warmup(std::string* err) {
  if (plan_.spec.loops > 1) {
    // Placement the workload depends on: one shared stage group (both
    // members on loop 0), the producer and the raw viewer on loop 1.
    if (server_->stats().stages_active.load() != 1 || server_->shard_client_count(0) != 2 ||
        server_->shard_client_count(1) != 2) {
      *err = "connections were not placed as the workload requires";
      return false;
    }
  }
  std::vector<int64_t> decl(plan_.schedules.size(),
                            static_cast<int64_t>(plan_.pop.signals_per_producer));
  if (!DriveUntil(
          [&] {
            for (const auto& v : viewers_) {
              if (v->live->accepted() + v->live->wrong() + v->live->off_phase() +
                      v->live->reordered() <
                  v->live->Expected(decl)) {
                return false;
              }
            }
            return true;
          },
          "the declaration echoes", err)) {
    return false;
  }
  return RequestStats(&stats0_, err);
}

bool Rig::RequestStats(std::string* line, std::string* err) {
  Viewer& v = *viewers_.front();
  v.stats_line.clear();
  v.client->RequestStats();
  if (!DriveUntil([&] { return !v.stats_line.empty(); }, "STATS", err)) {
    return false;
  }
  *line = v.stats_line;
  return true;
}

void Rig::OnTuple(Viewer& v, const TupleView& t) {
  deliveries_ += 1;
  if (v.replay != nullptr && v.replay->active()) {
    v.replay->OnTuple(t.time_ms, t.value, t.name);
    return;
  }
  Delivery d = v.live->OnTuple(t.time_ms, t.value, t.name);
  if (!d.ok) {
    return;
  }
  const ProducerSchedule& s = plan_.schedules[d.producer];
  int64_t b = s.BatchOf(d.seq);
  if (b < 0) {
    return;  // declaration tuples are checked, not timed
  }
  const int64_t now = SteadyNs();
  const int64_t lag = now - axis_.DeadlineNs(d.stamp_ms);
  if (lag < 0) {
    if (tally_.early == 0) {
      first_early_ = DescribeDelivery("early", t.time_ms, t.value, t.name) + " lag_ns " +
                     std::to_string(lag);
    }
    tally_.early += 1;
  }
  lag_hist_.Add(lag);
  if (traced_) {
    int64_t id = b * static_cast<int64_t>(plan_.schedules.size()) +
                 static_cast<int64_t>(d.producer);
    if (id > v.last_batch_seen) {
      v.last_batch_seen = id;
      viewer_spans_.Add(SpanName::kReceiptEvent, SpanName::kNone, id,
                        axis_.phase_start_ns + s.due_ns[static_cast<size_t>(b)], now, 0);
    }
  }
}

void Rig::OnReply(Viewer& v, std::string_view line) {
  if (StartsWith(line, "ERR")) {
    v.errors += 1;
    v.last_error.assign(line);
  } else if (StartsWith(line, "OK HELLO")) {
    // Negotiation; observed through wire_binary().
  } else if (StartsWith(line, "OK REPLAY ")) {
    v.announced = std::strtoll(std::string(line.substr(10)).c_str(), nullptr, 10);
    if (v.replay != nullptr) {
      v.replay->Begin(v.pending_t0, v.pending_t1);
    }
  } else if (StartsWith(line, "INFO REPLAY DONE")) {
    if (v.replay != nullptr) {
      v.replay->End(v.announced);
      const int64_t now = SteadyNs();
      trip_hist_.Add((now - v.issued_ns) / 1000);
      if (traced_) {
        viewer_spans_.Add(SpanName::kReplayTrip, SpanName::kNone,
                          static_cast<int64_t>(v.next_replay) - 1, v.issued_ns, now, 0);
      }
      replays_done_.fetch_add(1, std::memory_order_release);
      ScheduleReplay(v);
    }
  } else if (StartsWith(line, "OK RECORD")) {
    v.record_ok = true;
  } else if (StartsWith(line, "OK STATS")) {
    v.stats_line.assign(line);
  } else if (StartsWith(line, "OK ")) {
    v.acks += 1;
  }
}

void Rig::OnIngest(const TupleView& t) {
  size_t p = 0;
  int64_t n = 0;
  if (!DecodeValue(t.value, plan_.schedules.size(), &p, &n) || p >= plan_.schedules.size()) {
    return;
  }
  const ProducerSchedule& s = plan_.schedules[p];
  const int64_t b = s.BatchOf(n);
  if (b < 0 || b >= static_cast<int64_t>(s.due_ns.size()) ||
      (n - static_cast<int64_t>(s.signals)) % static_cast<int64_t>(kBatch) != 0) {
    return;  // only the first tuple of each timed batch is timed
  }
  const int64_t due = axis_.phase_start_ns + s.due_ns[static_cast<size_t>(b)];
  const int64_t now = SteadyNs();
  ingest_hist_.Add(now - due);
  tap_spans_.Add(SpanName::kIngestEvent, SpanName::kNone,
                 b * static_cast<int64_t>(plan_.schedules.size()) + static_cast<int64_t>(p),
                 due, now, 0);
}

bool Rig::TickDisplay(const TimeoutTick& tick) {
  if (!traced_) {
    display_->TickOnce(tick.lost);
    return true;
  }
  backlog_max_ = std::max(backlog_max_, display_->pending_ingest_samples());
  const int64_t c0 = ThreadCpuNs();
  const int64_t w0 = SteadyNs();
  display_->TickOnce(tick.lost);
  main_spans_.Add(SpanName::kScopeTick, SpanName::kLoopIterate, -1, w0, SteadyNs(),
                  ThreadCpuNs() - c0);
  return true;
}

void Rig::IterateLoop0() {
  if (!traced_) {
    loop0_->Iterate(true);
    return;
  }
  const int64_t c0 = ThreadCpuNs();
  const int64_t w0 = SteadyNs();
  if (loop0_->Iterate(true)) {
    loop_dispatches_ += 1;
  }
  main_spans_.Add(SpanName::kLoopIterate, SpanName::kNone, -1, w0, SteadyNs(),
                  ThreadCpuNs() - c0);
}

void Rig::ScheduleReplay(Viewer& v) {
  if (v.next_replay >= plan_.replays.size()) {
    return;
  }
  const int64_t due = axis_.phase_start_ns + plan_.replays[v.next_replay].issue_offset_ns;
  const int64_t wait = std::max<int64_t>(due - SteadyNs(), 1);
  Viewer* vp = &v;
  viewer_loop_->AddTimeoutNs(wait, [this, vp](const TimeoutTick&) {
    IssueReplay(*vp);
    return false;  // one-shot
  });
}

void Rig::IssueReplay(Viewer& v) {
  v.next_replay += 1;
  const int64_t w0 = SteadyNs();
  const int64_t c0 = traced_ ? ThreadCpuNs() : 0;
  v.pending_t1 = axis_.StampAt(w0) - kReplayLagMs;
  v.pending_t0 = v.pending_t1 - kReplayWindowMs + 1;
  v.issued_ns = w0;
  if (!v.client->Replay(v.pending_t0, v.pending_t1, 0.0)) {
    v.errors += 1;
    v.last_error = "REPLAY could not be queued";
    replays_done_.fetch_add(1, std::memory_order_release);
    ScheduleReplay(v);
    return;
  }
  if (traced_) {
    viewer_spans_.Add(SpanName::kReplayVerb, SpanName::kViewerIterate,
                      static_cast<int64_t>(v.next_replay) - 1, w0, SteadyNs(),
                      ThreadCpuNs() - c0);
  }
}

void Rig::ProducerThread() {
  start_gate_.Wait();
  const size_t np = plan_.schedules.size();
  const size_t signals = plan_.pop.signals_per_producer;
  std::vector<size_t> next(np, 0);
  while (true) {
    // The earliest due batch over all producers.
    size_t p = np;
    for (size_t q = 0; q < np; ++q) {
      const std::vector<int64_t>& due = plan_.schedules[q].due_ns;
      if (next[q] < due.size() && (p == np || due[next[q]] < plan_.schedules[p].due_ns[next[p]])) {
        p = q;
      }
    }
    if (p == np) {
      break;
    }
    const int64_t b = static_cast<int64_t>(next[p]++);
    const int64_t due = axis_.phase_start_ns + plan_.schedules[p].due_ns[static_cast<size_t>(b)];
    if (SteadyNs() < due) {
      SleepUntil(due);
    }
    const int64_t w0 = SteadyNs();
    late_hist_.Add(w0 - due);
    const int64_t c0 = traced_ ? ThreadCpuNs() : 0;
    StreamClient& client = *producers_[p];
    const int64_t stamp = axis_.StampAt(due);
    const int64_t n0 = static_cast<int64_t>(signals) + b * static_cast<int64_t>(kBatch);
    const std::string* names = &plan_.pop.names[p * signals];
    for (int64_t n = n0; n < n0 + static_cast<int64_t>(kBatch); ++n) {
      client.Send(stamp, ValueOf(np, p, n), names[static_cast<size_t>(n) % signals]);
    }
    if (!traced_) {
      producer_loop_->Iterate(false);
      continue;
    }
    const int64_t c1 = ThreadCpuNs();
    const int64_t w1 = SteadyNs();
    producer_loop_->Iterate(false);
    const int64_t c2 = ThreadCpuNs();
    const int64_t w2 = SteadyNs();
    const int64_t id = b * static_cast<int64_t>(np) + static_cast<int64_t>(p);
    producer_spans_.Add(SpanName::kClientSend, SpanName::kProducerBatch, id, w0, w1, c1 - c0);
    producer_spans_.Add(SpanName::kClientFlush, SpanName::kProducerBatch, id, w1, w2, c2 - c1);
    producer_spans_.Add(SpanName::kProducerBatch, SpanName::kNone, id, w0, w2, c2 - c0);
  }
  // Drain what the socket did not take yet.
  const int64_t deadline = SteadyNs() + kStepTimeoutNs;
  auto pending = [&] {
    for (const auto& c : producers_) {
      if (c->pending_bytes() > 0) {
        return true;
      }
    }
    return false;
  };
  while (pending() && SteadyNs() < deadline) {
    const int64_t c0 = traced_ ? ThreadCpuNs() : 0;
    const int64_t w0 = SteadyNs();
    producer_loop_->Iterate(false);
    if (traced_) {
      const int64_t w1 = SteadyNs();
      const int64_t cpu = ThreadCpuNs() - c0;
      producer_spans_.Add(SpanName::kClientFlush, SpanName::kProducerBatch, -1, w0, w1, cpu);
      producer_spans_.Add(SpanName::kProducerBatch, SpanName::kNone, -1, w0, w1, cpu);
    }
    if (pending()) {
      SleepUntil(SteadyNs() + kMs / 10);
    }
  }
  producer_done_.store(true, std::memory_order_release);
  stop_gate_.Wait();
}

void Rig::ViewerThread() {
  start_gate_.Wait();
  for (const auto& v : viewers_) {
    if (v->replay != nullptr) {
      ScheduleReplay(*v);
    }
  }
  while (!stop_viewer_.load(std::memory_order_acquire)) {
    if (!traced_) {
      viewer_loop_->Iterate(true);
      continue;
    }
    const int64_t before = deliveries_;
    const int64_t c0 = ThreadCpuNs();
    const int64_t w0 = SteadyNs();
    viewer_loop_->Iterate(true);
    viewer_spans_.Add(SpanName::kViewerIterate, SpanName::kNone, -1, w0, SteadyNs(),
                      ThreadCpuNs() - c0);
    if (deliveries_ != before) {
      wakeups_ += 1;
    }
  }
}

Reading Rig::Read(std::thread& producer, std::thread& viewer) {
  Reading r;
  r.wall = SteadyNs();
  r.process = ClockNs(CLOCK_PROCESS_CPUTIME_ID);
  r.main = ThreadCpuNs();
  r.producer = ThreadClockNs(producer);
  r.viewer = ThreadClockNs(viewer);
  return r;
}

bool Rig::Measure(std::string* err) {
  snap0_ = Snap(*server_);
  timers0_ = server_->GatherTimerStats();
  display0_ = display_->counters();
  for (const auto& p : producers_) {
    producer_bytes0_ += p->stats().bytes_sent;
  }
  for (const auto& v : viewers_) {
    viewer_bytes0_ += v->client->stats().bytes_received;
  }
  const size_t replays_planned = std::count_if(
      viewers_.begin(), viewers_.end(), [](const auto& v) { return v->replay != nullptr; }) *
      plan_.replays.size();
  deliveries_ = 0;
  axis_.phase_start_ns = SteadyNs() + 20 * kMs;
  std::thread producer([this] { ProducerThread(); });
  std::thread viewer([this] { ViewerThread(); });
  r0_ = Read(producer, viewer);
  start_gate_.Open();
  const int64_t drain_end =
      axis_.phase_start_ns + static_cast<int64_t>(plan_.seconds * 1e9) + kDrainNs;
  const int64_t cap = drain_end + kStepTimeoutNs;
  while (true) {
    const int64_t now = SteadyNs();
    if (now >= drain_end && producer_done_.load(std::memory_order_acquire) &&
        replays_done_.load(std::memory_order_acquire) >= replays_planned) {
      break;
    }
    if (now >= cap) {
      timed_out_ = true;
      break;
    }
    IterateLoop0();
  }
  r1_ = Read(producer, viewer);
  phase_wall_ns_ = r1_.wall - r0_.wall;
  stop_viewer_.store(true, std::memory_order_release);
  viewer_loop_->Invoke([] {});
  stop_gate_.Open();
  producer.join();
  viewer.join();
  if (timed_out_) {
    *err = "the measured phase did not drain in time";
  }
  return !timed_out_;
}

bool Rig::Finish(std::string* err) {
  if (!RequestStats(&stats1_, err)) {
    return false;
  }
  snap1_ = Snap(*server_);
  timers1_ = server_->GatherTimerStats();
  display1_ = display_->counters();
  route_count_ = server_->router().route_count();
  excluded_slots_ = server_->router().excluded_route_slots();
  for (const auto& p : producers_) {
    const StreamClient::Stats& s = p->stats();
    producer_bytes1_ += s.bytes_sent;
    tally_.producer_drops += s.tuples_dropped + s.tuples_evicted + s.tuples_abandoned;
  }
  for (const auto& v : viewers_) {
    viewer_bytes1_ += v->client->stats().bytes_received;
  }
  // Closing the server joins its loops, so everything the ingest tap wrote
  // on another loop is visible from here on.
  server_->Close();

  std::vector<int64_t> sent;
  for (const ProducerSchedule& s : plan_.schedules) {
    sent.push_back(s.total_tuples());
  }
  for (const auto& v : viewers_) {
    tally_.expected += v->live->Expected(sent);
    tally_.accepted += v->live->accepted();
    tally_.wrong += v->live->wrong();
    tally_.off_phase += v->live->off_phase();
    tally_.reordered += v->live->reordered();
    if (v->replay != nullptr) {
      tally_.expected += v->replay->expected();
      tally_.accepted += v->replay->accepted();
      tally_.wrong += v->replay->wrong();
    }
    tally_.errors += v->errors;
  }
  // The local display holds each signal's newest tuple.
  const size_t signals = plan_.pop.signals_per_producer;
  for (size_t g = 0; g < plan_.pop.size(); ++g) {
    const size_t p = g / signals;
    const size_t s = g % signals;
    const int64_t count = TuplesOfSignal(sent[p], signals, s);
    const int64_t last = static_cast<int64_t>(s) + (count - 1) * static_cast<int64_t>(signals);
    tally_.expected += 1;
    gscope::SignalId id = display_->FindSignal(plan_.pop.names[g]);
    std::optional<double> raw = id == 0 ? std::nullopt : display_->LatestRaw(id);
    std::optional<int64_t> at = id == 0 ? std::nullopt : display_->LatestBufferedTime(id);
    if (!raw.has_value() || !at.has_value()) {
      continue;  // never displayed: missing
    }
    Delivery d = Identify(ref_, *at, *raw, plan_.pop.names[g]);
    if (!d.ok || d.producer != p || d.seq % static_cast<int64_t>(signals) != static_cast<int64_t>(s)) {
      if (first_display_wrong_.empty()) {
        first_display_wrong_ =
            DescribeDelivery("display holds", *at, *raw, plan_.pop.names[g]);
      }
      tally_.wrong += 1;
    } else if (d.seq == last) {
      tally_.accepted += 1;
    } else {
      tally_.display_stale += 1;  // an older tuple of the signal: missing
    }
  }
  tally_.server_failed = snap1_.parse_errors + snap1_.dropped_late;
  return true;
}

void Rig::Close() {
  for (auto& v : viewers_) {
    if (v->client != nullptr) {
      v->client->Close();
      v->client.reset();
    }
  }
  for (auto& p : producers_) {
    p->Close();
  }
  producers_.clear();
  if (server_ != nullptr) {
    server_->Close();
    server_.reset();
  }
  if (display_timer_ != 0) {
    loop0_->Remove(display_timer_);
    display_timer_ = 0;
  }
}

double PerTuple(double v, int64_t n) { return n > 0 ? v / static_cast<double>(n) : 0.0; }

void Rig::AddMetrics(const IsolatedCosts& iso, double untraced_server_cpu,
                     std::vector<Metric>* out) const {
  auto add = [out](const char* name, double value, const char* unit) {
    out->push_back(Metric{name, value, unit});
  };
  const int64_t sent = timed_tuples();
  const int64_t in = ingested();
  const double server_cpu = ServerCpuPerTuple();
  auto span = [](const SpanLog& log, SpanName n) { return log.totals(n); };

  // net.stream_client
  add("net.stream_client.send_ns_per_tuple",
      PerTuple(span(producer_spans_, SpanName::kClientSend).cpu_ns, sent), "ns");
  add("net.stream_client.flush_ns_per_tuple",
      PerTuple(span(producer_spans_, SpanName::kClientFlush).cpu_ns, sent), "ns");
  add("net.stream_client.wire_bytes_per_tuple",
      PerTuple(static_cast<double>(producer_bytes1_ - producer_bytes0_), sent), "B");

  // runtime.event_loop (loop 0, driven by the main thread)
  const SpanLog::Totals iter = span(main_spans_, SpanName::kLoopIterate);
  add("runtime.event_loop.busy_ns_per_tuple", PerTuple(iter.cpu_ns, in), "ns");
  add("runtime.event_loop.iterations_per_ktuple",
      PerTuple(1000.0 * static_cast<double>(loop_dispatches_), in), "count");
  add("runtime.event_loop.blocked_share",
      iter.wall_ns > 0 ? 1.0 - static_cast<double>(iter.cpu_ns) / static_cast<double>(iter.wall_ns)
                       : 0.0,
      "ratio");

  // runtime.timer (Section 4.5 bookkeeping, every loop)
  const int64_t fired = timers1_.total.fired - timers0_.total.fired;
  add("runtime.timer.dispatch_latency_mean_us",
      PerTuple(static_cast<double>(timers1_.total.total_latency_ns - timers0_.total.total_latency_ns) /
                   1000.0,
               fired),
      "us");
  add("runtime.timer.dispatch_latency_max_us",
      static_cast<double>(timers1_.total.max_latency_ns) / 1000.0, "us");
  add("runtime.timer.lost_ticks", static_cast<double>(timers1_.total.lost - timers0_.total.lost),
      "count");

  // The one server-internal thread of each workload: process CPU minus the
  // benchmark's threads and loop 0.
  const double internal =
      PerTuple(static_cast<double>((r1_.process - r0_.process) - (r1_.producer - r0_.producer) -
                                   (r1_.viewer - r0_.viewer) - (r1_.main - r0_.main)),
               in);
  const WorkloadKind kind = plan_.spec.kind;
  add("core.fanout_pool.cpu_ns_per_tuple", kind == WorkloadKind::kTextDisplay ? internal : 0.0,
      "ns");
  add("runtime.loop_pool.cpu_ns_per_tuple", kind == WorkloadKind::kBinaryStage ? internal : 0.0,
      "ns");
  add("record.recorder.cpu_ns_per_tuple", kind == WorkloadKind::kRecordReplay ? internal : 0.0,
      "ns");

  // net.stream_server
  add("net.stream_server.ingest_lag_p50_us", ingest_hist_.Quantile(0.5) / 1000.0, "us");
  add("net.stream_server.ingest_lag_p99_us", ingest_hist_.Quantile(0.99) / 1000.0, "us");
  add("net.stream_server.frames_per_ktuple",
      PerTuple(1000.0 * static_cast<double>(snap1_.frames_rx - snap0_.frames_rx), in), "count");
  add("net.stream_server.stage_evals_per_tuple",
      PerTuple(static_cast<double>(snap1_.stage_evals - snap0_.stage_evals), in), "count");
  add("net.stream_server.derived_per_tuple",
      PerTuple(static_cast<double>(snap1_.derived - snap0_.derived), in), "count");
  add("net.stream_server.echo_bytes_per_tuple",
      PerTuple(static_cast<double>(viewer_bytes1_ - viewer_bytes0_), in), "B");
  add("net.stream_server.failed_tuples",
      static_cast<double>((snap1_.parse_errors - snap0_.parse_errors) +
                          (snap1_.dropped_late - snap0_.dropped_late) +
                          (snap1_.crc_errors - snap0_.crc_errors) +
                          (snap1_.echo_dropped - snap0_.echo_dropped) +
                          (snap1_.echo_evicted - snap0_.echo_evicted) +
                          (snap1_.quota_drops - snap0_.quota_drops)),
      "count");

  // core.ingest_router
  add("core.ingest_router.route_count", static_cast<double>(route_count_), "count");
  add("core.ingest_router.excluded_route_slots", static_cast<double>(excluded_slots_), "count");

  // core.scope (the local display)
  const SpanLog::Totals tick = span(main_spans_, SpanName::kScopeTick);
  add("core.scope.tick_us", tick.count > 0 ? static_cast<double>(tick.wall_ns) / tick.count / 1000.0 : 0.0,
      "us");
  add("core.scope.coalesce_ratio",
      PerTuple(static_cast<double>(display1_.samples_coalesced - display0_.samples_coalesced), in),
      "ratio");
  add("core.scope.backlog_samples_max", static_cast<double>(backlog_max_), "count");
  add("core.scope.lost_ticks", static_cast<double>(display1_.lost_ticks - display0_.lost_ticks),
      "count");

  // net.control_client (the viewer thread)
  add("net.control_client.cpu_ns_per_tuple",
      PerTuple(static_cast<double>(r1_.viewer - r0_.viewer), deliveries_), "ns");
  add("net.control_client.wakeups_per_ktuple",
      PerTuple(1000.0 * static_cast<double>(wakeups_), deliveries_), "count");
  add("net.control_client.bytes_per_tuple",
      PerTuple(static_cast<double>(viewer_bytes1_ - viewer_bytes0_), deliveries_), "B");

  // record
  const int64_t captured = StatsValue(stats1_, "samples_captured") - StatsValue(stats0_, "samples_captured");
  add("record.recorder.capture_ratio", PerTuple(static_cast<double>(captured), in), "ratio");
  add("record.extent_log.bytes_per_sample",
      PerTuple(static_cast<double>(StatsValue(stats1_, "capture_bytes") -
                                   StatsValue(stats0_, "capture_bytes")),
               captured),
      "B");
  add("record.extent_log.extents_sealed_per_s",
      static_cast<double>(StatsValue(stats1_, "extents_sealed") - StatsValue(stats0_, "extents_sealed")) /
          (static_cast<double>(phase_wall_ns_) / 1e9),
      "1/s");
  int64_t windows = 0;
  int64_t replayed = 0;
  for (const auto& v : viewers_) {
    if (v->replay != nullptr) {
      windows += v->replay->windows();
      replayed += v->replay->accepted();
    }
  }
  add("record.replayer.replay_ms_p50", trip_hist_.Quantile(0.5) / 1000.0, "ms");
  add("record.replayer.replay_ms_max", static_cast<double>(trip_hist_.max()) / 1000.0, "ms");
  add("record.replayer.records_per_replay", PerTuple(static_cast<double>(replayed), windows),
      "count");

  // Isolated layer costs: the workload's own bytes and tuples re-driven
  // through one layer at a time.
  add("net.line_framer.parse_ns_per_tuple", iso.parse_ns, "ns");
  add("net.frame_codec.decode_ns_per_tuple", iso.decode_ns, "ns");
  add("core.ingest_router.route_ns_per_tuple", iso.route_ns, "ns");
  add("record.extent_log.append_ns_per_sample", iso.append_ns, "ns");
  add("net.stream_server.unattributed_ns_per_tuple",
      server_cpu - iso.parse_ns - iso.decode_ns - iso.route_ns - iso.append_ns, "ns");

  // Span coverage: the share of each role's thread CPU its spans account
  // for (the rest is the role's unattributed remainder).
  auto coverage = [](int64_t spans, int64_t cpu) {
    return cpu > 0 ? static_cast<double>(spans) / static_cast<double>(cpu) : 0.0;
  };
  add("bench.spans.producer_coverage",
      coverage(span(producer_spans_, SpanName::kProducerBatch).cpu_ns, r1_.producer - r0_.producer),
      "ratio");
  add("bench.spans.loop0_coverage", coverage(iter.cpu_ns, r1_.main - r0_.main), "ratio");
  add("bench.spans.viewer_coverage",
      coverage(span(viewer_spans_, SpanName::kViewerIterate).cpu_ns, r1_.viewer - r0_.viewer),
      "ratio");

  // Diagnostics (not gated).
  add("display_lag_p999_ms", lag_hist_.Quantile(0.999) / 1e6, "ms");
  add("display_lag_max_ms", static_cast<double>(lag_hist_.max()) / 1e6, "ms");
  add("display_lag_samples", static_cast<double>(lag_hist_.count()), "count");
  add("bench.generator_late_p99_ms", late_hist_.Quantile(0.99) / 1e6, "ms");
  add("bench.trace_overhead_ratio", untraced_server_cpu > 0 ? server_cpu / untraced_server_cpu : 0.0,
      "ratio");
}

void Rig::Describe(std::vector<std::string>* notes) const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "tuples: timed %lld ingested %lld | deliveries expected %lld accepted %lld wrong "
                "%lld off-phase %lld reordered %lld early %lld display_stale %lld | producer "
                "drops %lld server "
                "parse+late %lld "
                "errors %lld | lag samples %lld p50 %.3f ms p99 %.3f ms max %.3f ms | generator "
                "late p99 %.3f ms",
                static_cast<long long>(timed_tuples()), static_cast<long long>(ingested()),
                static_cast<long long>(tally_.expected), static_cast<long long>(tally_.accepted),
                static_cast<long long>(tally_.wrong), static_cast<long long>(tally_.off_phase),
                static_cast<long long>(tally_.reordered),
                static_cast<long long>(tally_.early),
                static_cast<long long>(tally_.display_stale),
                static_cast<long long>(tally_.producer_drops),
                static_cast<long long>(tally_.server_failed), static_cast<long long>(tally_.errors),
                static_cast<long long>(lag_hist_.count()), lag_hist_.Quantile(0.5) / 1e6,
                lag_hist_.Quantile(0.99) / 1e6, static_cast<double>(lag_hist_.max()) / 1e6,
                late_hist_.Quantile(0.99) / 1e6);
  notes->push_back(buf);
  std::snprintf(buf, sizeof(buf), "lag quantiles (ms): p90 %.2f p95 %.2f p98 %.2f p99 %.2f p995 %.2f p999 %.2f",
                lag_hist_.Quantile(0.90) / 1e6, lag_hist_.Quantile(0.95) / 1e6,
                lag_hist_.Quantile(0.98) / 1e6, lag_hist_.Quantile(0.99) / 1e6,
                lag_hist_.Quantile(0.995) / 1e6, lag_hist_.Quantile(0.999) / 1e6);
  notes->push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "measured phase: late drops %lld, display span overflow %lld, stage evals "
                "%lld, echo dropped %lld evicted %lld, replay p50 %.2f ms max %.2f ms over "
                "%lld windows",
                static_cast<long long>(snap1_.dropped_late - snap0_.dropped_late),
                static_cast<long long>(display_->ingest_span_stats().dropped_overflow),
                static_cast<long long>(snap1_.stage_evals - snap0_.stage_evals),
                static_cast<long long>(snap1_.echo_dropped - snap0_.echo_dropped),
                static_cast<long long>(snap1_.echo_evicted - snap0_.echo_evicted),
                trip_hist_.Quantile(0.5) / 1000.0, static_cast<double>(trip_hist_.max()) / 1000.0,
                static_cast<long long>(trip_hist_.count()));
  notes->push_back(buf);
  if (!first_early_.empty()) {
    notes->push_back("first early delivery: " + first_early_);
  }
  if (!first_display_wrong_.empty()) {
    notes->push_back("wrong display value: " + first_display_wrong_);
  }
  for (const auto& v : viewers_) {
    if (v->errors > 0) {
      notes->push_back("viewer error: " + v->last_error);
    }
    if (!v->live->first_wrong().empty()) {
      notes->push_back("first wrong live delivery: " + v->live->first_wrong());
    }
    if (!v->live->first_reordered().empty()) {
      notes->push_back("first reordered live delivery: " + v->live->first_reordered());
    }
    if (v->replay != nullptr && !v->replay->first_wrong().empty()) {
      notes->push_back("first wrong replayed record: " + v->replay->first_wrong());
    }
  }
}

// One measured segment: set-up (its wall time into *setup_ns), warm-up,
// phase, checks.  Null on failure, with *err saying why.
std::unique_ptr<Rig> RunRig(const Plan& plan, bool traced, const std::string& record_path,
                            int64_t* setup_ns, std::string* err) {
  auto rig = std::make_unique<Rig>(plan, traced, record_path);
  if (!rig->Setup(setup_ns, err) || !rig->Warmup(err) || !rig->Measure(err) ||
      !rig->Finish(err)) {
    return nullptr;
  }
  return rig;
}

bool Rig::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "role\tname\tparent\tid\tstart_ns\tend_ns\tcpu_ns\n");
  producer_spans_.Write(f, "producer");
  main_spans_.Write(f, "loop0");
  tap_spans_.Write(f, "ingest_tap");
  viewer_spans_.Write(f, "viewer");
  return std::fclose(f) == 0;
}

}  // namespace

RunResult RunBenchmark(const RunOptions& options) {
  RunResult result;
  std::optional<WorkloadSpec> spec = FindWorkload(options.workload);
  if (!spec.has_value()) {
    result.error = "unknown workload '" + options.workload + "'";
    return result;
  }
  int record_files = 0;
  auto record_path = [&] {
    return options.work_dir + "/record-" + std::to_string(record_files++) + ".log";
  };
  auto remove_records = [&] {
    for (int i = 0; i < record_files; ++i) {
      std::remove((options.work_dir + "/record-" + std::to_string(i) + ".log").c_str());
    }
  };
  std::string err;
  int64_t setup_ns = 0;

  if (!options.trace) {
    // The run is split into segments, each a fresh instance with its own
    // set-up and seed.  Timer phases between the loops are fixed when an
    // instance is set up and move the lag percentiles by milliseconds;
    // pooling segments averages over several phases instead of one.  All
    // inputs exist before anything is timed.
    const int segments =
        std::clamp(static_cast<int>(options.seconds / kSegmentSeconds + 0.5), 1, 16);
    std::vector<Plan> plans;
    for (int i = 0; i < segments; ++i) {
      plans.push_back(MakePlan(*spec, options.seed * 16 + static_cast<uint64_t>(i),
                               options.seconds / segments));
    }
    std::vector<double> setups;
    LogHistogram lag;
    int64_t producer_cpu = 0, server_cpu = 0, timed = 0, ingested = 0;
    result.correct = true;
    for (const Plan& plan : plans) {
      std::unique_ptr<Rig> rig = RunRig(plan, false, record_path(), &setup_ns, &err);
      if (rig == nullptr) {
        result.error = err;
        remove_records();
        return result;
      }
      setups.push_back(static_cast<double>(setup_ns) / 1e9);
      lag.Merge(rig->lag());
      producer_cpu += rig->producer_cpu_ns();
      server_cpu += rig->server_cpu_ns();
      timed += rig->timed_tuples();
      ingested += rig->ingested();
      result.correct = result.correct && rig->correct();
      result.attempted += rig->tally().expected;
      result.failed += rig->failed();
      rig->Describe(&result.notes);
    }
    remove_records();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    result.completed = true;
    // Laplace's rule of succession: a clean run reads about 1/attempted,
    // never 0, and one failure per run doubles it.
    const double loss =
        (static_cast<double>(result.failed) + 1.0) / (static_cast<double>(result.attempted) + 2.0);
    result.metrics = {
        {"display_lag_p50_ms", lag.Quantile(0.5) / 1e6, "ms"},
        {"display_lag_p99_ms", lag.Quantile(0.99) / 1e6, "ms"},
        {"loss_ratio", loss, "ratio"},
        {"producer_cpu_ns_per_tuple", static_cast<double>(producer_cpu) / static_cast<double>(timed), "ns"},
        {"server_cpu_ns_per_tuple", static_cast<double>(server_cpu) / static_cast<double>(ingested), "ns"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
        {"setup_s", Median(setups), "s"},
    };
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "pooled over %d segments: lag samples %lld p50 %.3f ms p99 %.3f ms; setups (s) "
                  "min %.6f median %.6f max %.6f",
                  segments, static_cast<long long>(lag.count()), lag.Quantile(0.5) / 1e6,
                  lag.Quantile(0.99) / 1e6, *std::min_element(setups.begin(), setups.end()),
                  Median(setups), *std::max_element(setups.begin(), setups.end()));
    result.notes.push_back(buf);
    return result;
  }

  // Traced run: an untraced reference segment (for the tracing overhead),
  // then the traced segment the per-layer metrics come from.
  const Plan reference_plan = MakePlan(*spec, options.seed * 16 + 15, options.seconds / 2);
  const Plan plan = MakePlan(*spec, options.seed * 16, options.seconds);
  double untraced_cpu = 0;
  {
    std::unique_ptr<Rig> rig = RunRig(reference_plan, false, record_path(), &setup_ns, &err);
    if (rig == nullptr) {
      result.error = "untraced reference segment: " + err;
      remove_records();
      return result;
    }
    untraced_cpu = rig->ServerCpuPerTuple();
    result.attempted += rig->tally().expected;
    result.failed += rig->failed();
    result.correct = rig->correct();
  }
  std::unique_ptr<Rig> rig = RunRig(plan, true, record_path(), &setup_ns, &err);
  if (rig == nullptr) {
    result.error = "traced segment: " + err;
    remove_records();
    return result;
  }
  IsolatedCosts iso =
      MeasureIsolated(plan.spec, plan.pop, plan.schedules, plan.viewer_globs, options.work_dir);
  result.completed = true;
  result.correct = result.correct && rig->correct();
  result.attempted += rig->tally().expected;
  result.failed += rig->failed();
  rig->AddMetrics(iso, untraced_cpu, &result.metrics);
  rig->Describe(&result.notes);
  if (!options.trace_path.empty() && !rig->WriteSpans(options.trace_path)) {
    result.notes.push_back("could not write spans to " + options.trace_path);
  }
  rig.reset();
  remove_records();
  return result;
}

}  // namespace e2ebench
