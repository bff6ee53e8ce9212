#include "record/recorder.h"

#include <condition_variable>
#include <mutex>

namespace gscope {

Recorder::Recorder(RecorderOptions options) : options_(std::move(options)),
                                              log_(options_.log) {}

Recorder::~Recorder() { Stop(); }

bool Recorder::Start(const std::string& path) {
  if (running_) {
    return false;
  }
  if (!log_.Open(path)) {
    return false;
  }
  path_ = path;
  // Recovery tallies are known before the loop runs: publish them now so a
  // STATS fold sees extents_recovered without waiting a tick.
  stats_.extents_recovered = log_.stats().extents_recovered;
  stats_.extents_truncated = log_.stats().extents_truncated;

  if (options_.loop != nullptr) {
    loop_ = options_.loop;
  } else {
    own_loop_ = std::make_unique<MainLoop>();
    loop_ = own_loop_.get();
  }

  ScopeOptions sopts;
  sopts.name = options_.name;
  sopts.width = 64;
  sopts.height = 32;
  sopts.buffer_capacity = options_.buffer_capacity;
  scope_ = std::make_unique<Scope>(loop_, sopts);
  // Router flushes and route-table builds on the serving loops touch this
  // scope from other threads while the recorder loop ticks it.
  scope_->SetConcurrent(true);
  scope_->SetBufferedTap(
      [this](std::string_view name, int64_t time_ms, double value) {
        if (log_.Append(name, time_ms, value)) {
          captured_ += 1;
        }
      },
      TapMode::kEverySample);
  scope_->SetPollingMode(options_.poll_period_ms);

  loop_->Invoke([this] { InstallOnLoop(); });
  if (own_loop_ != nullptr) {
    thread_ = std::thread([this] { own_loop_->Run(); });
  }
  running_ = true;
  return true;
}

void Recorder::InstallOnLoop() {
  scope_->StartPolling();
  publish_timer_ = loop_->AddTimeoutMs(options_.poll_period_ms,
                                       [this]() {
                                         PublishTick();
                                         return true;
                                       });
}

void Recorder::PublishTick() {
  log_.MaybeFsync(scope_->NowMs());
  if (log_.degraded()) {
    // Disk-full retry: a successful seal exits coalesced capture.
    log_.SealNow();
  }
  const ExtentLog::Stats& s = log_.stats();
  stats_.samples_captured = captured_;
  stats_.extents_sealed = s.extents_sealed;
  stats_.extents_recovered = s.extents_recovered;
  stats_.extents_truncated = s.extents_truncated;
  stats_.extents_dropped = s.extents_dropped;
  stats_.capture_bytes = s.capture_bytes;
  stats_.seal_failures = s.seal_failures;
  stats_.fsync_failures = s.fsync_failures;
  stats_.degraded_entered = s.degraded_entered;
  stats_.samples_coalesced = s.samples_coalesced;
  stats_.degraded = log_.degraded() ? 1 : 0;
}

void Recorder::TeardownOnLoop() {
  if (publish_timer_ != 0) {
    loop_->Remove(publish_timer_);
    publish_timer_ = 0;
  }
  // Final drain: anything still queued in the scope's buffers/spans routes
  // through the tap before the log seals.
  scope_->TickOnce();
  scope_->StopPolling();
  log_.SealNow();
  PublishTick();
}

void Recorder::FlushNow() {
  if (!running_) {
    return;
  }
  if (own_loop_ != nullptr) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    loop_->Invoke([this, &mu, &cv, &done] {
      scope_->TickOnce();
      log_.SealNow();
      PublishTick();
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&done] { return done; });
  } else {
    scope_->TickOnce();
    log_.SealNow();
    PublishTick();
  }
}

void Recorder::Stop() {
  if (!running_) {
    return;
  }
  if (own_loop_ != nullptr) {
    loop_->Invoke([this] {
      TeardownOnLoop();
      loop_->Quit();
    });
    thread_.join();
  } else {
    TeardownOnLoop();
  }
  log_.Close();
  scope_.reset();
  own_loop_.reset();
  loop_ = nullptr;
  running_ = false;
}

}  // namespace gscope
