// Reference checks: every delivery a consumer gets is compared against the
// seeded schedule (schedule.h).  A delivery is *wrong* when it is corrupted
// (name, stamp or value disagree with the schedule), duplicated, reordered,
// outside the consumer's subscription or outside its replay window; wrong
// deliveries make the run incorrect.  Deliveries the schedule owed but that
// never arrived are *missing*; they count against loss_ratio only.
#ifndef E2EBENCH_CHECKER_H_
#define E2EBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "schedule.h"

namespace e2ebench {

// The schedule a checker judges against; not owned.
struct Reference {
  const Population* pop = nullptr;
  const std::vector<ProducerSchedule>* schedules = nullptr;
  const TimeAxis* axis = nullptr;
};

struct Delivery {
  bool ok = false;
  size_t producer = 0;
  int64_t seq = 0;
  int64_t stamp_ms = 0;
};

// Decodes one delivered tuple and checks it against the schedule: value
// names a scheduled tuple, and name and stamp are that tuple's.
Delivery Identify(const Reference& ref, int64_t time_ms, double value, std::string_view name);

// "<why>: <stamp> <value> <name>", for a run's notes.
std::string DescribeDelivery(const char* why, int64_t time_ms, double value,
                             std::string_view name);

// One live stream (raw echo or DECIMATE output).  Per signal the server
// delivers in stamp order, so each signal's tuples must arrive once each,
// with rising index k; a DECIMATE `every` stage owes exactly k = 0, every,
// 2*every, ...  One seen bit per scheduled tuple catches any repeat,
// however late.
class StreamChecker {
 public:
  // `filter` selects global signal indices (Population::names order).
  StreamChecker(const Reference& ref, std::vector<bool> filter, int every);

  Delivery OnTuple(int64_t time_ms, double value, std::string_view name);

  // Deliveries owed once producer p has sent sent[p] tuples.
  int64_t Expected(const std::vector<int64_t>& sent) const;
  int64_t accepted() const { return accepted_; }
  int64_t wrong() const { return wrong_; }
  // DECIMATE outputs that are genuine, in order, but not every-th samples
  // of the signal: failed deliveries, not corruption.
  int64_t off_phase() const { return off_phase_; }
  // Genuine tuples delivered once but after a newer tuple of their signal:
  // failed deliveries (the echo contract is per-signal order), counted
  // apart from duplicates, which are wrong.
  int64_t reordered() const { return reordered_; }
  // The first wrong and the first reordered delivery, described (empty
  // when none).
  const std::string& first_wrong() const { return first_wrong_; }
  const std::string& first_reordered() const { return first_reordered_; }

 private:
  Reference ref_;
  std::vector<bool> filter_;
  int every_;
  std::vector<int64_t> next_;             // per global signal: next tuple index k
  std::vector<std::vector<bool>> seen_;   // per producer, per sequence number
  int64_t accepted_ = 0;
  int64_t wrong_ = 0;
  int64_t off_phase_ = 0;
  int64_t reordered_ = 0;
  std::string first_wrong_;
  std::string first_reordered_;
};

// Burst REPLAY windows of one session: each must return exactly the
// schedule's tuples stamped inside [t0, t1] that the session's filter
// selects, each once, in any order (the recorder orders a window by stamp,
// then by column).
class ReplayChecker {
 public:
  ReplayChecker(const Reference& ref, std::vector<bool> filter);

  // Opens a window; the expected set is the full schedule's (a window must
  // lie far enough in the past that all of it was sent).
  void Begin(int64_t t0_ms, int64_t t1_ms);
  bool active() const { return active_; }
  bool OnTuple(int64_t time_ms, double value, std::string_view name);
  // Closes the window; `announced` is the server's OK REPLAY count.
  void End(int64_t announced);

  int64_t windows() const { return windows_; }
  int64_t expected() const { return expected_; }
  int64_t accepted() const { return accepted_; }
  int64_t wrong() const { return wrong_; }
  int64_t last_expected() const { return last_expected_; }
  const std::string& first_wrong() const { return first_wrong_; }

 private:
  Reference ref_;
  std::vector<bool> filter_;
  bool active_ = false;
  int64_t t0_ = 0;
  int64_t t1_ = 0;
  std::vector<SeqRange> ranges_;            // per producer
  std::vector<std::vector<bool>> seen_;     // per producer, over its range
  int64_t windows_ = 0;
  int64_t expected_ = 0;
  int64_t accepted_ = 0;
  int64_t wrong_ = 0;
  int64_t last_expected_ = 0;
  int64_t window_accepted_ = 0;
  std::string first_wrong_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_CHECKER_H_
