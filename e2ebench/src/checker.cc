#include "checker.h"

#include <cstdio>
#include <utility>

namespace e2ebench {

Delivery Identify(const Reference& ref, int64_t time_ms, double value, std::string_view name) {
  Delivery d;
  const Population& pop = *ref.pop;
  if (!DecodeValue(value, pop.producers, &d.producer, &d.seq)) {
    return d;
  }
  const ProducerSchedule& s = (*ref.schedules)[d.producer];
  if (d.seq >= s.total_tuples()) {
    return d;
  }
  size_t g = d.producer * pop.signals_per_producer +
             static_cast<size_t>(d.seq % static_cast<int64_t>(s.signals));
  d.stamp_ms = ref.axis->Stamp(s, d.seq);
  d.ok = name == pop.names[g] && time_ms == d.stamp_ms;
  return d;
}

std::string DescribeDelivery(const char* why, int64_t time_ms, double value,
                             std::string_view name) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s: %lld %.17g ", why, static_cast<long long>(time_ms), value);
  return buf + std::string(name);
}

StreamChecker::StreamChecker(const Reference& ref, std::vector<bool> filter, int every)
    : ref_(ref),
      filter_(std::move(filter)),
      every_(every),
      next_(filter_.size(), 0) {
  for (const ProducerSchedule& s : *ref_.schedules) {
    seen_.emplace_back(static_cast<size_t>(s.total_tuples()), false);
  }
}

Delivery StreamChecker::OnTuple(int64_t time_ms, double value, std::string_view name) {
  Delivery d = Identify(ref_, time_ms, value, name);
  const char* why = "not in the schedule";
  if (d.ok) {
    const int64_t signals = static_cast<int64_t>(ref_.pop->signals_per_producer);
    size_t g = d.producer * ref_.pop->signals_per_producer +
               static_cast<size_t>(d.seq % signals);
    int64_t k = d.seq / signals;  // this tuple is the signal's k-th
    auto seen = seen_[d.producer].begin() + d.seq;
    if (!filter_[g]) {
      d.ok = false;
      why = "not subscribed";
    } else if (*seen) {
      d.ok = false;
      why = "duplicate";
    } else {
      *seen = true;
      if (k < next_[g]) {
        // Genuine and not seen before, but after a newer tuple of its
        // signal: a failed delivery (it broke the order), not corruption.
        if (reordered_ == 0) {
          first_reordered_ = DescribeDelivery("reordered", time_ms, value, name);
        }
        reordered_ += 1;
      } else {
        next_[g] = k + 1;
        if (k % every_ == 0) {
          accepted_ += 1;
        } else {
          // A genuine tuple the stage should not have emitted: it saw a
          // different input sequence, i.e. samples were lost upstream.
          off_phase_ += 1;
        }
      }
    }
  }
  if (!d.ok) {
    if (wrong_ == 0) {
      first_wrong_ = DescribeDelivery(why, time_ms, value, name);
    }
    wrong_ += 1;
  }
  return d;
}

int64_t StreamChecker::Expected(const std::vector<int64_t>& sent) const {
  const size_t signals = ref_.pop->signals_per_producer;
  int64_t total = 0;
  for (size_t g = 0; g < filter_.size(); ++g) {
    if (filter_[g]) {
      total += Decimated(TuplesOfSignal(sent[g / signals], signals, g % signals), every_);
    }
  }
  return total;
}

ReplayChecker::ReplayChecker(const Reference& ref, std::vector<bool> filter)
    : ref_(ref), filter_(std::move(filter)) {}

void ReplayChecker::Begin(int64_t t0_ms, int64_t t1_ms) {
  active_ = true;
  t0_ = t0_ms;
  t1_ = t1_ms;
  window_accepted_ = 0;
  last_expected_ = 0;
  const std::vector<ProducerSchedule>& scheds = *ref_.schedules;
  ranges_.assign(scheds.size(), SeqRange{});
  seen_.resize(scheds.size());
  for (size_t p = 0; p < scheds.size(); ++p) {
    const ProducerSchedule& s = scheds[p];
    ranges_[p] = WindowRange(s, *ref_.axis, s.total_tuples(), t0_ms, t1_ms);
    seen_[p].assign(static_cast<size_t>(ranges_[p].hi - ranges_[p].lo), false);
    last_expected_ += CountSelected(ranges_[p], s.signals, filter_, p * s.signals);
  }
}

bool ReplayChecker::OnTuple(int64_t time_ms, double value, std::string_view name) {
  Delivery d = Identify(ref_, time_ms, value, name);
  bool ok = d.ok && active_;
  const char* why = "not in the schedule";
  if (ok) {
    const size_t signals = ref_.pop->signals_per_producer;
    size_t g = d.producer * signals + static_cast<size_t>(d.seq % static_cast<int64_t>(signals));
    const SeqRange& r = ranges_[d.producer];
    ok = filter_[g] && d.stamp_ms >= t0_ && d.stamp_ms <= t1_ && d.seq >= r.lo && d.seq < r.hi;
    why = "outside the window or filter";
    if (ok) {
      auto bit = seen_[d.producer].begin() + (d.seq - r.lo);
      ok = !*bit;
      *bit = true;
      why = "duplicate";
    }
  }
  if (ok) {
    window_accepted_ += 1;
  } else {
    if (wrong_ == 0) {
      first_wrong_ = DescribeDelivery(why, time_ms, value, name);
    }
    wrong_ += 1;
  }
  return ok;
}

void ReplayChecker::End(int64_t announced) {
  if (!active_) {
    return;
  }
  active_ = false;
  windows_ += 1;
  expected_ += last_expected_;
  accepted_ += window_accepted_;
  // An announced count short of the window shows up as missing records; one
  // above it means the server claims records the window does not hold.
  if (announced > last_expected_) {
    wrong_ += announced - last_expected_;
  }
}

}  // namespace e2ebench
