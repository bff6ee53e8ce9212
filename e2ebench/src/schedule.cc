#include "schedule.h"

#include <fnmatch.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2ebench {

namespace {

std::vector<WorkloadSpec> Workloads() {
  std::vector<WorkloadSpec> all;
  {
    WorkloadSpec w;
    w.name = "text_display";
    w.kind = WorkloadKind::kTextDisplay;
    w.producers = 1;
    w.binary_producers = false;
    w.signals_per_producer = 1024;
    w.tuples_per_second = 400'000;
    w.loops = 1;
    w.fanout_workers = 1;
    w.viewers = {ViewerSpec{.binary = false, .decimate = 1, .sub = Subscription::kGroup}};
    w.order = "VP";
    all.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "binary_stage";
    w.kind = WorkloadKind::kBinaryStage;
    w.producers = 1;
    w.binary_producers = true;
    w.signals_per_producer = 4096;
    w.tuples_per_second = 200'000;
    w.loops = 2;
    w.fanout_workers = 0;
    // Two binary viewers share one DECIMATE 10 stage group; a third watches
    // everything raw, as text, and makes most of the lag samples.  Its tail,
    // like the stage members', still moves with host load, so the workload
    // is not gated (NOTES.md, Steadiness).  The members PING every 2 ms; the
    // PINGs carry their ACKs, so relayed frames never wait on a delayed ACK
    // (finding 1).
    w.viewers = {ViewerSpec{.binary = true, .decimate = 10, .ping_ms = 2},
                 ViewerSpec{.binary = true, .decimate = 10, .ping_ms = 2},
                 ViewerSpec{.binary = false}};
    // With the least-loaded hand-off this puts both stage members on loop 0
    // and the producer and the raw viewer on loop 1.
    w.order = "VPVV";
    all.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "record_replay";
    w.kind = WorkloadKind::kRecordReplay;
    w.producers = 1;
    w.binary_producers = true;
    w.signals_per_producer = 256;
    w.tuples_per_second = 200'000;
    w.loops = 1;
    w.fanout_workers = 0;
    w.record = true;
    w.viewers = {ViewerSpec{.binary = false, .record = true},
                 ViewerSpec{.binary = true, .sub = Subscription::kQuarter, .replays = true}};
    w.order = "VVP";
    all.push_back(w);
  }
  return all;
}

}  // namespace

std::optional<WorkloadSpec> FindWorkload(std::string_view name) {
  for (WorkloadSpec& w : Workloads()) {
    if (w.name == name) {
      return w;
    }
  }
  return std::nullopt;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : Workloads()) {
    names.push_back(w.name);
  }
  return names;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

double Rng::Exponential(double mean) { return -std::log1p(-Uniform()) * mean; }

std::string Population::GroupPattern(size_t group) const {
  // Every name of a group shares the "sig.qQ.gGGGG.<word>." prefix.
  const std::string& first = names[group * kGroupSize];
  return first.substr(0, first.rfind('.') + 1) + "*";
}

std::string Population::QuarterPattern(size_t quarter) {
  return "sig.q" + std::to_string(quarter) + ".*";
}

Population MakePopulation(const WorkloadSpec& spec, uint64_t seed) {
  Population pop;
  pop.producers = spec.producers;
  pop.signals_per_producer = spec.signals_per_producer;
  Rng rng(seed ^ 0x6e616d6573ull);
  size_t total = spec.producers * spec.signals_per_producer;
  pop.names.reserve(total);
  std::string word;
  for (size_t g = 0; g < total / kGroupSize; ++g) {
    word.clear();
    for (int i = 0; i < 13; ++i) {
      word.push_back(static_cast<char>('a' + rng.Next() % 26));
    }
    for (size_t m = 0; m < kGroupSize; ++m) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "sig.q%zu.g%04zu.%s.m%02zu", g % 4, g, word.c_str(), m);
      pop.names.emplace_back(buf);
    }
  }
  return pop;
}

std::vector<ProducerSchedule> MakeSchedules(const WorkloadSpec& spec, uint64_t seed,
                                            double seconds) {
  std::vector<ProducerSchedule> out(spec.producers);
  const double batches_per_s =
      spec.tuples_per_second / static_cast<double>(spec.producers) / kBatch;
  const double mean_gap_ns = 1e9 / batches_per_s;
  const double end_ns = seconds * 1e9;
  for (size_t p = 0; p < spec.producers; ++p) {
    Rng rng(seed * 0x100000001B3ull + p + 1);
    ProducerSchedule& s = out[p];
    s.signals = spec.signals_per_producer;
    s.due_ns.reserve(static_cast<size_t>(seconds * batches_per_s * 1.1) + 16);
    double t = rng.Exponential(mean_gap_ns);
    while (t < end_ns) {
      s.due_ns.push_back(static_cast<int64_t>(t));
      t += rng.Exponential(mean_gap_ns);
    }
  }
  return out;
}

bool DecodeValue(double value, size_t producers, size_t* p, int64_t* n) {
  if (!(value >= 0.0) || value > 9.0e15 || std::floor(value) != value) {
    return false;
  }
  int64_t v = static_cast<int64_t>(value);
  *p = static_cast<size_t>(v % static_cast<int64_t>(producers));
  *n = v / static_cast<int64_t>(producers);
  return true;
}

int64_t TuplesOfSignal(int64_t sent, size_t signals, size_t s) {
  int64_t si = static_cast<int64_t>(s);
  return sent <= si ? 0 : (sent - 1 - si) / static_cast<int64_t>(signals) + 1;
}

int64_t Decimated(int64_t tuples, int every) { return (tuples + every - 1) / every; }

SeqRange WindowRange(const ProducerSchedule& s, const TimeAxis& axis, int64_t sent,
                     int64_t t0_ms, int64_t t1_ms) {
  // Declaration tuples precede every timed one and carry the oldest stamp.
  auto first_batch_at_or_after = [&](int64_t t_ms) {
    auto it = std::partition_point(s.due_ns.begin(), s.due_ns.end(), [&](int64_t due) {
      return axis.StampAt(axis.phase_start_ns + due) < t_ms;
    });
    return static_cast<int64_t>(it - s.due_ns.begin());
  };
  const int64_t decl = static_cast<int64_t>(s.signals);
  auto seq_at = [&](int64_t t_ms) {  // first n whose stamp >= t_ms
    if (axis.decl_stamp_ms >= t_ms) {
      return int64_t{0};
    }
    return decl + first_batch_at_or_after(t_ms) * static_cast<int64_t>(kBatch);
  };
  SeqRange r;
  r.lo = std::min(seq_at(t0_ms), sent);
  r.hi = std::min(seq_at(t1_ms + 1), sent);
  r.hi = std::max(r.hi, r.lo);
  return r;
}

int64_t CountSelected(SeqRange range, size_t signals, const std::vector<bool>& filter,
                      size_t filter_offset) {
  int64_t count = 0;
  for (size_t s = 0; s < signals; ++s) {
    if (filter[filter_offset + s]) {
      count += TuplesOfSignal(range.hi, signals, s) - TuplesOfSignal(range.lo, signals, s);
    }
  }
  return count;
}

std::vector<bool> SelectSignals(const Population& pop, const std::vector<std::string>& globs) {
  std::vector<bool> out(pop.size(), false);
  for (size_t g = 0; g < pop.size(); ++g) {
    for (const std::string& glob : globs) {
      if (fnmatch(glob.c_str(), pop.names[g].c_str(), 0) == 0) {
        out[g] = true;
        break;
      }
    }
  }
  return out;
}

}  // namespace e2ebench
