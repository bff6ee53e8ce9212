// Seeded load schedule and reference model for the end-to-end benchmark.
//
// Everything a run sends, and everything each consumer should therefore
// receive, is a pure function of (workload, seed) plus three instants the run
// fixes at start-up (the display origin, the declaration stamp and the start
// of the measured phase).  The checkers compare every delivery against this
// model; nothing here reads the program's own notion of what was sent.
//
// Sequence numbering: producer p of P owns `signals` names.  Its tuples are
// numbered n = 0, 1, 2, ...; tuple n carries signal n % signals and travels
// with value n * P + p, so any delivered value names its producer, its
// sequence number and hence its expected name and stamp.  Tuples
// 0 .. signals-1 are the declaration (one per signal, sent during set-up);
// the rest go out in batches of kBatch, batch b due at due_ns[b] after the
// measured phase starts (an open-loop Poisson schedule).
#ifndef E2EBENCH_SCHEDULE_H_
#define E2EBENCH_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

inline constexpr size_t kBatch = 256;      // tuples per producer batch
inline constexpr size_t kGroupSize = 16;   // signals per name group
inline constexpr int64_t kDelayMs = 50;    // every session and the display
inline constexpr int64_t kPollMs = 10;     // display and session tick
// The recorder's ring (record_replay): ~55 extents/s at its rate, so 64
// slots of 64 KiB retain ~1.1 s, several times the oldest replayed window's
// age (180 ms).  A REPLAY re-opens the log and validates every slot, so a
// bigger ring stalls the loop longer.
inline constexpr size_t kRecordExtentBytes = 64 * 1024;
inline constexpr size_t kRecordMaxExtents = 64;

enum class WorkloadKind { kTextDisplay, kBinaryStage, kRecordReplay };

// What a viewer subscribes to: everything ("SUB *"), one name group of
// kGroupSize signals, or a quarter of the population, each with one glob.
enum class Subscription { kAll, kGroup, kQuarter };

// One viewer connection of a workload.
struct ViewerSpec {
  bool binary = false;
  int decimate = 1;          // 1 = raw; n = server-side DECIMATE n
  Subscription sub = Subscription::kAll;
  bool record = false;       // this session starts the server's RECORD
  bool replays = false;      // this session issues burst REPLAYs
  int64_t ping_ms = 0;       // PING when send-idle this long (0 = never)
};

// The fixed shape of a workload (see NOTES.md for why each exists).
struct WorkloadSpec {
  std::string name;
  WorkloadKind kind = WorkloadKind::kTextDisplay;
  size_t producers = 1;
  bool binary_producers = false;
  size_t signals_per_producer = 0;   // a multiple of kBatch
  double tuples_per_second = 0;      // all producers together
  // Server options the workload depends on, always set explicitly.
  size_t loops = 1;
  int fanout_workers = 0;
  bool record = false;
  std::vector<ViewerSpec> viewers;
  // Connection order, 'V' = next viewer, 'P' = next producer.  Each
  // connection is up and negotiated before the next one starts.
  std::string order;
};

std::optional<WorkloadSpec> FindWorkload(std::string_view name);
std::vector<std::string> WorkloadNames();

// Deterministic 64-bit generator (splitmix64): identical streams on every
// platform, unlike the standard distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();  // [0, 1)
  // Exponential with the given mean.
  double Exponential(double mean);

 private:
  uint64_t state_;
};

// The signal population: 30-character names in groups of kGroupSize,
// "sig.q<Q>.g<GGGG>.<word>.m<MM>", where group G lies in quarter Q = G % 4.
struct Population {
  size_t producers = 0;
  size_t signals_per_producer = 0;
  std::vector<std::string> names;  // global index g = p * signals_per_producer + s

  size_t size() const { return names.size(); }
  size_t groups() const { return names.size() / kGroupSize; }
  // The SUB glob matching exactly name group `group`.
  std::string GroupPattern(size_t group) const;
  // The SUB glob matching quarter `quarter` (0-3) of the population.
  static std::string QuarterPattern(size_t quarter);
};

Population MakePopulation(const WorkloadSpec& spec, uint64_t seed);

// One producer's timed batches.
struct ProducerSchedule {
  size_t signals = 0;
  std::vector<int64_t> due_ns;  // ascending offsets from the phase start

  size_t decl_tuples() const { return signals; }
  int64_t total_tuples() const {
    return static_cast<int64_t>(signals + due_ns.size() * kBatch);
  }
  // Timed batch carrying tuple n, or -1 for a declaration tuple.
  int64_t BatchOf(int64_t n) const {
    return n < static_cast<int64_t>(signals)
               ? -1
               : (n - static_cast<int64_t>(signals)) / static_cast<int64_t>(kBatch);
  }
};

// Poisson arrivals of kBatch-tuple batches at tuples_per_second / producers
// each, over [0, seconds).  Generated in full before anything is timed.
std::vector<ProducerSchedule> MakeSchedules(const WorkloadSpec& spec, uint64_t seed,
                                            double seconds);

// Value <-> (producer, sequence) mapping.
inline double ValueOf(size_t producers, size_t p, int64_t n) {
  return static_cast<double>(n * static_cast<int64_t>(producers) + static_cast<int64_t>(p));
}
// False when `value` is not one the schedule could have produced.
bool DecodeValue(double value, size_t producers, size_t* p, int64_t* n);

// The instants that turn schedule offsets into wire stamps: the local display
// scope's origin (scope time 0) and the measured phase's start, both on the
// steady clock in ns, plus the declaration tuples' stamp in scope ms.
struct TimeAxis {
  int64_t origin_ns = 0;
  int64_t phase_start_ns = 0;
  int64_t decl_stamp_ms = 0;

  // Scope time (ms) of a steady-clock instant, truncated like Scope::NowMs.
  int64_t StampAt(int64_t t_ns) const { return (t_ns - origin_ns) / 1'000'000; }
  // The instant a tuple stamped `stamp_ms` becomes displayable under the
  // session delay: origin + stamp + DELAY.
  int64_t DeadlineNs(int64_t stamp_ms) const {
    return origin_ns + (stamp_ms + kDelayMs) * 1'000'000;
  }
  int64_t Stamp(const ProducerSchedule& s, int64_t n) const {
    int64_t b = s.BatchOf(n);
    return b < 0 ? decl_stamp_ms : StampAt(phase_start_ns + s.due_ns[static_cast<size_t>(b)]);
  }
};

// Tuples of signal `s` among the first `sent` tuples of a producer with
// `signals` signals.
int64_t TuplesOfSignal(int64_t sent, size_t signals, size_t s);
// Of those, how many a DECIMATE `every` stage emits (the first, then every
// every-th).
int64_t Decimated(int64_t tuples, int every);

// Half-open range of sequence numbers [lo, hi) of one producer whose stamps
// fall in [t0_ms, t1_ms], limited to the first `sent` tuples.  Stamps are
// non-decreasing in n, so the range is contiguous.
struct SeqRange {
  int64_t lo = 0;
  int64_t hi = 0;
};
SeqRange WindowRange(const ProducerSchedule& s, const TimeAxis& axis, int64_t sent,
                     int64_t t0_ms, int64_t t1_ms);
// Tuples in [lo, hi) whose signal is selected by `filter` (by local index).
int64_t CountSelected(SeqRange range, size_t signals, const std::vector<bool>& filter,
                      size_t filter_offset);

// Reference subscription semantics: POSIX fnmatch over the population, kept
// independent of the server's own glob matcher.
std::vector<bool> SelectSignals(const Population& pop, const std::vector<std::string>& globs);

}  // namespace e2ebench

#endif  // E2EBENCH_SCHEDULE_H_
