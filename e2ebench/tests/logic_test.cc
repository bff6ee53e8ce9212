// Tests of the benchmark's own logic: the seeded schedule, the reference
// model of what each consumer is owed, the percentile and deadline
// arithmetic, the checkers, and a short smoke run of every workload.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "checker.h"
#include "harness.h"
#include "histogram.h"
#include "schedule.h"

namespace e2ebench {
namespace {

WorkloadSpec Spec(const char* name) {
  std::optional<WorkloadSpec> w = FindWorkload(name);
  EXPECT_TRUE(w.has_value()) << name;
  return *w;
}

TEST(Schedule, SameSeedSameInputs) {
  for (const std::string& name : WorkloadNames()) {
    WorkloadSpec w = Spec(name.c_str());
    auto a = MakeSchedules(w, 7, 0.5);
    auto b = MakeSchedules(w, 7, 0.5);
    auto c = MakeSchedules(w, 8, 0.5);
    ASSERT_EQ(a.size(), w.producers);
    for (size_t p = 0; p < a.size(); ++p) {
      EXPECT_EQ(a[p].due_ns, b[p].due_ns);
      EXPECT_NE(a[p].due_ns, c[p].due_ns);
    }
    EXPECT_EQ(MakePopulation(w, 7).names, MakePopulation(w, 7).names);
    EXPECT_NE(MakePopulation(w, 7).names, MakePopulation(w, 8).names);
  }
}

TEST(Schedule, PoissonRateAndOrder) {
  WorkloadSpec w = Spec("text_display");
  auto s = MakeSchedules(w, 3, 2.0);
  const double expected = w.tuples_per_second * 2.0 / kBatch;
  EXPECT_NEAR(static_cast<double>(s[0].due_ns.size()), expected, expected * 0.05);
  EXPECT_TRUE(std::is_sorted(s[0].due_ns.begin(), s[0].due_ns.end()));
  EXPECT_LT(s[0].due_ns.back(), 2'000'000'000);
}

TEST(Schedule, PopulationNamesAndGlobs) {
  WorkloadSpec w = Spec("record_replay");
  Population pop = MakePopulation(w, 5);
  ASSERT_EQ(pop.size(), 256u);
  for (const std::string& n : pop.names) {
    EXPECT_EQ(n.size(), 30u) << n;
  }
  std::set<std::string> unique(pop.names.begin(), pop.names.end());
  EXPECT_EQ(unique.size(), pop.size());
  auto count = [](const std::vector<bool>& v) { return std::count(v.begin(), v.end(), true); };
  std::vector<bool> group = SelectSignals(pop, {pop.GroupPattern(3)});
  EXPECT_EQ(count(group), 16);
  for (size_t g = 48; g < 64; ++g) {
    EXPECT_TRUE(group[g]);
  }
  EXPECT_EQ(count(SelectSignals(pop, {Population::QuarterPattern(2)})), 64);
  EXPECT_EQ(count(SelectSignals(pop, {"*"})), 256);
}

TEST(Schedule, ValueRoundTrip) {
  size_t p = 0;
  int64_t n = 0;
  ASSERT_TRUE(DecodeValue(ValueOf(2, 1, 123456), 2, &p, &n));
  EXPECT_EQ(p, 1u);
  EXPECT_EQ(n, 123456);
  EXPECT_FALSE(DecodeValue(1.5, 1, &p, &n));
  EXPECT_FALSE(DecodeValue(-2.0, 1, &p, &n));
}

TEST(Expected, TuplesPerSignalAndDecimation) {
  // 3 signals, 10 tuples sent: signal 0 has 4 tuples, signals 1 and 2 have 3.
  EXPECT_EQ(TuplesOfSignal(10, 3, 0), 4);
  EXPECT_EQ(TuplesOfSignal(10, 3, 1), 3);
  EXPECT_EQ(TuplesOfSignal(10, 3, 2), 3);
  EXPECT_EQ(TuplesOfSignal(2, 3, 2), 0);
  // DECIMATE 10 emits the 1st, 11th, 21st, ...
  EXPECT_EQ(Decimated(0, 10), 0);
  EXPECT_EQ(Decimated(1, 10), 1);
  EXPECT_EQ(Decimated(10, 10), 1);
  EXPECT_EQ(Decimated(11, 10), 2);
}

TEST(Expected, ReplayWindowMatchesBruteForce) {
  WorkloadSpec w = Spec("record_replay");
  Population pop = MakePopulation(w, 9);
  auto scheds = MakeSchedules(w, 9, 1.0);
  TimeAxis axis{.origin_ns = 1'000'000'000, .phase_start_ns = 1'300'000'000, .decl_stamp_ms = 200};
  std::vector<bool> filter = SelectSignals(pop, {Population::QuarterPattern(1)});
  const ProducerSchedule& s = scheds[0];
  for (int64_t t0 : {150, 300, 550, 900}) {
    const int64_t t1 = t0 + 249;
    SeqRange r = WindowRange(s, axis, s.total_tuples(), t0, t1);
    int64_t brute = 0;
    for (int64_t n = 0; n < s.total_tuples(); ++n) {
      int64_t stamp = axis.Stamp(s, n);
      bool in = stamp >= t0 && stamp <= t1;
      EXPECT_EQ(in, n >= r.lo && n < r.hi) << "n=" << n;
      brute += in && filter[static_cast<size_t>(n % 256)] ? 1 : 0;
    }
    EXPECT_EQ(CountSelected(r, s.signals, filter, 0), brute) << t0;
  }
}

TEST(TimeAxis, StampsAndDeadlines) {
  TimeAxis axis{.origin_ns = 5'000'000'123, .phase_start_ns = 0, .decl_stamp_ms = 0};
  EXPECT_EQ(axis.StampAt(axis.origin_ns), 0);
  EXPECT_EQ(axis.StampAt(axis.origin_ns + 999'999), 0);
  EXPECT_EQ(axis.StampAt(axis.origin_ns + 1'000'000), 1);
  // A tuple stamped 7 becomes displayable exactly at origin + 7 + DELAY ms.
  EXPECT_EQ(axis.DeadlineNs(7), axis.origin_ns + (7 + kDelayMs) * 1'000'000);
}

TEST(Histogram, BucketsAreContiguousAndTight) {
  for (int b = 1; b < 40 * LogHistogram::kSub; ++b) {
    EXPECT_EQ(LogHistogram::BucketLower(b - 1) + LogHistogram::BucketWidth(b - 1),
              LogHistogram::BucketLower(b));
    EXPECT_EQ(LogHistogram::BucketOf(LogHistogram::BucketLower(b)), b);
    if (b >= LogHistogram::kSub) {
      EXPECT_LE(static_cast<double>(LogHistogram::BucketWidth(b)) / LogHistogram::BucketLower(b),
                1.0 / LogHistogram::kSub + 1e-12);
    }
  }
}

TEST(Histogram, QuantilesOfKnownData) {
  LogHistogram h;
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  for (int64_t v = 1; v <= 100000; ++v) {
    h.Add(v * 1000);  // 1 us .. 100 ms in ns
  }
  EXPECT_EQ(h.count(), 100000);
  EXPECT_NEAR(h.Quantile(0.5), 50'000'000.0, 50'000'000.0 * 0.008);
  EXPECT_NEAR(h.Quantile(0.99), 99'000'000.0, 99'000'000.0 * 0.008);
  EXPECT_EQ(h.Quantile(1.0), 100'000'000.0);
  EXPECT_EQ(h.max(), 100'000'000);
  LogHistogram small;
  for (int64_t v : {3, 1, 2}) {
    small.Add(v);
  }
  EXPECT_EQ(small.Quantile(0.5), 2.0);  // exact below 128
  LogHistogram wide;  // eight samples in one bucket, [1024, 1032)
  for (int64_t v = 1024; v < 1032; ++v) {
    wide.Add(v);
  }
  ASSERT_EQ(LogHistogram::BucketOf(1024), LogHistogram::BucketOf(1031));
  EXPECT_NEAR(wide.Quantile(0.25), 1025.0, 0.5);  // ranks spread over the bucket
  EXPECT_NEAR(wide.Quantile(0.5), 1027.0, 0.5);
  LogHistogram merged;
  merged.Merge(small);
  merged.Merge(small);
  EXPECT_EQ(merged.count(), 6);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

// A two-signal, one-producer model for the checkers.
class CheckerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pop_.producers = 1;
    pop_.signals_per_producer = 2;
    pop_.names = {"a", "b"};
    sched_.resize(1);
    sched_[0].signals = 2;
    // Timed batches 1 ms apart; kBatch tuples each alternate a, b, a, b...
    for (int b = 0; b < 4; ++b) {
      sched_[0].due_ns.push_back(b * 1'000'000);
    }
    axis_ = TimeAxis{.origin_ns = 0, .phase_start_ns = 10'000'000, .decl_stamp_ms = 5};
    ref_ = Reference{&pop_, &sched_, &axis_};
  }
  // The wire form of tuple n.
  void Deliver(StreamChecker& c, int64_t n) {
    c.OnTuple(axis_.Stamp(sched_[0], n), ValueOf(1, 0, n), pop_.names[n % 2]);
  }
  Population pop_;
  std::vector<ProducerSchedule> sched_;
  TimeAxis axis_;
  Reference ref_;
};

TEST_F(CheckerTest, RawStreamCountsMissingReorderedAndDuplicates) {
  StreamChecker c(ref_, {true, false}, 1);  // subscribed to "a" only
  Deliver(c, 0);    // declaration of a
  Deliver(c, 2);    // first timed a
  Deliver(c, 6);    // skips n = 4: one missing
  EXPECT_EQ(c.wrong(), 0);
  Deliver(c, 6);    // duplicate
  Deliver(c, 3);    // "b" is not subscribed
  EXPECT_EQ(c.wrong(), 2);
  Deliver(c, 4);    // the skipped one, late: reordered, a failure but not wrong
  EXPECT_EQ(c.reordered(), 1);
  EXPECT_EQ(c.wrong(), 2);
  c.OnTuple(axis_.Stamp(sched_[0], 8) + 1, ValueOf(1, 0, 8), "a");  // wrong stamp
  c.OnTuple(axis_.Stamp(sched_[0], 8), ValueOf(1, 0, 8), "b");      // wrong name
  EXPECT_EQ(c.wrong(), 4);
  std::vector<int64_t> sent = {sched_[0].total_tuples()};
  EXPECT_EQ(c.Expected(sent), TuplesOfSignal(sent[0], 2, 0));
  EXPECT_EQ(c.accepted(), 3);  // the other owed deliveries are missing
}

TEST_F(CheckerTest, DecimateAcceptsEveryNthSampleOnly) {
  StreamChecker c(ref_, {true, true}, 3);
  for (int64_t n : {0, 1, 6, 7}) {  // k = 0 and k = 3 of each signal
    Deliver(c, n);
  }
  EXPECT_EQ(c.wrong(), 0);
  Deliver(c, 8);  // k = 4 of "a": genuine and in order, but not a DECIMATE 3 output
  EXPECT_EQ(c.off_phase(), 1);
  EXPECT_EQ(c.wrong(), 0);
  Deliver(c, 2);  // k = 1 of "a", after k = 4: reordered
  EXPECT_EQ(c.reordered(), 1);
  Deliver(c, 8);  // k = 4 again: duplicate
  EXPECT_EQ(c.wrong(), 1);
  EXPECT_EQ(c.accepted(), 4);
  std::vector<int64_t> sent = {sched_[0].total_tuples()};
  EXPECT_EQ(c.Expected(sent), 2 * Decimated(TuplesOfSignal(sent[0], 2, 0), 3));
}

TEST_F(CheckerTest, LateDuplicateIsWrongHoweverFarBack) {
  StreamChecker c(ref_, {true, true}, 1);
  const int64_t last = sched_[0].total_tuples() - 1;
  for (int64_t n = 0; n <= last; ++n) {
    Deliver(c, n);
  }
  ASSERT_GT(last / 2, 64);  // well past any sliding window of one signal
  EXPECT_EQ(c.wrong(), 0);
  Deliver(c, 2);  // k = 1 of "a", repeated after hundreds of newer ones
  EXPECT_EQ(c.wrong(), 1);
  EXPECT_EQ(c.reordered(), 0);
  EXPECT_EQ(c.accepted(), last + 1);
}

TEST_F(CheckerTest, ReplayWindowExactlyOnce) {
  ReplayChecker r(ref_, {true, true});
  const int64_t t0 = axis_.Stamp(sched_[0], 2 + kBatch);  // timed batch 1
  r.Begin(t0, t0);
  EXPECT_EQ(r.last_expected(), static_cast<int64_t>(kBatch));
  const int64_t n = 2 + kBatch;
  EXPECT_TRUE(r.OnTuple(t0, ValueOf(1, 0, n), "a"));
  EXPECT_FALSE(r.OnTuple(t0, ValueOf(1, 0, n), "a"));  // duplicate
  EXPECT_FALSE(r.OnTuple(axis_.Stamp(sched_[0], 2), ValueOf(1, 0, 2), "a"));  // outside
  r.End(static_cast<int64_t>(kBatch));
  EXPECT_EQ(r.accepted(), 1);
  EXPECT_EQ(r.expected(), static_cast<int64_t>(kBatch));
  EXPECT_EQ(r.wrong(), 2);
}

// The metric names BENCHMARK.json declares for one section.
std::set<std::string> DeclaredMetrics(const std::string& section) {
  std::ifstream in(std::string(E2EBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  std::string all = text.str();
  size_t begin = all.find("\"" + section + "\"");
  size_t end = all.find(']', begin);
  std::set<std::string> names;
  std::regex name_re("\"name\":\\s*\"([^\"]+)\"");
  std::string part = all.substr(begin, end - begin);
  for (std::sregex_iterator it(part.begin(), part.end(), name_re), last; it != last; ++it) {
    names.insert((*it)[1]);
  }
  return names;
}

std::set<std::string> Names(const RunResult& r) {
  std::set<std::string> names;
  for (const Metric& m : r.metrics) {
    names.insert(m.name);
  }
  return names;
}

class SmokeTest : public ::testing::TestWithParam<std::string> {
 protected:
  RunResult Run(bool trace) {
    std::string dir = ::testing::TempDir() + "e2ebench-XXXXXX";
    EXPECT_NE(mkdtemp(dir.data()), nullptr);
    RunOptions o;
    o.workload = GetParam();
    o.seed = 3;
    o.seconds = 1;
    o.trace = trace;
    o.work_dir = dir;
    RunResult r = RunBenchmark(o);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return r;
  }
};

TEST_P(SmokeTest, RunsCorrectlyAndReportsDeclaredMetrics) {
  RunResult r = Run(false);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_TRUE(r.correct);
  EXPECT_GT(r.attempted, 0);
  EXPECT_EQ(Names(r), DeclaredMetrics("end_to_end"));
  for (const Metric& m : r.metrics) {
    EXPECT_GT(m.value, 0.0) << m.name;
  }
}

TEST_P(SmokeTest, TracedRunReportsEveryPerLayerMetric) {
  RunResult r = Run(true);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(Names(r), DeclaredMetrics("per_layer"));
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeTest, ::testing::ValuesIn(WorkloadNames()));

}  // namespace
}  // namespace e2ebench
