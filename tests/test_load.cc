#include "load/load_meter.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace gscope {
namespace {

// Sleeps until the spinner has counted some work, for at most 5 s.  A fixed
// window is not enough: on a busy host the nice(19) thread can go without
// CPU for longer than any few milliseconds.
void WaitForIterations(const BackgroundSpinner& spinner) {
  Clock* clock = SteadyClock::Instance();
  const Nanos deadline = clock->NowNs() + MillisToNanos(5000);
  while (spinner.iterations() == 0 && clock->NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(LoadMeterTest, SpinForCountsIterations) {
  LoadResult result = SpinFor(MillisToNanos(20));
  EXPECT_GT(result.iterations, 0);
  EXPECT_GT(result.seconds, 0.015);
  EXPECT_GT(result.IterationsPerSecond(), 0.0);
}

TEST(LoadMeterTest, BackgroundSpinnerStartStop) {
  BackgroundSpinner spinner;
  EXPECT_FALSE(spinner.running());
  spinner.Start();
  EXPECT_TRUE(spinner.running());
  WaitForIterations(spinner);
  LoadResult result = spinner.Stop();
  EXPECT_FALSE(spinner.running());
  EXPECT_GT(result.iterations, 0);
  EXPECT_GT(result.seconds, 0.0);
}

TEST(LoadMeterTest, StopWithoutStartIsEmpty) {
  BackgroundSpinner spinner;
  LoadResult result = spinner.Stop();
  EXPECT_EQ(result.iterations, 0);
}

TEST(LoadMeterTest, RestartableSpinner) {
  BackgroundSpinner spinner;
  spinner.Start();
  WaitForIterations(spinner);
  LoadResult first = spinner.Stop();
  spinner.Start();
  WaitForIterations(spinner);
  LoadResult second = spinner.Stop();
  EXPECT_GT(first.iterations, 0);
  EXPECT_GT(second.iterations, 0);
}

TEST(LoadMeterTest, OverheadRatioBasics) {
  LoadResult baseline{.iterations = 1000, .seconds = 1.0};
  LoadResult loaded{.iterations = 980, .seconds = 1.0};
  EXPECT_NEAR(OverheadRatio(baseline, loaded), 0.02, 1e-9);
}

TEST(LoadMeterTest, OverheadRatioClampsNoise) {
  LoadResult baseline{.iterations = 1000, .seconds = 1.0};
  LoadResult faster{.iterations = 1010, .seconds = 1.0};
  EXPECT_DOUBLE_EQ(OverheadRatio(baseline, faster), 0.0);
}

TEST(LoadMeterTest, OverheadRatioZeroBaseline) {
  LoadResult baseline{};
  LoadResult loaded{.iterations = 10, .seconds = 1.0};
  EXPECT_DOUBLE_EQ(OverheadRatio(baseline, loaded), 0.0);
}

TEST(LoadMeterTest, RatesNormalizeDuration) {
  LoadResult a{.iterations = 1000, .seconds = 1.0};
  LoadResult b{.iterations = 2000, .seconds = 2.0};
  EXPECT_DOUBLE_EQ(OverheadRatio(a, b), 0.0);  // same rate, no overhead
}

}  // namespace
}  // namespace gscope
