// Constant-memory latency histogram and order statistics.
//
// Per-tuple vectors would make the benchmark's own memory grow with the run
// and leak into peak_rss_mb; a log-bucket histogram holds any number of
// samples in a fixed 64 KiB at under 0.8% resolution.
#ifndef E2EBENCH_HISTOGRAM_H_
#define E2EBENCH_HISTOGRAM_H_

#include <array>
#include <cstdint>
#include <vector>

namespace e2ebench {

// Non-negative integer samples (ns, us, ...).  Values below 128 are exact;
// above, each power of two splits into 128 buckets, so a bucket spans less
// than 1/128 of its lower bound.
class LogHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr int kSub = 1 << kSubBits;

  void Add(int64_t v);
  void Merge(const LogHistogram& other);
  int64_t count() const { return count_; }
  int64_t max() const { return max_; }
  // Nearest-rank quantile, q in [0, 1]: the ceil(q * count)-th smallest
  // sample, placed within its bucket by its rank among the bucket's samples
  // as if they were spread evenly (exact below 128 and for the maximum).
  // 0 when empty.
  double Quantile(double q) const;

  static int BucketOf(int64_t v);
  // [lower, lower + width) covered by a bucket.
  static int64_t BucketLower(int bucket);
  static int64_t BucketWidth(int bucket);

 private:
  std::array<int64_t, 64 * kSub> counts_{};
  int64_t count_ = 0;
  int64_t max_ = 0;
};

// Median of a small sample (copied; linear interpolation between the middle
// two for even sizes).  0 when empty.
double Median(std::vector<double> values);

}  // namespace e2ebench

#endif  // E2EBENCH_HISTOGRAM_H_
