#include "histogram.h"

#include <algorithm>
#include <cmath>

namespace e2ebench {

int LogHistogram::BucketOf(int64_t v) {
  if (v < kSub) {
    return v < 0 ? 0 : static_cast<int>(v);
  }
  int e = 63 - __builtin_clzll(static_cast<uint64_t>(v));  // >= kSubBits
  int sub = static_cast<int>((v >> (e - kSubBits)) & (kSub - 1));
  return ((e - kSubBits + 1) << kSubBits) + sub;
}

int64_t LogHistogram::BucketLower(int bucket) {
  if (bucket < kSub) {
    return bucket;
  }
  int e = (bucket >> kSubBits) + kSubBits - 1;
  int64_t sub = bucket & (kSub - 1);
  return (kSub + sub) << (e - kSubBits);
}

int64_t LogHistogram::BucketWidth(int bucket) {
  return bucket < kSub ? 1 : int64_t{1} << ((bucket >> kSubBits) - 1);
}

void LogHistogram::Add(int64_t v) {
  v = std::max<int64_t>(v, 0);
  counts_[static_cast<size_t>(BucketOf(v))] += 1;
  count_ += 1;
  max_ = std::max(max_, v);
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  max_ = std::max(max_, other.max_);
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  int64_t rank = static_cast<int64_t>(std::ceil(std::clamp(q, 0.0, 1.0) * count_));
  rank = std::max<int64_t>(rank, 1);
  if (rank == count_) {
    return static_cast<double>(max_);
  }
  int64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (seen + counts_[i] >= rank) {
      int b = static_cast<int>(i);
      const double within =
          (static_cast<double>(rank - seen) - 0.5) / static_cast<double>(counts_[i]);
      double v = static_cast<double>(BucketLower(b)) +
                 static_cast<double>(BucketWidth(b) - 1) * within;
      return std::min(v, static_cast<double>(max_));
    }
    seen += counts_[i];
  }
  return static_cast<double>(max_);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

}  // namespace e2ebench
