#include "obs/instruments.h"

#include <algorithm>
#include <cmath>

namespace pbs {
namespace obs {

int LogHistogram::BucketIndex(double value) {
  if (!(value > 0.0)) return 0;  // zero, negative, NaN
  int exponent = 0;
  const double fraction = std::frexp(value, &exponent);  // in [0.5, 1)
  if (exponent < kMinExponent) return 1;
  if (exponent > kMaxExponent) return kNumBuckets - 1;
  // Linear sub-bucket within the octave: (2*fraction - 1) maps [0.5, 1)
  // onto [0, 1).
  int sub = static_cast<int>((2.0 * fraction - 1.0) * kSubBuckets);
  sub = std::min(sub, kSubBuckets - 1);
  return 1 + (exponent - kMinExponent) * kSubBuckets + sub;
}

double LogHistogram::BucketLow(int index) {
  if (index <= 0) return 0.0;
  const int linear = index - 1;
  const int exponent = kMinExponent + linear / kSubBuckets;
  const int sub = linear % kSubBuckets;
  const double fraction =
      0.5 * (1.0 + static_cast<double>(sub) / kSubBuckets);
  return std::ldexp(fraction, exponent);
}

double LogHistogram::BucketHigh(int index) {
  if (index <= 0) return 0.0;
  const int linear = index - 1;
  const int exponent = kMinExponent + linear / kSubBuckets;
  const int sub = linear % kSubBuckets;
  const double fraction =
      0.5 * (1.0 + static_cast<double>(sub + 1) / kSubBuckets);
  return std::ldexp(fraction, exponent);
}

void LogHistogram::RecordN(double value, int64_t n) {
  if (n <= 0) return;
  if (buckets_.empty()) buckets_.assign(kNumBuckets, 0);
  const int index = BucketIndex(value);
  buckets_[index] += n;
  lo_ = std::min(lo_, index);
  hi_ = std::max(hi_, index);
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += n;
  sum_ += value * static_cast<double>(n);
}

void LogHistogram::Merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kNumBuckets, 0);
  for (int i = other.lo_; i <= other.hi_; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  lo_ = std::min(lo_, other.lo_);
  hi_ = std::max(hi_, other.hi_);
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double LogHistogram::OrderStatistic(int64_t i) const {
  i = std::clamp<int64_t>(i, 0, count_ - 1);
  int64_t cumulative = 0;
  for (int b = lo_; b <= hi_; ++b) {
    const int64_t in_bucket = buckets_[b];
    if (in_bucket == 0) continue;
    if (i < cumulative + in_bucket) {
      const double low = BucketLow(b);
      const double high = BucketHigh(b);
      const double position =
          (static_cast<double>(i - cumulative) + 0.5) /
          static_cast<double>(in_bucket);
      return low + (high - low) * position;
    }
    cumulative += in_bucket;
  }
  return max_;  // unreachable when counts are consistent
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Type-7 (R/numpy default), matching util/stats.h::QuantileSorted: rank
  // h = q * (n - 1), interpolate order statistics floor(h) and floor(h)+1.
  const double h = q * static_cast<double>(count_ - 1);
  const int64_t k = static_cast<int64_t>(h);
  const double lower = OrderStatistic(k);
  const double fractional = h - static_cast<double>(k);
  double value = lower;
  if (fractional > 0.0) {
    value += fractional * (OrderStatistic(k + 1) - lower);
  }
  return std::clamp(value, min(), max());
}

}  // namespace obs
}  // namespace pbs
