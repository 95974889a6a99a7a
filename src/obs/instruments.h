#ifndef PBS_OBS_INSTRUMENTS_H_
#define PBS_OBS_INSTRUMENTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pbs {
namespace obs {

/// Monotonic named counter (the Registry owns the name).
struct Counter {
  int64_t value = 0;

  void Add(int64_t n = 1) { value += n; }
  void Merge(const Counter& other) { value += other.value; }

  friend bool operator==(const Counter&, const Counter&) = default;
};

/// HDR-style log-bucketed latency histogram: each power-of-two range
/// ("octave") is split into 64 linear sub-buckets, bounding the relative
/// quantile error at ~1.6% across ~21 decades. Recording is O(1) and
/// allocation-free after the first sample; histograms merge by elementwise
/// bucket addition, so a chunk-ordered merge is bitwise deterministic
/// regardless of how many threads produced the pieces.
///
/// Quantile() mirrors the type-7 interpolated semantics of
/// util/stats.h::QuantileSorted (the single quantile definition this repo
/// standardizes on — see DESIGN.md §8): it interpolates between the two
/// neighboring order statistics, each located by a cumulative bucket walk
/// and positioned linearly within its bucket. Agreement with QuantileSorted
/// is therefore exact up to bucket resolution.
class LogHistogram {
 public:
  static constexpr int kSubBucketBits = 6;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // 64 per octave
  static constexpr int kMinExponent = -30;  // ~9.3e-10: below collapses here
  static constexpr int kMaxExponent = 40;   // ~5.5e11: above collapses here
  // Bucket 0 holds zero and negative values.
  static constexpr int kNumBuckets =
      1 + (kMaxExponent - kMinExponent + 1) * kSubBuckets;

  void Record(double value) { RecordN(value, 1); }
  void RecordN(double value, int64_t n);

  /// Elementwise bucket addition plus count/sum/min/max merge. Callers that
  /// need bitwise determinism must merge in a fixed (e.g. chunk) order: the
  /// running `sum` is a floating-point accumulation.
  void Merge(const LogHistogram& other);

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Interpolated quantile (see class comment); 0 when empty. Results are
  /// clamped to [min(), max()] so bucket midpoints never overshoot the
  /// observed range.
  double Quantile(double q) const;

  /// Invokes fn(bucket_low, bucket_high, count) for every non-empty bucket
  /// in ascending value order. Deterministic iteration for exporters.
  template <typename Fn>
  void ForEachNonEmptyBucket(Fn&& fn) const {
    for (int i = lo_; i <= hi_; ++i) {
      if (buckets_[i] == 0) continue;
      fn(BucketLow(i), BucketHigh(i), buckets_[i]);
    }
  }

  friend bool operator==(const LogHistogram&, const LogHistogram&) = default;

  static int BucketIndex(double value);
  static double BucketLow(int index);
  static double BucketHigh(int index);

 private:
  /// Approximate i-th order statistic (0-based) via bucket walk + linear
  /// interpolation inside the containing bucket.
  double OrderStatistic(int64_t i) const;

  std::vector<int64_t> buckets_;  // sized kNumBuckets on first record
  // Non-empty bucket range [lo_, hi_] (empty when lo_ > hi_). Derived
  // state, maintained exactly by every mutation, so defaulted equality
  // stays consistent; bounds the walks in OrderStatistic /
  // ForEachNonEmptyBucket, which matters when latency data spanning a few
  // octaves sits in a ~21-decade bucket space.
  int lo_ = kNumBuckets;
  int hi_ = -1;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace obs
}  // namespace pbs

#endif  // PBS_OBS_INSTRUMENTS_H_
