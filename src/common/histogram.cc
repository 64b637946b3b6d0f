#include "common/histogram.h"

namespace impatience {

uint64_t HistogramSnapshot::ValueAtQuantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the target observation, 1-based; q=0 means the first.
  const double scaled = q * static_cast<double>(count_);
  uint64_t target = static_cast<uint64_t>(scaled);
  if (static_cast<double>(target) < scaled) ++target;
  if (target == 0) target = 1;

  uint64_t cum = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    cum += buckets_[i];
    if (cum >= target) {
      const uint64_t mid = histogram_internal::BucketMid(i);
      // The true maximum is tracked exactly; never report past it.
      return mid < max_ ? mid : max_;
    }
  }
  return max_;
}

uint64_t HistogramSnapshot::CountLessOrEqual(uint64_t bound) const {
  const size_t last = histogram_internal::BucketIndex(bound);
  uint64_t cum = 0;
  for (size_t i = 0; i <= last; ++i) cum += buckets_[i];
  return cum;
}

HistogramSnapshot& HistogramSnapshot::operator+=(
    const HistogramSnapshot& other) {
  // count_ is the bucket total, so an empty snapshot adds no bucket.
  if (other.count_ != 0) {
    for (size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.max_ > max_) max_ = other.max_;
  return *this;
}

HistogramSnapshot LatencyHistogram::Snapshot(bool reset) {
  HistogramSnapshot snap;
  // Nothing recorded: a plain read skips the bucket walk (scrapes of idle
  // shards). A reset must still drain, since its count_ store can zero a
  // concurrent record whose bucket it did not drain.
  if (!reset && count_.load(std::memory_order_relaxed) == 0) {
    snap.sum_ = sum_.load(std::memory_order_relaxed);
    snap.max_ = max_.load(std::memory_order_relaxed);
    return snap;
  }
  uint64_t count = 0;
  uint64_t sum = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const uint64_t n = reset
                           ? buckets_[i].exchange(0, std::memory_order_relaxed)
                           : buckets_[i].load(std::memory_order_relaxed);
    snap.buckets_[i] = n;
    count += n;
    sum += histogram_internal::BucketMid(i) * n;
  }
  // count/sum/max are tracked separately for exactness on the no-reset
  // path; under reset the bucket drain is the source of truth so a value
  // recorded concurrently is never counted twice.
  if (reset) {
    snap.count_ = count;
    snap.sum_ = sum;  // Midpoint approximation; exact sum may be mid-drain.
    snap.max_ = max_.load(std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  } else {
    snap.count_ = count;
    snap.sum_ = sum_.load(std::memory_order_relaxed);
    snap.max_ = max_.load(std::memory_order_relaxed);
  }
  return snap;
}

LatencyHistogram& LatencyHistogram::operator+=(const LatencyHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  const uint64_t omax = other.max_.load(std::memory_order_relaxed);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < omax && !max_.compare_exchange_weak(
                            prev, omax, std::memory_order_relaxed)) {
  }
  return *this;
}

}  // namespace impatience
