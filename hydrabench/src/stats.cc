#include "stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

namespace hydrabench {
namespace {

// 1-based nearest rank of quantile p among n samples.
size_t NearestRank(double p, size_t n) {
  const double rank = std::ceil(p * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

std::optional<double> Percentile(std::vector<double>& samples, double p,
                                 size_t min_beyond) {
  if (samples.empty()) return std::nullopt;
  const size_t rank = NearestRank(p, samples.size());
  if (samples.size() - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

size_t LogHistogram::BucketOf(uint64_t ns) {
  if (ns < (1u << kSubBits)) return static_cast<size_t>(ns);
  const int msb = 63 - std::countl_zero(ns);
  const int shift = msb - kSubBits;
  const uint64_t sub = (ns >> shift) & ((1u << kSubBits) - 1);
  return (static_cast<size_t>(shift + 1) << kSubBits) | sub;
}

double LogHistogram::BucketMid(size_t bucket) {
  if (bucket < (1u << kSubBits)) return static_cast<double>(bucket);
  const int shift = static_cast<int>(bucket >> kSubBits) - 1;
  const uint64_t sub = bucket & ((1u << kSubBits) - 1);
  const double low =
      std::ldexp(static_cast<double>((1u << kSubBits) + sub), shift);
  return low + 0.5 * (std::ldexp(1.0, shift) - 1.0);
}

void LogHistogram::Add(uint64_t ns) {
  ++buckets_[BucketOf(ns)];
  ++count_;
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

std::optional<double> LogHistogram::Quantile(double p,
                                             size_t min_beyond) const {
  if (count_ == 0) return std::nullopt;
  const size_t rank = NearestRank(p, count_);
  if (count_ - rank < min_beyond) return std::nullopt;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) return BucketMid(i);
  }
  return std::nullopt;  // unreachable: the buckets sum to count_
}

}  // namespace hydrabench
