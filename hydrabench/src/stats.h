#ifndef HYDRABENCH_STATS_H_
#define HYDRABENCH_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace hydrabench {

// Nearest-rank percentile (0 < p < 1) of `samples`, reported only when
// at least `min_beyond` samples lie strictly beyond its rank: a p99 from
// fewer than 1,000 samples rests on fewer than ten tail samples and is
// withheld (nullopt) rather than guessed. Sorts `samples` in place.
std::optional<double> Percentile(std::vector<double>& samples, double p,
                                 size_t min_beyond = 10);

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Log-bucketed histogram of nanosecond durations: 32 buckets per power
// of two, so a quantile is known to within about 2%. Used where a traced
// run has too many spans (one per page or series fetch) to keep every
// duration.
class LogHistogram {
 public:
  void Add(uint64_t ns);
  void Merge(const LogHistogram& other);
  uint64_t count() const { return count_; }
  // Midpoint of the bucket holding the nearest-rank p-quantile, under the
  // same ten-beyond rule as Percentile.
  std::optional<double> Quantile(double p, size_t min_beyond = 10) const;

 private:
  static constexpr int kSubBits = 5;
  static constexpr size_t kBuckets = (64 - kSubBits + 1) << kSubBits;
  static size_t BucketOf(uint64_t ns);
  static double BucketMid(size_t bucket);

  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
};

}  // namespace hydrabench

#endif  // HYDRABENCH_STATS_H_
