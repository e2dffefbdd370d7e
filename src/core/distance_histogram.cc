#include "core/distance_histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "distance/euclidean.h"

namespace hydra {

DistanceHistogram::DistanceHistogram(const Dataset& data, size_t sample_pairs,
                                     size_t bins, Rng& rng) {
  counts_.assign(std::max<size_t>(bins, 1), 0.0);
  if (data.size() < 2 || sample_pairs == 0) return;

  std::vector<double> sample;
  sample.reserve(sample_pairs);
  min_ = std::numeric_limits<double>::infinity();
  max_ = 0.0;
  for (size_t s = 0; s < sample_pairs; ++s) {
    size_t i = rng.NextUint64(data.size());
    size_t j = rng.NextUint64(data.size());
    if (i == j) j = (j + 1) % data.size();
    double d = Euclidean(data.series(i), data.series(j));
    sample.push_back(d);
    min_ = std::min(min_, d);
    max_ = std::max(max_, d);
  }
  if (max_ <= min_) max_ = min_ + 1.0;

  for (double d : sample) {
    double u = (d - min_) / (max_ - min_);
    size_t b = std::min(counts_.size() - 1,
                        static_cast<size_t>(u * counts_.size()));
    counts_[b] += 1.0;
  }
  // Turn counts into a cumulative sum once; queries are then O(log bins).
  for (size_t b = 1; b < counts_.size(); ++b) counts_[b] += counts_[b - 1];
  total_ = counts_.back();
}

void DistanceHistogram::Encode(ByteWriter* w) const {
  w->DoubleSpan(counts_);
  w->F64(min_);
  w->F64(max_);
  w->F64(total_);
}

Result<DistanceHistogram> DistanceHistogram::Decode(ByteReader* r) {
  DistanceHistogram h;
  HYDRA_RETURN_IF_ERROR(r->DoubleVec(&h.counts_));
  HYDRA_RETURN_IF_ERROR(r->F64(&h.min_));
  HYDRA_RETURN_IF_ERROR(r->F64(&h.max_));
  HYDRA_RETURN_IF_ERROR(r->F64(&h.total_));
  if (h.counts_.empty()) h.counts_.assign(1, 0.0);
  return h;
}

double DistanceHistogram::Cdf(double r) const {
  if (total_ <= 0.0) return 0.0;
  if (r < min_) return 0.0;
  if (r >= max_) return 1.0;
  double u = (r - min_) / (max_ - min_) * counts_.size();
  size_t b = std::min(counts_.size() - 1, static_cast<size_t>(u));
  double below = b == 0 ? 0.0 : counts_[b - 1];
  double in_bin = counts_[b] - below;
  double frac = u - static_cast<double>(b);
  return (below + in_bin * frac) / total_;
}

double DistanceHistogram::Quantile(double p) const {
  if (total_ <= 0.0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  double target = p * total_;
  // counts_ is cumulative and nondecreasing: binary search the first bin
  // whose cumulative count reaches the target, interpolate inside it.
  size_t lo = 0, hi = counts_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (counts_[mid] < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo >= counts_.size()) return max_;
  double below = lo == 0 ? 0.0 : counts_[lo - 1];
  double in_bin = counts_[lo] - below;
  double frac = in_bin > 0.0 ? (target - below) / in_bin : 0.0;
  double bin_width = (max_ - min_) / counts_.size();
  return min_ + (static_cast<double>(lo) + frac) * bin_width;
}

double DistanceHistogram::DeltaRadius(double delta, size_t population) const {
  if (delta >= 1.0) return 0.0;
  if (delta <= 0.0) return std::numeric_limits<double>::infinity();
  if (total_ <= 0.0 || population == 0) return 0.0;
  // G(r) = 1 - (1 - F(r))^N  =>  G(r) = 1-δ  <=>  F(r) = 1 - δ^(1/N).
  double f_target =
      1.0 - std::pow(delta, 1.0 / static_cast<double>(population));
  return Quantile(f_target);
}

}  // namespace hydra
