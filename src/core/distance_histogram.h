#ifndef HYDRA_CORE_DISTANCE_HISTOGRAM_H_
#define HYDRA_CORE_DISTANCE_HISTOGRAM_H_

#include <cstddef>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/dataset.h"

namespace hydra {

// Histogram approximation of the overall distance distribution F(·),
// used to estimate the delta-radius r_δ(Q) of Algorithm 2 (paper §3.2.3,
// following Ciaccia & Patella's PAC nearest-neighbor work).
//
// F(r) estimates Pr[d(X, Y) <= r] for two random dataset members. For a
// dataset of N series, the distribution of the 1-NN distance of a random
// query is approximately G(r) = 1 - (1 - F(r))^N; r_δ is the largest radius
// such that the ball around the query is empty with probability >= δ,
// i.e. the (1-δ)-quantile of G. The paper approximates F with density
// histograms built on a sample (100K series there; configurable here).
class DistanceHistogram {
 public:
  // Builds from `sample_pairs` random pairs drawn from `data`.
  // `bins` controls resolution.
  DistanceHistogram(const Dataset& data, size_t sample_pairs, size_t bins,
                    Rng& rng);

  // Empirical CDF F(r): fraction of sampled pairwise distances <= r.
  double Cdf(double r) const;

  // Inverse CDF: smallest r with F(r) >= p (linear interpolation in-bin).
  double Quantile(double p) const;

  // r_δ for a dataset of `population` series: the (1-δ)-quantile of the
  // 1-NN distance distribution G(r) = 1 - (1 - F(r))^population.
  // δ=1 yields 0 (the stopping condition in Algorithm 2 degenerates and
  // the search is epsilon-only), δ=0 yields +inf.
  double DeltaRadius(double delta, size_t population) const;

  double min_distance() const { return min_; }
  double max_distance() const { return max_; }

  // The histogram's part of an index file (common/codec.h): cumulative
  // counts, min, max, total.
  void Encode(ByteWriter* w) const;
  static Result<DistanceHistogram> Decode(ByteReader* r);

 private:
  DistanceHistogram() = default;

  std::vector<double> counts_;  // per-bin counts, cumulative after build
  double min_ = 0.0;
  double max_ = 0.0;
  double total_ = 0.0;
};

}  // namespace hydra

#endif  // HYDRA_CORE_DISTANCE_HISTOGRAM_H_
