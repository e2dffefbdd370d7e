#include "index/srs/srs.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "distance/euclidean.h"
#include "index/answer_set.h"
#include "index/leaf_scanner.h"

namespace hydra {

Result<std::unique_ptr<SrsIndex>> SrsIndex::Build(const Dataset& data,
                                                  SeriesProvider* provider,
                                                  const SrsOptions& options) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  if (provider == nullptr || provider->num_series() != data.size() ||
      provider->series_length() != data.length()) {
    return Status::InvalidArgument("provider does not match dataset");
  }
  if (options.projections == 0) {
    return Status::InvalidArgument("projections must be > 0");
  }
  std::unique_ptr<SrsIndex> index(new SrsIndex(provider, options));
  index->series_length_ = data.length();
  index->num_series_ = data.size();

  Rng rng(options.seed);
  index->projection_ = std::make_unique<RandomProjection>(
      data.length(), options.projections, rng);
  const size_t m = options.projections;
  index->projected_.resize(data.size() * m);
  for (size_t i = 0; i < data.size(); ++i) {
    index->projection_->Project(
        data.series(i),
        std::span<float>(index->projected_.data() + i * m, m));
  }
  return index;
}

Result<KnnAnswer> SrsIndex::Search(std::span<const float> query,
                                   const SearchParams& params,
                                   QueryCounters* counters) const {
  if (params.k == 0) return Status::InvalidArgument("k must be > 0");
  if (query.size() != series_length_) {
    return Status::InvalidArgument("query length mismatch");
  }
  if (params.mode == SearchMode::kExact) {
    return Status::Unimplemented("srs does not support exact search");
  }
  const size_t m = options_.projections;
  std::vector<float> qp = projection_->Project(query);

  // Order every point by projected squared distance (the index is just
  // these m-dimensional rows; this scan is the in-memory phase 1).
  std::vector<std::pair<double, int64_t>> order(num_series_);
  for (size_t i = 0; i < num_series_; ++i) {
    order[i] = {SquaredEuclidean(
                    qp, std::span<const float>(projected_.data() + i * m, m)),
                static_cast<int64_t>(i)};
    if (counters != nullptr) ++counters->lb_distances;
  }
  std::sort(order.begin(), order.end());

  const double one_plus_eps =
      params.mode == SearchMode::kDeltaEpsilon ? 1.0 + params.epsilon : 1.0;
  // δ is the success probability of the guarantee; the termination test
  // fires when the χ² tail mass leaves less than (1 − δ) probability of
  // an unseen better point.
  const double confidence =
      params.mode == SearchMode::kDeltaEpsilon ? params.delta : 1.0;
  size_t budget = static_cast<size_t>(
      options_.max_candidate_fraction * static_cast<double>(num_series_));
  budget = std::max<size_t>(budget, params.k);
  if (params.mode == SearchMode::kNgApproximate && params.nprobe > 0) {
    budget = std::max<size_t>(params.k, params.nprobe);
  }

  // Refine in ascending projected-distance order. Commits (and the χ²
  // termination rule below) run in exactly the serial order while the
  // next block of candidates is evaluated speculatively in parallel, so
  // answers match num_threads = 1.
  AnswerSet answers(params.k);
  LeafScanner scanner(query, &answers, counters, params.num_threads,
                      params.pin_budget, /*prefetch_depth=*/0,
                      ResolveCancellation(params));
  Result<size_t> probed = scanner.RefineOrdered(
      provider_, order.size(),
      /*id_at=*/[&](size_t i) { return order[i].second; },
      /*before=*/[&](size_t i) { return i < budget; },
      /*after=*/
      [&](size_t i) {
        if (params.mode == SearchMode::kDeltaEpsilon && answers.full() &&
            confidence < 1.0) {
          // Early termination: a point with true distance r = bsf/(1+ε)
          // has projected squared distance r²·χ²_m; if
          // P[χ²_m <= proj_sq / r²] >= δ, unseen points (all with
          // projected distance >= proj_sq) beat r with probability
          // <= 1 − δ.
          double r_sq =
              answers.KthDistanceSq() / (one_plus_eps * one_plus_eps);
          if (r_sq > 0.0) {
            double p =
                ChiSquaredCdf(order[i].first / r_sq, static_cast<double>(m));
            if (p >= confidence) return false;
          }
        }
        return true;
      });
  HYDRA_RETURN_IF_ERROR(probed.status());
  return answers.Finish();
}

size_t SrsIndex::MemoryBytes() const {
  return sizeof(*this) + projected_.size() * sizeof(float) +
         options_.projections * series_length_ * sizeof(float);
}

}  // namespace hydra
