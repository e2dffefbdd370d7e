#include "index/flann/flann.h"

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "distance/euclidean.h"
#include "index/answer_set.h"

namespace hydra {
namespace {

// Neighbors per sample query when auto-selection scores recall.
constexpr size_t kAutotuneK = 10;

}  // namespace

Result<std::unique_ptr<FlannIndex>> FlannIndex::Build(
    const Dataset& data, const FlannOptions& options) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  std::unique_ptr<FlannIndex> index(new FlannIndex(data, options));
  index->series_length_ = data.length();

  switch (options.algorithm) {
    case FlannOptions::Algorithm::kKdForest:
      index->kd_ = std::make_unique<KdForest>(data, options.kd);
      return index;
    case FlannOptions::Algorithm::kKmeansTree:
      index->kmeans_ = std::make_unique<KmeansTree>(data, options.kmeans);
      return index;
    case FlannOptions::Algorithm::kAuto:
      break;
  }

  // Auto-selection: recall on a seeded self-query sample, no clock.
  auto kd = std::make_unique<KdForest>(data, options.kd);
  auto km = std::make_unique<KmeansTree>(data, options.kmeans);
  Rng rng(options.kd.seed ^ options.kmeans.seed);
  const size_t trials = std::max<size_t>(options.autotune_queries, 1);
  const size_t k = std::min(kAutotuneK, data.size());
  size_t kd_hits = 0;
  size_t km_hits = 0;
  for (size_t t = 0; t < trials; ++t) {
    auto q = data.series(rng.NextUint64(data.size()));
    AnswerSet exact(k);
    for (size_t i = 0; i < data.size(); ++i) {
      exact.Offer(SquaredEuclidean(q, data.series(i)),
                  static_cast<int64_t>(i));
    }
    const std::vector<int64_t> truth = exact.Finish().ids;
    auto hits = [&](const auto& structure) {
      AnswerSet found(k);
      structure.Search(q, options.default_checks, &found, nullptr);
      size_t n = 0;
      for (int64_t id : found.Finish().ids) {
        n += std::count(truth.begin(), truth.end(), id);
      }
      return n;
    };
    kd_hits += hits(*kd);
    km_hits += hits(*km);
  }
  if (kd_hits >= km_hits) {
    index->kd_ = std::move(kd);
  } else {
    index->kmeans_ = std::move(km);
  }
  return index;
}

Result<KnnAnswer> FlannIndex::Search(std::span<const float> query,
                                     const SearchParams& params,
                                     QueryCounters* counters) const {
  if (params.k == 0) return Status::InvalidArgument("k must be > 0");
  if (params.mode != SearchMode::kNgApproximate) {
    return Status::Unimplemented(
        "flann supports ng-approximate search only");
  }
  if (query.size() != series_length_) {
    return Status::InvalidArgument("query length mismatch");
  }
  size_t checks = params.nprobe > 0 ? params.nprobe : options_.default_checks;
  checks = std::max(checks, params.k);
  AnswerSet answers(params.k);
  if (kd_ != nullptr) {
    kd_->Search(query, checks, &answers, counters, params.num_threads);
  } else {
    kmeans_->Search(query, checks, &answers, counters, params.num_threads);
  }
  return answers.Finish();
}

size_t FlannIndex::MemoryBytes() const {
  size_t total = sizeof(*this);
  if (kd_ != nullptr) total += kd_->MemoryBytes();
  if (kmeans_ != nullptr) total += kmeans_->MemoryBytes();
  // Flann keeps raw vectors resident for refinement.
  total += data_->SizeBytes();
  return total;
}

}  // namespace hydra
