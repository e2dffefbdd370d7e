#include "index/imi/imi.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <unordered_set>

#include "common/rng.h"
#include "distance/euclidean.h"
#include "index/answer_set.h"
#include "transform/kmeans.h"

namespace hydra {

Result<std::unique_ptr<ImiIndex>> ImiIndex::Build(const Dataset& data,
                                                  const ImiOptions& options) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  if (data.length() < 2) {
    return Status::InvalidArgument("IMI needs dimensionality >= 2");
  }
  std::unique_ptr<ImiIndex> index(new ImiIndex());
  index->dim_ = data.length();
  index->half_ = data.length() / 2;
  index->use_opq_ = options.use_opq;

  Rng rng(options.seed);
  const size_t n = data.size();
  const size_t train_n = std::min<size_t>(options.train_sample, n);

  // Training sample (random subset without replacement).
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (size_t i = 0; i < train_n; ++i) {
    std::swap(perm[i], perm[i + rng.NextUint64(n - i)]);
  }
  std::vector<float> train(train_n * index->dim_);
  for (size_t i = 0; i < train_n; ++i) {
    auto s = data.series(perm[i]);
    std::copy(s.begin(), s.end(), train.begin() + i * index->dim_);
  }

  // OPQ rotation learned on the sample (identity when disabled).
  if (index->use_opq_) {
    OpqOptions oo;
    oo.pq.num_subquantizers = options.pq_subquantizers;
    oo.pq.codebook_size = options.pq_codebook;
    oo.pq.train_iterations = options.train_iterations;
    oo.outer_iterations = options.opq_iterations;
    HYDRA_ASSIGN_OR_RETURN(auto opq, OptimizedProductQuantizer::Train(
                                         train, index->dim_, oo, rng));
    index->opq_ = std::make_unique<OptimizedProductQuantizer>(std::move(opq));
    // Replace the sample with its rotated image for all further training.
    std::vector<float> rotated(train.size());
    for (size_t i = 0; i < train_n; ++i) {
      index->opq_->Rotate(
          std::span<const float>(train.data() + i * index->dim_, index->dim_),
          std::span<float>(rotated.data() + i * index->dim_, index->dim_));
    }
    train.swap(rotated);
  }

  // Coarse codebooks on the two halves.
  const size_t h1 = index->half_, h2 = index->dim_ - index->half_;
  std::vector<float> train1(train_n * h1), train2(train_n * h2);
  for (size_t i = 0; i < train_n; ++i) {
    std::copy_n(train.begin() + i * index->dim_, h1,
                train1.begin() + i * h1);
    std::copy_n(train.begin() + i * index->dim_ + h1, h2,
                train2.begin() + i * h2);
  }
  KmeansOptions ko;
  ko.num_clusters = options.coarse_k;
  ko.max_iterations = options.train_iterations;
  KmeansResult km1 = Kmeans(train1, h1, ko, rng);
  KmeansResult km2 = Kmeans(train2, h2, ko, rng);
  index->coarse_k_ = km1.centroids.size() / h1;
  size_t k2 = km2.centroids.size() / h2;
  index->coarse_k_ = std::min(index->coarse_k_, k2);
  index->centroids1_.assign(km1.centroids.begin(),
                            km1.centroids.begin() + index->coarse_k_ * h1);
  index->centroids2_.assign(km2.centroids.begin(),
                            km2.centroids.begin() + index->coarse_k_ * h2);

  // Residual PQ trained on sample residuals.
  std::vector<float> residuals(train_n * index->dim_);
  for (size_t i = 0; i < train_n; ++i) {
    const float* v = train.data() + i * index->dim_;
    uint32_t c1 = NearestCentroid(index->centroids1_, h1, {v, h1});
    uint32_t c2 = NearestCentroid(index->centroids2_, h2, {v + h1, h2});
    for (size_t d = 0; d < h1; ++d) {
      residuals[i * index->dim_ + d] = v[d] - index->centroids1_[c1 * h1 + d];
    }
    for (size_t d = 0; d < h2; ++d) {
      residuals[i * index->dim_ + h1 + d] =
          v[h1 + d] - index->centroids2_[c2 * h2 + d];
    }
  }
  PqOptions po;
  po.num_subquantizers = options.pq_subquantizers;
  po.codebook_size = options.pq_codebook;
  po.train_iterations = options.train_iterations;
  HYDRA_ASSIGN_OR_RETURN(auto rpq, ProductQuantizer::Train(
                                       residuals, index->dim_, po, rng));
  index->residual_pq_ = std::make_unique<ProductQuantizer>(std::move(rpq));

  // Populate the K×K inverted lists with ids + residual codes.
  index->lists_.resize(index->coarse_k_ * index->coarse_k_);
  index->codes_.resize(index->lists_.size());
  std::vector<float> rotated(index->dim_);
  std::vector<float> residual(index->dim_);
  std::vector<uint16_t> code(index->residual_pq_->num_subquantizers());
  for (size_t i = 0; i < n; ++i) {
    auto s = data.series(i);
    std::span<const float> v;
    if (index->use_opq_) {
      index->opq_->Rotate(s, rotated);
      v = rotated;
    } else {
      v = s;
    }
    uint32_t c1 = NearestCentroid(index->centroids1_, h1, v.subspan(0, h1));
    uint32_t c2 = NearestCentroid(index->centroids2_, h2, v.subspan(h1, h2));
    for (size_t d = 0; d < h1; ++d) {
      residual[d] = v[d] - index->centroids1_[c1 * h1 + d];
    }
    for (size_t d = 0; d < h2; ++d) {
      residual[h1 + d] = v[h1 + d] - index->centroids2_[c2 * h2 + d];
    }
    index->residual_pq_->Encode(residual, code);
    size_t cell = index->CellIndex(c1, c2);
    index->lists_[cell].push_back(static_cast<int64_t>(i));
    index->codes_[cell].insert(index->codes_[cell].end(), code.begin(),
                               code.end());
  }
  return index;
}

Result<KnnAnswer> ImiIndex::Search(std::span<const float> query,
                                   const SearchParams& params,
                                   QueryCounters* counters) const {
  if (params.k == 0) return Status::InvalidArgument("k must be > 0");
  if (params.mode != SearchMode::kNgApproximate) {
    return Status::Unimplemented("imi supports ng-approximate search only");
  }
  if (query.size() != dim_) {
    return Status::InvalidArgument("query length mismatch");
  }
  const size_t h1 = half_, h2 = dim_ - half_;
  std::vector<float> rotated(dim_);
  std::span<const float> q;
  if (use_opq_) {
    opq_->Rotate(query, rotated);
    q = rotated;
  } else {
    q = query;
  }

  // Distances from the query halves to every coarse codeword, sorted.
  std::vector<std::pair<double, uint32_t>> d1(coarse_k_), d2(coarse_k_);
  for (size_t c = 0; c < coarse_k_; ++c) {
    d1[c] = {SquaredEuclidean(
                 q.subspan(0, h1),
                 std::span<const float>(centroids1_.data() + c * h1, h1)),
             static_cast<uint32_t>(c)};
    d2[c] = {SquaredEuclidean(
                 q.subspan(h1, h2),
                 std::span<const float>(centroids2_.data() + c * h2, h2)),
             static_cast<uint32_t>(c)};
  }
  std::sort(d1.begin(), d1.end());
  std::sort(d2.begin(), d2.end());

  // Multi-sequence traversal: enumerate grid cells (i, j) in increasing
  // d1[i] + d2[j] with a frontier heap.
  struct Cell {
    double dist;
    uint32_t i, j;
    bool operator>(const Cell& o) const { return dist > o.dist; }
  };
  std::priority_queue<Cell, std::vector<Cell>, std::greater<Cell>> frontier;
  std::unordered_set<uint64_t> seen;
  auto push_cell = [&](uint32_t i, uint32_t j) {
    if (i >= coarse_k_ || j >= coarse_k_) return;
    uint64_t key = (static_cast<uint64_t>(i) << 32) | j;
    if (!seen.insert(key).second) return;
    frontier.push({d1[i].first + d2[j].first, i, j});
  };
  push_cell(0, 0);

  // Residual ADC table. Re-ranking residuals against a query-minus-
  // -centroid vector is cell-dependent; the standard single-table
  // approximation uses the query relative to the *visited* cell, which we
  // compute per cell below (exact ADC per cell, table per cell half).
  AnswerSet answers(params.k);
  std::shared_ptr<CancellationToken> cancel = ResolveCancellation(params);
  const size_t nprobe = std::max<size_t>(params.nprobe, 1);
  size_t visited_lists = 0;
  std::vector<float> qres(dim_);
  while (!frontier.empty() && visited_lists < nprobe) {
    // Cancellation point: once per frontier cell — an inverted list's ADC
    // sweep is the unit of work between deadline checks.
    if (cancel != nullptr) {
      HYDRA_RETURN_IF_ERROR(cancel->Check());
    }
    Cell cell = frontier.top();
    frontier.pop();
    push_cell(cell.i + 1, cell.j);
    push_cell(cell.i, cell.j + 1);

    uint32_t c1 = d1[cell.i].second, c2 = d2[cell.j].second;
    const auto& list = lists_[CellIndex(c1, c2)];
    if (list.empty()) continue;  // only non-empty lists count toward nprobe
    ++visited_lists;
    if (counters != nullptr) ++counters->leaves_visited;

    // Query residual w.r.t. this cell's centroids.
    for (size_t d = 0; d < h1; ++d) {
      qres[d] = q[d] - centroids1_[c1 * h1 + d];
    }
    for (size_t d = 0; d < h2; ++d) {
      qres[h1 + d] = q[h1 + d] - centroids2_[c2 * h2 + d];
    }
    std::vector<double> table = residual_pq_->AdcTable(qres);
    const auto& cell_codes = codes_[CellIndex(c1, c2)];
    const size_t m = residual_pq_->num_subquantizers();
    for (size_t e = 0; e < list.size(); ++e) {
      double d = residual_pq_->AdcDistanceSq(
          table, std::span<const uint16_t>(cell_codes.data() + e * m, m));
      if (counters != nullptr) ++counters->lb_distances;
      answers.Offer(d, list[e]);
    }
  }
  // Note: distances reported are ADC estimates (IMI never reads raw
  // series), mirroring the paper's observation that IMI's returned order
  // is based on compressed-domain distances.
  return answers.Finish();
}

size_t ImiIndex::MemoryBytes() const {
  size_t total = sizeof(*this);
  total += centroids1_.size() * sizeof(float);
  total += centroids2_.size() * sizeof(float);
  for (const auto& l : lists_) total += sizeof(l) + l.size() * sizeof(int64_t);
  for (const auto& c : codes_) {
    total += sizeof(c) + c.size() * sizeof(uint16_t);
  }
  return total;
}

size_t ImiIndex::num_nonempty_cells() const {
  size_t count = 0;
  for (const auto& l : lists_) count += l.empty() ? 0 : 1;
  return count;
}

}  // namespace hydra
