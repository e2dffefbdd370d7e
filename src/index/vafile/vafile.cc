#include "index/vafile/vafile.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/rng.h"
#include "distance/simd_dispatch.h"
#include "index/answer_set.h"
#include "index/leaf_scanner.h"

namespace hydra {

Result<std::unique_ptr<VaFileIndex>> VaFileIndex::Build(
    const Dataset& data, SeriesProvider* provider,
    const VaFileOptions& options) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  if (provider == nullptr || provider->num_series() != data.size() ||
      provider->series_length() != data.length()) {
    return Status::InvalidArgument("provider does not match dataset");
  }
  if (options.num_features == 0) {
    return Status::InvalidArgument("num_features must be > 0");
  }
  std::unique_ptr<VaFileIndex> index(new VaFileIndex(provider, options));
  index->series_length_ = data.length();
  index->num_series_ = data.size();
  index->dft_ =
      std::make_unique<DftFeatures>(data.length(), options.num_features);
  const size_t f = index->dft_->num_features();

  // One pass: features of every series (kept transiently; only the cells
  // survive, that is the VA+ "approximation file").
  std::vector<double> features(data.size() * f);
  for (size_t i = 0; i < data.size(); ++i) {
    index->dft_->Transform(data.series(i),
                           std::span<double>(features.data() + i * f, f));
  }

  // Variance-driven bit allocation.
  std::vector<double> variances(f, 0.0);
  {
    std::vector<double> means(f, 0.0);
    for (size_t i = 0; i < data.size(); ++i) {
      for (size_t d = 0; d < f; ++d) means[d] += features[i * f + d];
    }
    for (double& m : means) m /= static_cast<double>(data.size());
    for (size_t i = 0; i < data.size(); ++i) {
      for (size_t d = 0; d < f; ++d) {
        double x = features[i * f + d] - means[d];
        variances[d] += x * x;
      }
    }
    for (double& v : variances) v /= static_cast<double>(data.size());
  }
  index->bits_ =
      AllocateBits(variances, options.total_bits, options.max_bits_per_dim);

  // Lloyd-Max quantizer per allocated dimension, trained on a sample.
  Rng rng(options.seed);
  size_t sample_n = std::min<size_t>(options.quantizer_sample, data.size());
  std::vector<size_t> sample_ids(data.size());
  std::iota(sample_ids.begin(), sample_ids.end(), 0);
  for (size_t i = 0; i < sample_n; ++i) {
    std::swap(sample_ids[i],
              sample_ids[i + rng.NextUint64(data.size() - i)]);
  }
  for (size_t d = 0; d < f; ++d) {
    if (index->bits_[d] == 0) continue;
    std::vector<double> sample(sample_n);
    for (size_t i = 0; i < sample_n; ++i) {
      sample[i] = features[sample_ids[i] * f + d];
    }
    index->quantized_dims_.push_back(d);
    index->quantizers_.push_back(
        std::make_unique<LloydQuantizer>(std::move(sample), index->bits_[d]));
  }

  // Encode the approximation file.
  const size_t qd = index->quantized_dims_.size();
  index->cells_.resize(data.size() * qd);
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t j = 0; j < qd; ++j) {
      size_t d = index->quantized_dims_[j];
      index->cells_[i * qd + j] =
          index->quantizers_[j]->Quantize(features[i * f + d]);
    }
  }

  index->histogram_ = std::make_unique<DistanceHistogram>(
      data, options.histogram_pairs, options.histogram_bins, rng);
  return index;
}

double VaFileIndex::LowerBoundSq(std::span<const double> query_features,
                                 size_t i) const {
  const size_t qd = quantized_dims_.size();
  double sum = 0.0;
  for (size_t j = 0; j < qd; ++j) {
    size_t d = quantized_dims_[j];
    sum += quantizers_[j]->MinDistSqToCell(query_features[d],
                                           cells_[i * qd + j]);
  }
  return sum;
}

std::vector<double> VaFileIndex::LowerBoundsSq(
    std::span<const double> query_features) const {
  // Asymmetric-distance trick: tabulate cell -> min-distance once per
  // quantized dimension for this query, then the scan over all series is
  // pure table accumulation (dispatched, gathered under AVX2). Dimensions
  // accumulate in the same order as LowerBoundSq, so the sums match it
  // bit for bit.
  const size_t qd = quantized_dims_.size();
  std::vector<double> lut;
  std::vector<size_t> lut_offset(qd);
  for (size_t j = 0; j < qd; ++j) {
    lut_offset[j] = lut.size();
    const LloydQuantizer& q = *quantizers_[j];
    const double qv = query_features[quantized_dims_[j]];
    for (uint32_t cell = 0; cell < q.num_cells(); ++cell) {
      lut.push_back(q.MinDistSqToCell(qv, cell));
    }
  }
  std::vector<double> lb(num_series_, 0.0);
  const DistanceKernels& kernels = ActiveKernels();
  for (size_t j = 0; j < qd; ++j) {
    kernels.lut_accumulate(lut.data() + lut_offset[j], cells_.data() + j,
                           num_series_, qd, lb.data());
  }
  return lb;
}

std::vector<std::vector<double>> VaFileIndex::LowerBoundsSqBatch(
    std::span<const std::vector<double>> query_features) const {
  const size_t nq = query_features.size();
  const size_t qd = quantized_dims_.size();
  // Same per-query LUT layout as LowerBoundsSq (offsets are
  // query-independent: one table per quantized dimension).
  std::vector<size_t> lut_offset(qd);
  size_t lut_size = 0;
  for (size_t j = 0; j < qd; ++j) {
    lut_offset[j] = lut_size;
    lut_size += quantizers_[j]->num_cells();
  }
  std::vector<std::vector<double>> luts(nq, std::vector<double>(lut_size));
  for (size_t q = 0; q < nq; ++q) {
    for (size_t j = 0; j < qd; ++j) {
      const LloydQuantizer& quant = *quantizers_[j];
      const double qv = query_features[q][quantized_dims_[j]];
      for (uint32_t cell = 0; cell < quant.num_cells(); ++cell) {
        luts[q][lut_offset[j] + cell] = quant.MinDistSqToCell(qv, cell);
      }
    }
  }
  // Column-major across the batch: dimension j's cell column is streamed
  // once and accumulated into every query's bounds while it is cache-hot.
  // Within each query, dimensions still accumulate in ascending j — the
  // exact order of LowerBoundsSq — so per-query sums are bit-identical.
  std::vector<std::vector<double>> lb(nq,
                                      std::vector<double>(num_series_, 0.0));
  const DistanceKernels& kernels = ActiveKernels();
  for (size_t j = 0; j < qd; ++j) {
    for (size_t q = 0; q < nq; ++q) {
      kernels.lut_accumulate(luts[q].data() + lut_offset[j],
                             cells_.data() + j, num_series_, qd,
                             lb[q].data());
    }
  }
  return lb;
}

Result<KnnAnswer> VaFileIndex::Search(std::span<const float> query,
                                      const SearchParams& params,
                                      QueryCounters* counters) const {
  if (params.k == 0) return Status::InvalidArgument("k must be > 0");
  if (query.size() != series_length_) {
    return Status::InvalidArgument("query length mismatch");
  }
  std::vector<double> qf = dft_->Transform(query);

  // Phase 1: lower bound for every series from the approximation file.
  return RefineCandidates(query, params, counters, LowerBoundsSq(qf));
}

Result<KnnAnswer> VaFileIndex::RefineCandidates(std::span<const float> query,
                                                const SearchParams& params,
                                                QueryCounters* counters,
                                                std::vector<double> lb) const {
  std::vector<std::pair<double, int64_t>> order(num_series_);
  for (size_t i = 0; i < num_series_; ++i) {
    order[i] = {lb[i], static_cast<int64_t>(i)};
  }
  if (counters != nullptr) counters->lb_distances += num_series_;
  std::sort(order.begin(), order.end());

  const double one_plus_eps =
      params.mode == SearchMode::kDeltaEpsilon ? 1.0 + params.epsilon : 1.0;
  const double prune_shrink = 1.0 / (one_plus_eps * one_plus_eps);
  double stop_sq = 0.0;
  if (params.mode == SearchMode::kDeltaEpsilon && params.delta < 1.0) {
    double r_delta = histogram_->DeltaRadius(params.delta, num_series_);
    stop_sq = (one_plus_eps * r_delta) * (one_plus_eps * r_delta);
  }
  const size_t probe_budget = params.mode == SearchMode::kNgApproximate
                                  ? std::max<size_t>(params.nprobe, params.k)
                                  : std::numeric_limits<size_t>::max();

  // Phase 2: refine candidates in ascending lower-bound order. The
  // ordered refiner evaluates upcoming candidates speculatively across
  // workers while committing — and deciding the cutoffs below — in
  // exactly the serial order, so answers match num_threads = 1.
  AnswerSet answers(params.k);
  LeafScanner scanner(query, &answers, counters, params.num_threads,
                      params.pin_budget, /*prefetch_depth=*/0,
                      ResolveCancellation(params));
  Result<size_t> probed = scanner.RefineOrdered(
      provider_, order.size(),
      /*id_at=*/[&](size_t i) { return order[i].second; },
      /*before=*/
      [&](size_t i) {
        if (i >= probe_budget) return false;  // i == candidates committed
        return order[i].first <= answers.KthDistanceSq() * prune_shrink;
      },
      /*after=*/
      [&](size_t) {
        return !(params.mode == SearchMode::kDeltaEpsilon && answers.full() &&
                 answers.KthDistanceSq() <= stop_sq);
      });
  HYDRA_RETURN_IF_ERROR(probed.status());
  return answers.Finish();
}

std::vector<Result<KnnAnswer>> VaFileIndex::BatchSearch(
    std::span<const BatchQuery> batch) const {
  std::vector<Result<KnnAnswer>> results;
  const std::vector<size_t> members = SplitBatch(
      *this, batch, series_length_, /*exact_only=*/false, &results);
  if (members.empty()) return results;
  // Phase 1 batched (every mode: the LUT scan is mode-independent), then
  // phase 2 per member — ordered refinement already commits in serial
  // order per query, and a member that fails mid-refinement fails alone.
  std::vector<std::vector<double>> features;
  features.reserve(members.size());
  for (size_t i : members) {
    features.push_back(dft_->Transform(batch[i].query));
  }
  std::vector<std::vector<double>> bounds =
      LowerBoundsSqBatch(std::span<const std::vector<double>>(features));
  for (size_t m = 0; m < members.size(); ++m) {
    const size_t i = members[m];
    results[i] = RefineCandidates(batch[i].query, batch[i].params,
                                  batch[i].counters, std::move(bounds[m]));
  }
  return results;
}

size_t VaFileIndex::MemoryBytes() const {
  size_t total = sizeof(*this);
  total += cells_.size() * sizeof(uint32_t);
  total += bits_.size();
  for (const auto& q : quantizers_) {
    total += sizeof(LloydQuantizer) + (size_t{2} << q->bits()) * sizeof(double);
  }
  return total;
}

}  // namespace hydra
