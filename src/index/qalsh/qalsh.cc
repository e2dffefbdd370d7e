#include "index/qalsh/qalsh.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "index/answer_set.h"
#include "index/leaf_scanner.h"

namespace hydra {

Result<std::unique_ptr<QalshIndex>> QalshIndex::Build(
    const Dataset& data, SeriesProvider* provider,
    const QalshOptions& options) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  if (provider == nullptr || provider->num_series() != data.size() ||
      provider->series_length() != data.length()) {
    return Status::InvalidArgument("provider does not match dataset");
  }
  if (options.num_hashes == 0) {
    return Status::InvalidArgument("num_hashes must be > 0");
  }
  std::unique_ptr<QalshIndex> index(new QalshIndex(provider, options));
  index->series_length_ = data.length();
  index->num_series_ = data.size();

  Rng rng(options.seed);
  const size_t m = options.num_hashes;
  index->hash_dirs_.resize(m);
  index->tables_.resize(m);
  for (size_t h = 0; h < m; ++h) {
    index->hash_dirs_[h].resize(data.length());
    for (float& v : index->hash_dirs_[h]) {
      v = static_cast<float>(rng.NextGaussian());
    }
  }

  // Projection magnitudes grow with sqrt(dim); scale the bucket width by
  // the empirical std of projections so `bucket_width` is dimensionless.
  double sum2 = 0.0;
  size_t samples = 0;
  for (size_t h = 0; h < m; ++h) {
    auto& table = index->tables_[h];
    table.resize(data.size());
    const auto& dir = index->hash_dirs_[h];
    for (size_t i = 0; i < data.size(); ++i) {
      auto s = data.series(i);
      double proj = 0.0;
      for (size_t d = 0; d < s.size(); ++d) {
        proj += static_cast<double>(dir[d]) * s[d];
      }
      table[i] = {static_cast<float>(proj), static_cast<int64_t>(i)};
      sum2 += proj * proj;
      ++samples;
    }
    std::sort(table.begin(), table.end());
  }
  index->projection_scale_ =
      samples > 0 ? std::sqrt(sum2 / static_cast<double>(samples)) : 1.0;
  if (index->projection_scale_ <= 0.0) index->projection_scale_ = 1.0;
  return index;
}

Result<KnnAnswer> QalshIndex::Search(std::span<const float> query,
                                     const SearchParams& params,
                                     QueryCounters* counters) const {
  if (params.k == 0) return Status::InvalidArgument("k must be > 0");
  if (query.size() != series_length_) {
    return Status::InvalidArgument("query length mismatch");
  }
  if (params.mode == SearchMode::kExact) {
    return Status::Unimplemented("qalsh does not support exact search");
  }
  const size_t m = options_.num_hashes;
  const size_t l = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(options_.collision_ratio * static_cast<double>(m))));
  const double c = std::max(options_.approximation_c, 1.0001);
  const double one_plus_eps =
      params.mode == SearchMode::kDeltaEpsilon ? 1.0 + params.epsilon : 1.0;

  // Query anchors and bidirectional cursors per table.
  std::vector<double> anchors(m);
  for (size_t h = 0; h < m; ++h) {
    const auto& dir = hash_dirs_[h];
    double proj = 0.0;
    for (size_t d = 0; d < query.size(); ++d) {
      proj += static_cast<double>(dir[d]) * query[d];
    }
    anchors[h] = proj;
  }
  struct Cursor {
    size_t left;   // next index to the left (one past; 0 = exhausted)
    size_t right;  // next index to the right
  };
  std::vector<Cursor> cursors(m);
  for (size_t h = 0; h < m; ++h) {
    const auto& table = tables_[h];
    size_t pos = static_cast<size_t>(
        std::lower_bound(table.begin(), table.end(),
                         std::make_pair(static_cast<float>(anchors[h]),
                                        std::numeric_limits<int64_t>::min())) -
        table.begin());
    cursors[h] = {pos, pos};
  }

  std::vector<uint8_t> collisions(num_series_, 0);
  std::vector<uint8_t> refined(num_series_, 0);
  size_t budget = static_cast<size_t>(options_.beta *
                                      static_cast<double>(num_series_)) +
                  params.k;
  if (params.mode == SearchMode::kNgApproximate && params.nprobe > 0) {
    budget = std::max<size_t>(params.k, params.nprobe);
  }

  AnswerSet answers(params.k);
  size_t probed = 0;
  double radius = options_.bucket_width * projection_scale_ * 0.5;

  // Candidates are *collected* during the collision sweeps (which is what
  // decides the refined set and charges the budget, exactly as a serial
  // refine-on-the-spot would) and *evaluated* as one batch per round,
  // which the scanner fans across workers. Distances never influence the
  // sweeps, only the per-round δ-ε termination check below, so answers
  // are identical to num_threads = 1.
  LeafScanner scanner(query, &answers, counters, params.num_threads,
                      params.pin_budget, ResolvePrefetchDepth(params),
                      ResolveCancellation(params));
  std::vector<int64_t> round_ids;
  auto refine = [&](int64_t id) -> Status {
    if (probed >= budget || refined[id]) return Status::OK();
    refined[id] = 1;
    round_ids.push_back(id);
    ++probed;
    return Status::OK();
  };

  // Virtual rehashing: rounds with radius w/2 · c^round.
  const size_t max_rounds = 64;
  for (size_t round = 0; round < max_rounds && probed < budget; ++round) {
    double half_width = radius * std::pow(c, static_cast<double>(round));
    for (size_t h = 0; h < m && probed < budget; ++h) {
      const auto& table = tables_[h];
      Cursor& cur = cursors[h];
      // Sweep right.
      while (cur.right < table.size() &&
             table[cur.right].first <= anchors[h] + half_width) {
        int64_t id = table[cur.right].second;
        if (++collisions[id] == l) {
          HYDRA_RETURN_IF_ERROR(refine(id));
          if (probed >= budget) break;
        }
        ++cur.right;
      }
      // Sweep left.
      while (cur.left > 0 &&
             table[cur.left - 1].first >= anchors[h] - half_width) {
        int64_t id = table[cur.left - 1].second;
        if (++collisions[id] == l) {
          HYDRA_RETURN_IF_ERROR(refine(id));
          if (probed >= budget) break;
        }
        --cur.left;
      }
    }
    // Evaluate the round's collected candidates before the termination
    // check below reads the updated best-so-far.
    if (!round_ids.empty()) {
      HYDRA_RETURN_IF_ERROR(scanner.ScanIds(provider_, round_ids).status());
      round_ids.clear();
    }
    // δ-ε termination: the bsf already beats what a larger radius could
    // guarantee to improve by more than the (1+ε) factor.
    if (answers.full()) {
      double r_true = half_width / projection_scale_ *
                      std::sqrt(static_cast<double>(series_length_));
      double bound = one_plus_eps * r_true;
      if (std::sqrt(answers.KthDistanceSq()) <= bound &&
          params.mode == SearchMode::kDeltaEpsilon) {
        break;
      }
    }
  }
  return answers.Finish();
}

size_t QalshIndex::MemoryBytes() const {
  size_t total = sizeof(*this);
  for (const auto& d : hash_dirs_) total += d.size() * sizeof(float);
  for (const auto& t : tables_) {
    total += t.size() * (sizeof(float) + sizeof(int64_t));
  }
  return total;
}

}  // namespace hydra
