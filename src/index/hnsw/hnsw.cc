#include "index/hnsw/hnsw.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_set>

#include "distance/euclidean.h"
#include "index/answer_set.h"

namespace hydra {

Result<std::unique_ptr<HnswIndex>> HnswIndex::Build(
    const Dataset& data, const HnswOptions& options) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  if (options.M < 2) return Status::InvalidArgument("M must be >= 2");
  std::unique_ptr<HnswIndex> index(new HnswIndex(data, options));

  Rng rng(options.seed);
  const double level_scale = 1.0 / std::log(static_cast<double>(options.M));
  const size_t n = data.size();
  index->links_.resize(n);
  index->levels_.resize(n);

  for (size_t i = 0; i < n; ++i) {
    // Geometric level draw: floor(-ln(U) * scale).
    double u = std::max(rng.NextDouble(), 1e-18);
    size_t level = static_cast<size_t>(-std::log(u) * level_scale);
    index->levels_[i] = level;
    index->links_[i].resize(level + 1);

    if (i == 0) {
      index->entry_point_ = 0;
      index->max_level_ = level;
      continue;
    }

    auto query = data.series(i);
    size_t entry = index->entry_point_;
    // Greedy descent through layers above the node's level.
    for (size_t l = index->max_level_; l > level; --l) {
      entry = index->GreedyClosest(query, entry, l, nullptr);
      if (l == 0) break;
    }
    // Beam insertion on layers min(level, max_level_) .. 0.
    for (size_t l = std::min(level, index->max_level_) + 1; l-- > 0;) {
      HYDRA_ASSIGN_OR_RETURN(
          auto cands, index->SearchLayer(query, entry, l,
                                         options.ef_construction, nullptr));
      if (!cands.empty()) entry = cands.front().second;
      // Layer 0 traditionally allows 2M links.
      size_t m_max = l == 0 ? 2 * options.M : options.M;
      std::vector<size_t> selected =
          index->SelectNeighbors(i, cands, options.M);
      index->links_[i][l] = selected;
      for (size_t nb : selected) {
        auto& back = index->links_[nb][l];
        back.push_back(i);
        if (back.size() > m_max) {
          // Re-prune the overfull neighbor with the same heuristic.
          std::vector<std::pair<double, size_t>> nb_cands;
          nb_cands.reserve(back.size());
          for (size_t x : back) {
            nb_cands.emplace_back(
                SquaredEuclidean(data.series(nb), data.series(x)), x);
          }
          std::sort(nb_cands.begin(), nb_cands.end());
          back = index->SelectNeighbors(nb, nb_cands, m_max);
        }
      }
    }
    if (level > index->max_level_) {
      index->max_level_ = level;
      index->entry_point_ = i;
    }
  }
  return index;
}

size_t HnswIndex::GreedyClosest(std::span<const float> query, size_t entry,
                                size_t level,
                                QueryCounters* counters) const {
  size_t cur = entry;
  double cur_d = SquaredEuclidean(query, data_->series(cur));
  if (counters != nullptr) ++counters->full_distances;
  bool improved = true;
  while (improved) {
    improved = false;
    for (size_t nb : Neighbors(cur, level)) {
      double d = SquaredEuclidean(query, data_->series(nb));
      if (counters != nullptr) ++counters->full_distances;
      if (d < cur_d) {
        cur_d = d;
        cur = nb;
        improved = true;
      }
    }
  }
  return cur;
}

Result<std::vector<std::pair<double, size_t>>> HnswIndex::SearchLayer(
    std::span<const float> query, size_t entry, size_t level, size_t ef,
    QueryCounters* counters,
    const std::shared_ptr<CancellationToken>& cancel) const {
  std::unordered_set<size_t> visited{entry};
  using Pair = std::pair<double, size_t>;
  // Candidates: min-heap by distance. Results: max-heap bounded by ef.
  std::priority_queue<Pair, std::vector<Pair>, std::greater<Pair>> cands;
  std::priority_queue<Pair> results;
  double d0 = SquaredEuclidean(query, data_->series(entry));
  if (counters != nullptr) ++counters->full_distances;
  cands.emplace(d0, entry);
  results.emplace(d0, entry);

  while (!cands.empty()) {
    if (cancel != nullptr) {
      HYDRA_RETURN_IF_ERROR(cancel->Check());
    }
    auto [d, node] = cands.top();
    if (results.size() >= ef && d > results.top().first) break;
    cands.pop();
    for (size_t nb : Neighbors(node, level)) {
      if (!visited.insert(nb).second) continue;
      double dn = SquaredEuclidean(query, data_->series(nb));
      if (counters != nullptr) ++counters->full_distances;
      if (results.size() < ef || dn < results.top().first) {
        cands.emplace(dn, nb);
        results.emplace(dn, nb);
        if (results.size() > ef) results.pop();
      }
    }
  }
  std::vector<Pair> out(results.size());
  for (size_t i = results.size(); i-- > 0;) {
    out[i] = results.top();
    results.pop();
  }
  return out;
}

std::vector<size_t> HnswIndex::SelectNeighbors(
    size_t node, std::vector<std::pair<double, size_t>> candidates,
    size_t m) const {
  // Heuristic selection: take candidates in distance order, keeping one
  // only if no already-kept neighbor is closer to it than the new node is
  // — this spreads links across directions instead of clustering them.
  std::vector<size_t> selected;
  for (const auto& [d, cand] : candidates) {
    if (cand == node) continue;
    if (selected.size() >= m) break;
    bool keep = true;
    for (size_t s : selected) {
      double d_cs = SquaredEuclidean(data_->series(cand), data_->series(s));
      if (d_cs < d) {
        keep = false;
        break;
      }
    }
    if (keep) selected.push_back(cand);
  }
  return selected;
}

Result<KnnAnswer> HnswIndex::Search(std::span<const float> query,
                                    const SearchParams& params,
                                    QueryCounters* counters) const {
  if (params.k == 0) return Status::InvalidArgument("k must be > 0");
  if (params.mode != SearchMode::kNgApproximate) {
    return Status::Unimplemented(
        "hnsw supports ng-approximate search only");
  }
  if (query.size() != data_->length()) {
    return Status::InvalidArgument("query length mismatch");
  }
  size_t ef = params.efs == 0 ? options_.default_ef_search : params.efs;
  ef = std::max(ef, params.k);

  std::shared_ptr<CancellationToken> cancel = ResolveCancellation(params);
  size_t entry = entry_point_;
  for (size_t l = max_level_; l > 0; --l) {
    // Cancellation point between descent layers; the greedy walk per
    // layer is short, so the beam below carries the per-pop checks.
    if (cancel != nullptr) {
      HYDRA_RETURN_IF_ERROR(cancel->Check());
    }
    entry = GreedyClosest(query, entry, l, counters);
  }
  HYDRA_ASSIGN_OR_RETURN(auto found,
                         SearchLayer(query, entry, 0, ef, counters, cancel));

  AnswerSet answers(params.k);
  for (const auto& [d, id] : found) {
    answers.Offer(d, static_cast<int64_t>(id));
  }
  return answers.Finish();
}

size_t HnswIndex::MemoryBytes() const {
  size_t total = sizeof(*this);
  for (const auto& node : links_) {
    total += sizeof(node);
    for (const auto& level : node) {
      total += sizeof(level) + level.size() * sizeof(size_t);
    }
  }
  // HNSW keeps the raw vectors in memory.
  total += data_->SizeBytes();
  return total;
}

size_t HnswIndex::NumNeighbors(size_t node, size_t level) const {
  if (level >= links_[node].size()) return 0;
  return links_[node][level].size();
}

}  // namespace hydra
