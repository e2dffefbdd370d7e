#include "index/mtree/mtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/rng.h"
#include "distance/euclidean.h"

namespace hydra {

double MTreeIndex::Distance(std::span<const float> a, int64_t id,
                            QueryCounters* counters) const {
  PinnedRun b = provider_->PinSeries(static_cast<uint64_t>(id), counters);
  if (counters != nullptr) ++counters->full_distances;
  return Euclidean(a, b.span());
}

Result<double> MTreeIndex::CheckedDistance(std::span<const float> a,
                                           int64_t id,
                                           QueryCounters* counters) const {
  HYDRA_ASSIGN_OR_RETURN(
      PinnedRun run,
      provider_->PinSeriesChecked(static_cast<uint64_t>(id), counters));
  if (counters != nullptr) ++counters->full_distances;
  return Euclidean(a, run.span());
}

Result<std::unique_ptr<MTreeIndex>> MTreeIndex::Build(
    const Dataset& data, SeriesProvider* provider,
    const MTreeOptions& options) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  if (provider == nullptr || provider->num_series() != data.size() ||
      provider->series_length() != data.length()) {
    return Status::InvalidArgument("provider does not match dataset");
  }
  if (options.node_capacity < 2) {
    return Status::InvalidArgument("node_capacity must be >= 2");
  }
  std::unique_ptr<MTreeIndex> index(new MTreeIndex(provider, options));
  index->series_length_ = data.length();
  index->num_series_ = data.size();

  Node root;
  root.is_leaf = true;
  index->nodes_.push_back(root);
  index->root_ = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    index->Insert(static_cast<int64_t>(i), nullptr);
  }

  Rng rng(options.seed);
  index->histogram_ = std::make_unique<DistanceHistogram>(
      data, options.histogram_pairs, options.histogram_bins, rng);
  return index;
}

void MTreeIndex::Insert(int64_t id, QueryCounters* counters) {
  // Pinned: every Distance below fetches another series, and on a small
  // pool an unpinned page could be evicted under `series`.
  PinnedRun pinned = provider_->PinSeries(static_cast<uint64_t>(id), counters);
  std::span<const float> series = pinned.span();

  // Descend to the leaf whose pivot is closest (the classic cheap policy:
  // minimize distance, preferring subtrees that need no radius growth).
  int32_t node_id = root_;
  while (!nodes_[node_id].is_leaf) {
    Node& node = nodes_[node_id];
    int32_t best = 0;
    double best_key = std::numeric_limits<double>::infinity();
    for (size_t e = 0; e < node.entries.size(); ++e) {
      double d = Distance(series, node.entries[e].pivot_id, counters);
      // Entries that already cover the object win; among them the
      // closest pivot; otherwise the one needing the least enlargement.
      double key = d <= node.entries[e].covering_radius
                       ? d
                       : 1e12 + (d - node.entries[e].covering_radius);
      if (key < best_key) {
        best_key = key;
        best = static_cast<int32_t>(e);
      }
    }
    // Grow the covering radius on the way down if needed.
    Entry& chosen = nodes_[node_id].entries[best];
    double d = Distance(series, chosen.pivot_id, counters);
    chosen.covering_radius = std::max(chosen.covering_radius, d);
    node_id = chosen.child;
  }

  Node& leaf = nodes_[node_id];
  Entry entry;
  entry.pivot_id = id;
  if (leaf.parent >= 0) {
    int64_t parent_pivot = nodes_[leaf.parent]
                               .entries[leaf.parent_entry]
                               .pivot_id;
    entry.parent_distance = Distance(series, parent_pivot, counters);
  }
  leaf.entries.push_back(entry);
  pinned.Release();
  if (leaf.entries.size() > options_.node_capacity) {
    SplitNode(node_id, counters);
  }
}

void MTreeIndex::SplitNode(int32_t node_id, QueryCounters* counters) {
  // Promotion: sample pivot pairs, keep the pair minimizing the larger of
  // the two resulting covering radii (the mM_RAD policy).
  std::vector<Entry> entries = std::move(nodes_[node_id].entries);
  nodes_[node_id].entries.clear();
  const size_t n = entries.size();

  // Pairwise distances between member pivots (n <= capacity + 1: cheap).
  std::vector<double> dist(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    PinnedRun si = provider_->PinSeries(
        static_cast<uint64_t>(entries[i].pivot_id), counters);
    for (size_t j = i + 1; j < n; ++j) {
      double d = Distance(si.span(), entries[j].pivot_id, counters);
      dist[i * n + j] = dist[j * n + i] = d;
    }
  }

  size_t best_a = 0, best_b = 1;
  double best_score = std::numeric_limits<double>::infinity();
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      // Generalized-hyperplane assignment, score = max covering radius
      // (entry radii included so child subtrees stay covered).
      double ra = 0.0, rb = 0.0;
      for (size_t e = 0; e < n; ++e) {
        double da = dist[e * n + a] + entries[e].covering_radius;
        double db = dist[e * n + b] + entries[e].covering_radius;
        if (dist[e * n + a] <= dist[e * n + b]) {
          ra = std::max(ra, da);
        } else {
          rb = std::max(rb, db);
        }
      }
      double score = std::max(ra, rb);
      if (score < best_score) {
        best_score = score;
        best_a = a;
        best_b = b;
      }
    }
  }

  // Create the sibling; keep `node_id` as the left node.
  bool was_leaf = nodes_[node_id].is_leaf;
  Node right;
  right.is_leaf = was_leaf;
  int32_t right_id = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(right);

  double radius_a = 0.0, radius_b = 0.0;
  for (size_t e = 0; e < n; ++e) {
    bool to_a = dist[e * n + best_a] <= dist[e * n + best_b];
    Entry moved = entries[e];
    moved.parent_distance = to_a ? dist[e * n + best_a] : dist[e * n + best_b];
    double reach = moved.parent_distance + moved.covering_radius;
    if (to_a) {
      radius_a = std::max(radius_a, reach);
      nodes_[node_id].entries.push_back(moved);
      if (moved.child >= 0) {
        nodes_[moved.child].parent = node_id;
        nodes_[moved.child].parent_entry =
            static_cast<int32_t>(nodes_[node_id].entries.size()) - 1;
      }
    } else {
      radius_b = std::max(radius_b, reach);
      nodes_[right_id].entries.push_back(moved);
      if (moved.child >= 0) {
        nodes_[moved.child].parent = right_id;
        nodes_[moved.child].parent_entry =
            static_cast<int32_t>(nodes_[right_id].entries.size()) - 1;
      }
    }
  }

  Entry entry_a;
  entry_a.pivot_id = entries[best_a].pivot_id;
  entry_a.covering_radius = radius_a;
  entry_a.child = node_id;
  Entry entry_b;
  entry_b.pivot_id = entries[best_b].pivot_id;
  entry_b.covering_radius = radius_b;
  entry_b.child = right_id;

  if (node_id == root_) {
    Node new_root;
    new_root.is_leaf = false;
    int32_t new_root_id = static_cast<int32_t>(nodes_.size());
    new_root.entries = {entry_a, entry_b};
    nodes_.push_back(std::move(new_root));
    nodes_[node_id].parent = new_root_id;
    nodes_[node_id].parent_entry = 0;
    nodes_[right_id].parent = new_root_id;
    nodes_[right_id].parent_entry = 1;
    root_ = new_root_id;
    return;
  }

  // Replace the parent's entry for node_id with entry_a, append entry_b.
  int32_t parent = nodes_[node_id].parent;
  int32_t pe = nodes_[node_id].parent_entry;
  if (nodes_[parent].parent >= 0) {
    int64_t grand_pivot = nodes_[nodes_[parent].parent]
                              .entries[nodes_[parent].parent_entry]
                              .pivot_id;
    for (Entry* e : {&entry_a, &entry_b}) {
      PinnedRun pivot =
          provider_->PinSeries(static_cast<uint64_t>(e->pivot_id), counters);
      e->parent_distance = Distance(pivot.span(), grand_pivot, counters);
    }
  }
  nodes_[parent].entries[pe] = entry_a;
  nodes_[parent].entries.push_back(entry_b);
  nodes_[right_id].parent = parent;
  nodes_[right_id].parent_entry =
      static_cast<int32_t>(nodes_[parent].entries.size()) - 1;
  if (nodes_[parent].entries.size() > options_.node_capacity) {
    SplitNode(parent, counters);
  }
}

Result<KnnAnswer> MTreeIndex::Search(std::span<const float> query,
                                     const SearchParams& params,
                                     QueryCounters* counters) const {
  if (params.k == 0) return Status::InvalidArgument("k must be > 0");
  if (query.size() != series_length_) {
    return Status::InvalidArgument("query length mismatch");
  }
  const bool ng = params.mode == SearchMode::kNgApproximate;
  const double one_plus_eps =
      params.mode == SearchMode::kDeltaEpsilon ? 1.0 + params.epsilon : 1.0;
  double stop_radius = 0.0;
  if (params.mode == SearchMode::kDeltaEpsilon && params.delta < 1.0) {
    stop_radius = one_plus_eps *
                  histogram_->DeltaRadius(params.delta, num_series_);
  }
  const size_t leaf_budget =
      ng ? std::max<size_t>(params.nprobe, 1)
         : std::numeric_limits<size_t>::max();

  // Best-first over (lower bound, node); leaf entries feed the answers.
  struct QEntry {
    double lb;
    int32_t node;
    bool operator>(const QEntry& o) const { return lb > o.lb; }
  };
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<QEntry>> pq;
  pq.push({0.0, root_});
  if (counters != nullptr) ++counters->nodes_pushed;

  AnswerSet answers(params.k);
  std::shared_ptr<CancellationToken> cancel = ResolveCancellation(params);
  size_t leaves_visited = 0;
  while (!pq.empty() && leaves_visited < leaf_budget) {
    // Cancellation point: once per node pop — the M-tree computes full
    // distances while routing, so this bounds deadline response to one
    // node's worth of pivot evaluations.
    if (cancel != nullptr) {
      HYDRA_RETURN_IF_ERROR(cancel->Check());
    }
    QEntry top = pq.top();
    pq.pop();
    double kth = std::sqrt(answers.KthDistanceSq());
    if (top.lb > kth / one_plus_eps) break;
    const Node& node = nodes_[top.node];
    if (node.is_leaf) {
      ++leaves_visited;
      if (counters != nullptr) ++counters->leaves_visited;
      for (const Entry& e : node.entries) {
        HYDRA_ASSIGN_OR_RETURN(double d,
                               CheckedDistance(query, e.pivot_id, counters));
        answers.Offer(d * d, e.pivot_id);
      }
      if (params.mode == SearchMode::kDeltaEpsilon && answers.full() &&
          std::sqrt(answers.KthDistanceSq()) <= stop_radius) {
        break;
      }
    } else {
      for (const Entry& e : node.entries) {
        HYDRA_ASSIGN_OR_RETURN(double d,
                               CheckedDistance(query, e.pivot_id, counters));
        double lb = std::max(0.0, d - e.covering_radius);
        if (lb <= std::sqrt(answers.KthDistanceSq()) / one_plus_eps) {
          pq.push({lb, e.child});
          if (counters != nullptr) ++counters->nodes_pushed;
        }
      }
    }
  }
  return answers.Finish();
}

size_t MTreeIndex::MemoryBytes() const {
  size_t total = sizeof(*this);
  for (const Node& n : nodes_) {
    total += sizeof(Node) + n.entries.size() * sizeof(Entry);
  }
  return total;
}

size_t MTreeIndex::CountRadiusViolations() const {
  // For every routing entry, verify by brute force that all leaf objects
  // beneath it lie within covering_radius of the pivot.
  size_t violations = 0;
  for (const Node& node : nodes_) {
    if (node.is_leaf) continue;
    for (const Entry& entry : node.entries) {
      PinnedRun pivot = provider_->PinSeries(
          static_cast<uint64_t>(entry.pivot_id), nullptr);
      // Collect leaf ids under entry.child.
      std::vector<int32_t> stack = {entry.child};
      while (!stack.empty()) {
        int32_t id = stack.back();
        stack.pop_back();
        const Node& n = nodes_[id];
        for (const Entry& e : n.entries) {
          if (n.is_leaf) {
            PinnedRun obj = provider_->PinSeries(
                static_cast<uint64_t>(e.pivot_id), nullptr);
            if (Euclidean(pivot.span(), obj.span()) >
                entry.covering_radius + 1e-6) {
              ++violations;
            }
          } else {
            stack.push_back(e.child);
          }
        }
      }
    }
  }
  return violations;
}

}  // namespace hydra
