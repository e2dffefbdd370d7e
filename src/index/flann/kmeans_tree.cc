#include "index/flann/kmeans_tree.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "distance/euclidean.h"
#include "index/leaf_scanner.h"
#include "transform/kmeans.h"

namespace hydra {

KmeansTree::KmeansTree(const Dataset& data, const KmeansTreeOptions& options)
    : data_(&data), options_(options) {
  std::vector<int64_t> all(data.size());
  for (size_t i = 0; i < data.size(); ++i) all[i] = static_cast<int64_t>(i);
  Rng rng(options.seed);
  BuildNode(std::move(all), rng);
}

int32_t KmeansTree::BuildNode(std::vector<int64_t> ids, Rng& rng) {
  int32_t node_id = static_cast<int32_t>(nodes_.size());
  nodes_.push_back({});
  const size_t dim = data_->length();

  // Centroid of this node (used as the search priority key).
  {
    std::vector<double> mean(dim, 0.0);
    for (int64_t id : ids) {
      auto s = data_->series(static_cast<size_t>(id));
      for (size_t d = 0; d < dim; ++d) mean[d] += s[d];
    }
    double inv = ids.empty() ? 0.0 : 1.0 / static_cast<double>(ids.size());
    nodes_[node_id].centroid.resize(dim);
    for (size_t d = 0; d < dim; ++d) {
      nodes_[node_id].centroid[d] = static_cast<float>(mean[d] * inv);
    }
  }

  if (ids.size() <= std::max(options_.leaf_size, options_.branching)) {
    nodes_[node_id].ids = std::move(ids);
    return node_id;
  }

  // Cluster this subset into `branching` groups.
  std::vector<float> subset(ids.size() * dim);
  for (size_t i = 0; i < ids.size(); ++i) {
    auto s = data_->series(static_cast<size_t>(ids[i]));
    std::copy(s.begin(), s.end(), subset.begin() + i * dim);
  }
  KmeansOptions ko;
  ko.num_clusters = options_.branching;
  ko.max_iterations = options_.kmeans_iterations;
  KmeansResult km = Kmeans(subset, dim, ko, rng);
  size_t k = km.centroids.size() / dim;

  std::vector<std::vector<int64_t>> groups(k);
  for (size_t i = 0; i < ids.size(); ++i) {
    groups[km.assignments[i]].push_back(ids[i]);
  }
  // All points in one group (duplicates): stop growing.
  size_t nonempty = 0;
  for (const auto& g : groups) nonempty += g.empty() ? 0 : 1;
  if (nonempty <= 1) {
    nodes_[node_id].ids = std::move(ids);
    return node_id;
  }

  ids.clear();
  ids.shrink_to_fit();
  for (auto& g : groups) {
    if (g.empty()) continue;
    int32_t child = BuildNode(std::move(g), rng);
    nodes_[node_id].children.push_back(child);
  }
  return node_id;
}

void KmeansTree::Search(std::span<const float> query, size_t checks,
                        AnswerSet* answers, QueryCounters* counters,
                        size_t num_threads) const {
  struct Branch {
    double dist;
    int32_t node;
    bool operator>(const Branch& o) const { return dist > o.dist; }
  };
  std::priority_queue<Branch, std::vector<Branch>, std::greater<Branch>>
      branches;
  size_t visited = 0;
  InMemoryProvider provider(data_);
  LeafScanner scanner(query, answers, counters, num_threads);

  auto descend = [&](int32_t start) {
    int32_t node_id = start;
    while (!nodes_[node_id].children.empty()) {
      const Node& node = nodes_[node_id];
      double best = std::numeric_limits<double>::infinity();
      int32_t best_child = -1;
      for (int32_t child : node.children) {
        double d = SquaredEuclidean(query, nodes_[child].centroid);
        if (counters != nullptr) ++counters->lb_distances;
        if (best_child < 0 || d < best) {
          // A closer sibling displaces the best so far: queue that one
          // too, or its subtree would never be explored.
          if (best_child >= 0) branches.push({best, best_child});
          best = d;
          best_child = child;
        } else {
          branches.push({d, child});
        }
      }
      node_id = best_child;
    }
    const Node& leaf = nodes_[node_id];
    scanner.ScanIds(&provider, leaf.ids);
    visited += leaf.ids.size();
    if (counters != nullptr) ++counters->leaves_visited;
  };

  descend(0);
  while (visited < checks && !branches.empty()) {
    Branch b = branches.top();
    branches.pop();
    descend(b.node);
  }
}

size_t KmeansTree::MemoryBytes() const {
  size_t total = sizeof(*this);
  for (const Node& n : nodes_) {
    total += sizeof(Node) + n.centroid.size() * sizeof(float) +
             n.children.size() * sizeof(int32_t) +
             n.ids.size() * sizeof(int64_t);
  }
  return total;
}

}  // namespace hydra
