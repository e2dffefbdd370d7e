#include "index/flann/kd_forest.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

#include "index/leaf_scanner.h"

namespace hydra {

KdForest::KdForest(const Dataset& data, const KdForestOptions& options)
    : data_(&data), options_(options) {
  Rng rng(options.seed);
  trees_.resize(std::max<size_t>(options.num_trees, 1));
  for (Tree& tree : trees_) {
    tree.ids.resize(data.size());
    std::iota(tree.ids.begin(), tree.ids.end(), 0);
    BuildNode(&tree, tree.ids, 0, tree.ids.size(), rng);
  }
}

int32_t KdForest::BuildNode(Tree* tree, std::vector<int64_t>& ids,
                            size_t begin, size_t end, Rng& rng) {
  int32_t node_id = static_cast<int32_t>(tree->nodes.size());
  tree->nodes.push_back({});
  if (end - begin <= options_.leaf_size) {
    Node& node = tree->nodes[node_id];
    node.begin = static_cast<uint32_t>(begin);
    node.end = static_cast<uint32_t>(end);
    return node_id;
  }

  // Variance of each dimension over this subset; split on one of the
  // top-variance dimensions chosen at random (tree diversity).
  const size_t dim = data_->length();
  std::vector<double> mean(dim, 0.0), var(dim, 0.0);
  for (size_t i = begin; i < end; ++i) {
    auto s = data_->series(static_cast<size_t>(ids[i]));
    for (size_t d = 0; d < dim; ++d) mean[d] += s[d];
  }
  double inv_n = 1.0 / static_cast<double>(end - begin);
  for (double& m : mean) m *= inv_n;
  for (size_t i = begin; i < end; ++i) {
    auto s = data_->series(static_cast<size_t>(ids[i]));
    for (size_t d = 0; d < dim; ++d) {
      double x = s[d] - mean[d];
      var[d] += x * x;
    }
  }
  std::vector<uint32_t> dims(dim);
  std::iota(dims.begin(), dims.end(), 0);
  size_t top = std::min<size_t>(options_.top_variance_dims, dim);
  std::partial_sort(dims.begin(), dims.begin() + top, dims.end(),
                    [&](uint32_t a, uint32_t b) { return var[a] > var[b]; });
  uint32_t split_dim = dims[rng.NextUint64(top)];
  float split_value = static_cast<float>(mean[split_dim]);

  // Partition around the split value.
  auto it = std::partition(ids.begin() + begin, ids.begin() + end,
                           [&](int64_t id) {
                             return data_->series(static_cast<size_t>(
                                        id))[split_dim] < split_value;
                           });
  size_t mid = static_cast<size_t>(it - ids.begin());
  if (mid == begin || mid == end) {
    // Degenerate (constant dimension): make a leaf and stop recursing.
    Node& node = tree->nodes[node_id];
    node.begin = static_cast<uint32_t>(begin);
    node.end = static_cast<uint32_t>(end);
    return node_id;
  }

  int32_t left = BuildNode(tree, ids, begin, mid, rng);
  int32_t right = BuildNode(tree, ids, mid, end, rng);
  Node& node = tree->nodes[node_id];
  node.left = left;
  node.right = right;
  node.split_dim = split_dim;
  node.split_value = split_value;
  return node_id;
}

void KdForest::Search(std::span<const float> query, size_t checks,
                      AnswerSet* answers, QueryCounters* counters,
                      size_t num_threads) const {
  // Shared branch queue across trees, prioritized by the distance of the
  // query to the unexplored half-space boundary.
  struct Branch {
    double bound;
    uint32_t tree;
    int32_t node;
    bool operator>(const Branch& o) const { return bound > o.bound; }
  };
  std::priority_queue<Branch, std::vector<Branch>, std::greater<Branch>>
      branches;
  size_t visited = 0;
  InMemoryProvider provider(data_);
  LeafScanner scanner(query, answers, counters, num_threads);
  // Every tree indexes every series, so leaves of different trees
  // overlap: skip the ids this query has already evaluated.
  std::vector<bool> evaluated(data_->size());
  std::vector<int64_t> fresh;

  auto descend = [&](uint32_t t, int32_t start, double start_bound) {
    int32_t node_id = start;
    const Tree& tree = trees_[t];
    while (!tree.nodes[node_id].leaf()) {
      const Node& node = tree.nodes[node_id];
      double diff = static_cast<double>(query[node.split_dim]) -
                    node.split_value;
      int32_t near = diff < 0 ? node.left : node.right;
      int32_t far = diff < 0 ? node.right : node.left;
      branches.push({start_bound + diff * diff, t, far});
      node_id = near;
    }
    const Node& leaf = tree.nodes[node_id];
    fresh.clear();
    for (uint32_t i = leaf.begin; i < leaf.end; ++i) {
      const int64_t id = tree.ids[i];
      if (!evaluated[static_cast<size_t>(id)]) {
        evaluated[static_cast<size_t>(id)] = true;
        fresh.push_back(id);
      }
    }
    scanner.ScanIds(&provider, fresh);
    visited += fresh.size();
    if (counters != nullptr) ++counters->leaves_visited;
  };

  for (uint32_t t = 0; t < trees_.size(); ++t) descend(t, 0, 0.0);
  while (visited < checks && !branches.empty()) {
    Branch b = branches.top();
    branches.pop();
    // Branch-and-bound: skip half-spaces that cannot beat the current kth.
    if (b.bound > answers->KthDistanceSq()) continue;
    descend(b.tree, b.node, b.bound);
  }
}

size_t KdForest::MemoryBytes() const {
  size_t total = sizeof(*this);
  for (const Tree& t : trees_) {
    total += t.nodes.size() * sizeof(Node) + t.ids.size() * sizeof(int64_t);
  }
  return total;
}

}  // namespace hydra
