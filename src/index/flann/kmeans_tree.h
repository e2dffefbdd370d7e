#ifndef HYDRA_INDEX_FLANN_KMEANS_TREE_H_
#define HYDRA_INDEX_FLANN_KMEANS_TREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/counters.h"
#include "common/rng.h"
#include "core/dataset.h"
#include "index/answer_set.h"

namespace hydra {

// Hierarchical k-means tree (Muja & Lowe 2009), Flann's second algorithm:
// the data is recursively clustered with small-k k-means; a query greedily
// descends to the closest leaf and then explores the best unvisited
// branches (priority queue on centroid distance) until the `checks`
// budget of visited points is spent.
struct KmeansTreeOptions {
  size_t branching = 8;
  size_t leaf_size = 16;
  size_t kmeans_iterations = 7;  // Flann's default "iterations" knob
  uint64_t seed = 19;
};

class KmeansTree {
 public:
  KmeansTree(const Dataset& data, const KmeansTreeOptions& options);

  // Leaf scans shard across num_threads workers (index/leaf_scanner.h);
  // 1 = serial.
  void Search(std::span<const float> query, size_t checks,
              AnswerSet* answers, QueryCounters* counters,
              size_t num_threads = 1) const;

  size_t MemoryBytes() const;

 private:
  struct Node {
    std::vector<float> centroid;
    std::vector<int32_t> children;  // empty = leaf
    std::vector<int64_t> ids;       // leaf payload
  };

  int32_t BuildNode(std::vector<int64_t> ids, Rng& rng);

  const Dataset* data_;
  KmeansTreeOptions options_;
  std::vector<Node> nodes_;
};

}  // namespace hydra

#endif  // HYDRA_INDEX_FLANN_KMEANS_TREE_H_
