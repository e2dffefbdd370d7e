#ifndef HYDRA_INDEX_FLANN_KD_FOREST_H_
#define HYDRA_INDEX_FLANN_KD_FOREST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/counters.h"
#include "common/rng.h"
#include "core/dataset.h"
#include "index/answer_set.h"

namespace hydra {

// Randomized kd-tree forest (Silpa-Anan & Hartley 2008), one of Flann's
// two algorithms. Each tree splits on a dimension drawn uniformly from
// the few highest-variance dimensions at the node (the classic top-5
// rule) at the mean value; a query descends every tree once, then keeps
// expanding the globally closest unexplored branch across all trees until
// the shared `checks` budget of visited points is spent.
struct KdForestOptions {
  size_t num_trees = 4;
  size_t leaf_size = 16;
  size_t top_variance_dims = 5;
  uint64_t seed = 17;
};

class KdForest {
 public:
  KdForest(const Dataset& data, const KdForestOptions& options);

  // Adds the best candidates found within `checks` visited points. A
  // series reached through several trees is evaluated (and counted
  // against `checks`) once. Leaf scans shard across num_threads workers
  // (index/leaf_scanner.h); 1 = serial.
  void Search(std::span<const float> query, size_t checks,
              AnswerSet* answers, QueryCounters* counters,
              size_t num_threads = 1) const;

  size_t MemoryBytes() const;
  size_t num_trees() const { return trees_.size(); }

 private:
  struct Node {
    int32_t left = -1;
    int32_t right = -1;
    uint32_t split_dim = 0;
    float split_value = 0.0f;
    // Leaf payload range in ids_.
    uint32_t begin = 0;
    uint32_t end = 0;
    bool leaf() const { return left < 0; }
  };
  struct Tree {
    std::vector<Node> nodes;
    std::vector<int64_t> ids;
  };

  int32_t BuildNode(Tree* tree, std::vector<int64_t>& ids, size_t begin,
                    size_t end, Rng& rng);

  const Dataset* data_;
  KdForestOptions options_;
  std::vector<Tree> trees_;
};

}  // namespace hydra

#endif  // HYDRA_INDEX_FLANN_KD_FOREST_H_
