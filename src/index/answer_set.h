#ifndef HYDRA_INDEX_ANSWER_SET_H_
#define HYDRA_INDEX_ANSWER_SET_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "core/metrics.h"

namespace hydra {

// Bounded max-heap of the best k (squared distance, id) candidates; the
// running result set of every k-NN algorithm here. kth() is the pruning
// threshold (+inf until the heap fills). Candidates are ordered by the
// (distance, id) pair, so the k kept do not depend on the order they
// were offered in: on an exact distance tie the smaller id wins.
class AnswerSet {
 public:
  explicit AnswerSet(size_t k) : k_(k) {}

  // Offers a candidate; returns true if it entered the answer set.
  bool Offer(double dist_sq, int64_t id);

  // Squared distance of the current k-th answer (prune threshold).
  double KthDistanceSq() const;

  bool full() const { return heap_.size() == k_; }
  size_t size() const { return heap_.size(); }
  size_t k() const { return k_; }

  // Extracts the final answer, ids ascending by distance, distances in
  // true (square-rooted) space. Destroys the heap.
  KnnAnswer Finish();

  // Removes and returns every (squared distance, id) entry in unspecified
  // order, leaving the set empty. The scanner's fan-out merge
  // (index/leaf_scanner.h) drains per-worker sets with this.
  std::vector<std::pair<double, int64_t>> TakeEntries();

 private:
  size_t k_;
  std::priority_queue<std::pair<double, int64_t>> heap_;
};

}  // namespace hydra

#endif  // HYDRA_INDEX_ANSWER_SET_H_
