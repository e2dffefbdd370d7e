#include "index/answer_set.h"

#include <cmath>
#include <limits>
#include <utility>

namespace hydra {

bool AnswerSet::Offer(double dist_sq, int64_t id) {
  if (heap_.size() < k_) {
    heap_.emplace(dist_sq, id);
    return true;
  }
  // (distance, id) order: on an exact distance tie the smaller id wins,
  // so every scan order keeps the same k answers.
  if (std::make_pair(dist_sq, id) < heap_.top()) {
    heap_.pop();
    heap_.emplace(dist_sq, id);
    return true;
  }
  return false;
}

double AnswerSet::KthDistanceSq() const {
  if (heap_.size() < k_) return std::numeric_limits<double>::infinity();
  return heap_.top().first;
}

std::vector<std::pair<double, int64_t>> AnswerSet::TakeEntries() {
  std::vector<std::pair<double, int64_t>> entries;
  entries.reserve(heap_.size());
  while (!heap_.empty()) {
    entries.push_back(heap_.top());
    heap_.pop();
  }
  return entries;
}

KnnAnswer AnswerSet::Finish() {
  KnnAnswer ans;
  ans.ids.resize(heap_.size());
  ans.distances.resize(heap_.size());
  for (size_t i = heap_.size(); i-- > 0;) {
    ans.ids[i] = heap_.top().second;
    ans.distances[i] = std::sqrt(heap_.top().first);
    heap_.pop();
  }
  return ans;
}

}  // namespace hydra
