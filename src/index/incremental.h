#ifndef HYDRA_INDEX_INCREMENTAL_H_
#define HYDRA_INDEX_INCREMENTAL_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <vector>

#include "common/counters.h"
#include "index/answer_set.h"
#include "index/index.h"
#include "index/leaf_scanner.h"
#include "index/tree_search.h"

namespace hydra {

// Incremental and progressive k-NN over the same tree interface used by
// TreeSearch (index/tree_search.h) — the paper's two "future research
// directions" (§5):
//
//  * Incremental search returns neighbors one at a time, in distance
//    order, instead of all k at once ("the current approaches return the
//    k nearest neighbors all at once which impedes their interactivity").
//    Implementation: the Hjaltason–Samet algorithm — one priority queue
//    holds both index nodes (keyed by lower bound) and concrete series
//    (keyed by true distance); when a series surfaces before every
//    remaining node, it is provably the next nearest. An ε relaxation
//    divides object keys by (1+ε), making each emission ε-approximate.
//
//  * Progressive search runs a normal best-first search but reports every
//    improvement of the running k-NN set through a callback, so a caller
//    can render increasingly accurate answers until the search completes
//    exactly.
template <typename Tree, typename Ctx>
class IncrementalKnnStream {
 public:
  // The stream borrows tree/ctx/query; they must outlive it.
  IncrementalKnnStream(const Tree& tree, const Ctx& ctx,
                       std::span<const float> query, double epsilon,
                       QueryCounters* counters)
      : tree_(tree),
        ctx_(ctx),
        query_(query),
        relax_(1.0 / ((1.0 + epsilon) * (1.0 + epsilon))),
        counters_(counters) {
    for (auto root : tree_.SearchRoots()) {
      Push(Entry::Node(tree_.MinDistSq(ctx_, root), root));
      if (counters_ != nullptr) ++counters_->lb_distances;
    }
  }

  // Returns the next neighbor in (ε-relaxed) distance order, or false
  // when the collection is exhausted — or when a leaf scan failed, in
  // which case status() is non-OK and the stream stays dry (an emission
  // after a dropped leaf could be out of order).
  bool Next(int64_t* id, double* distance) {
    while (status_.ok() && !queue_.empty()) {
      Entry top = queue_.top();
      queue_.pop();
      if (top.is_object) {
        *id = top.id;
        *distance = std::sqrt(top.dist_sq);
        return true;
      }
      if (tree_.IsLeaf(top.node)) {
        ScanLeaf(top.node);
      } else {
        for (auto child : tree_.NodeChildren(top.node)) {
          Push(Entry::Node(tree_.MinDistSq(ctx_, child), child));
          if (counters_ != nullptr) ++counters_->lb_distances;
        }
      }
    }
    return false;
  }

  // OK while every consumed leaf scanned cleanly; the first fetch error
  // (exhausted buffer pool, read failure) parks here and ends the stream.
  const Status& status() const { return status_; }

 private:
  struct Entry {
    double key;      // priority: lb² for nodes, dist²·relax for objects
    double dist_sq;  // true squared distance (objects only)
    bool is_object;
    int64_t id;      // object id
    typename std::decay_t<decltype(std::declval<Tree>().SearchRoots())>::
        value_type node;  // node id (nodes only)

    static Entry Node(double lb_sq, decltype(node) n) {
      Entry e{};
      e.key = lb_sq;
      e.is_object = false;
      e.node = n;
      return e;
    }
    static Entry Object(double key, double dist_sq, int64_t id) {
      Entry e{};
      e.key = key;
      e.dist_sq = dist_sq;
      e.is_object = true;
      e.id = id;
      return e;
    }
    bool operator>(const Entry& o) const { return key > o.key; }
  };

  void Push(Entry e) {
    queue_.push(e);
    if (counters_ != nullptr) ++counters_->nodes_pushed;
  }

  void ScanLeaf(decltype(Entry{}.node) node) {
    // Collect the leaf's series as object entries via a throwaway
    // AnswerSet sized to the leaf (the scanner's interface is heap-based).
    // Incremental streams hand out one neighbor at a time, so leaf scans
    // stay serial (num_threads = 1).
    AnswerSet scratch(std::numeric_limits<size_t>::max() / 2);
    LeafScanner scratch_scanner(query_, &scratch, counters_);
    ScanTreeLeaf(tree_, node, &scratch_scanner);
    if (!scratch_scanner.alive(0)) {
      status_ = scratch_scanner.status(0);
      return;
    }
    if (counters_ != nullptr) ++counters_->leaves_visited;
    KnnAnswer all = scratch.Finish();
    for (size_t i = 0; i < all.size(); ++i) {
      double d_sq = all.distances[i] * all.distances[i];
      Push(Entry::Object(d_sq * relax_, d_sq, all.ids[i]));
    }
  }

  const Tree& tree_;
  const Ctx& ctx_;
  std::span<const float> query_;
  double relax_;
  QueryCounters* counters_;
  Status status_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
};

// Progress report: fired every time the running k-NN set improves.
struct ProgressiveUpdate {
  KnnAnswer current;        // the improved k-NN set so far
  uint64_t improvements;    // 1 for the first report, 2 for the next, ...
  bool final;               // true on the last (exact) report
};
using ProgressiveCallback = std::function<void(const ProgressiveUpdate&)>;

// Exact best-first k-NN that reports intermediate result sets. The final
// callback invocation (final = true) carries the exact answer. A failed
// leaf scan (exhausted buffer pool, read error) propagates as the
// stream's error status — the partial set already reported through the
// callback is never promoted to a final/exact answer.
template <typename Tree, typename Ctx>
Result<KnnAnswer> ProgressiveKnnSearch(const Tree& tree, const Ctx& ctx,
                                       std::span<const float> query, size_t k,
                                       const ProgressiveCallback& callback,
                                       QueryCounters* counters) {
  IncrementalKnnStream<Tree, Ctx> stream(tree, ctx, query, /*epsilon=*/0.0,
                                         counters);
  // Consuming the incremental stream yields neighbors best-first, so each
  // emission *appends* to the running set; every prefix is an improvement.
  KnnAnswer running;
  uint64_t improvements = 0;
  int64_t id;
  double distance;
  while (running.size() < k && stream.Next(&id, &distance)) {
    running.ids.push_back(id);
    running.distances.push_back(distance);
    ++improvements;
    if (callback) {
      callback({running, improvements, running.size() == k});
    }
  }
  HYDRA_RETURN_IF_ERROR(stream.status());
  if (callback && running.size() < k && improvements > 0) {
    // Collection smaller than k: re-fire the last state as final.
    callback({running, improvements, true});
  }
  return running;
}

}  // namespace hydra

#endif  // HYDRA_INDEX_INCREMENTAL_H_
