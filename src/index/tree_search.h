#ifndef HYDRA_INDEX_TREE_SEARCH_H_
#define HYDRA_INDEX_TREE_SEARCH_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/counters.h"
#include "index/answer_set.h"
#include "index/index.h"
#include "index/leaf_scanner.h"

namespace hydra {

// The index-invariant tree algorithms: best-first k-NN (TreeSearch and
// its entry points) and r-range search (TreeRangeSearch). `Tree` must
// provide:
//   std::vector<NodeId> SearchRoots() const;    // NodeId: an integer type
//   bool IsLeaf(NodeId) const;
//   std::vector<NodeId> NodeChildren(NodeId) const;
//   double MinDistSq(const Ctx&, NodeId) const;  // admissible LB²
// and its leaves, as
//   std::span<const int64_t> LeafIds(NodeId) const;  // sorted ascending
//   SeriesProvider* provider() const;
// which the driver scans (and, with prefetch on, announces while queued),
// or through a hook that feeds the scanner itself and wins when present
// (ADS+ refines the leaf first):
//   void ScanLeaf(NodeId, LeafScanner*, std::span<const size_t> slots) const;
// A LeafIds tree may also bound its members, which lets TreeSearch skip
// members without fetching them (SieveTreeLeaf):
//   void MemberBoundsSq(const Ctx&, NodeId leaf, std::span<double> out,
//                       double cutoff) const;
//     // out[i]: an admissible LB² of LeafIds(leaf)[i]; once a partial
//     // sum of it passes `cutoff`, that partial sum may stand instead
// `Ctx` is the per-query precomputation (query PAA, prefix sums, ...).

// Scans leaf `node` for `slots` of `scanner` (empty = every slot); a
// failed scan leaves each failed slot's typed status in the scanner.
template <typename Tree, typename NodeId>
void ScanTreeLeaf(const Tree& tree, NodeId node, LeafScanner* scanner,
                  std::span<const size_t> slots = {}) {
  if constexpr (requires { tree.ScanLeaf(node, scanner, slots); }) {
    tree.ScanLeaf(node, scanner, slots);
  } else {
    scanner->ScanIds(tree.provider(), tree.LeafIds(node), slots);
  }
}

// The member sieve's relative margin. A member is skipped only when its
// bound exceeds every served query's k-th distance² by more than this:
// the bound and the kernel both sum in double but in different orders,
// so an exact tie must not be lost to rounding (~1e-13 relative).
inline constexpr double kSieveMargin = 1e-9;

// The sieve's buffers, reused from leaf to leaf: one search allocates
// them once.
struct SieveScratch {
  std::vector<double> bounds;  // LB² per served query, then member
  std::vector<double> key;     // each member's fill key, then walk key
  std::vector<size_t> order;   // member positions
  std::vector<int64_t> ids;    // the members one step scans, in order
};

// One query of a tree search: its context, its stopping rules and the
// driver's bookkeeping. Exact is δ = 1, ε = 0; ng-approximate visits at
// most nprobe leaves; δ-ε prunes against bsf/(1+ε) and stops once
// bsf <= (1+ε)·r_δ (paper Algorithm 2).
template <typename Ctx>
struct TreeQuery {
  TreeQuery(const Ctx& query_ctx, const SearchParams& params,
            double delta_radius)
      : ctx(&query_ctx), delta_stop(params.mode == SearchMode::kDeltaEpsilon) {
    const double one_plus_eps = delta_stop ? 1.0 + params.epsilon : 1.0;
    prune_shrink = 1.0 / (one_plus_eps * one_plus_eps);
    stop_sq = (one_plus_eps * delta_radius) * (one_plus_eps * delta_radius);
    if (params.mode == SearchMode::kNgApproximate) {
      leaf_budget = params.nprobe == 0 ? 1 : params.nprobe;
    }
  }

  const Ctx* ctx;
  bool delta_stop;      // δ-ε: stop once the k-th distance² <= stop_sq
  double prune_shrink;  // 1/(1+ε)²
  double stop_sq;       // ((1+ε)·r_δ)²
  size_t leaf_budget = std::numeric_limits<size_t>::max();
  size_t leaves = 0;          // leaves scanned so far
  int64_t descent_leaf = -1;  // the leaf of the initial descent
  bool done = false;          // a stopping rule fired
};

// Scans leaf `node` of a MemberBoundsSq tree for the served slots `who`
// (slot q is queries[q]), fetching only members that a served slot
// could take. Every member's bound is computed for every served query
// (each counted in its lb_distances; the kernel stops summing a member
// once it passes that slot's threshold, below), then:
//   1. Fill: while a served slot holds fewer than k answers, the
//      members with the smallest bounds (smallest over the served
//      queries, ties by position) fill it — as many as the emptiest
//      slot lacks — in one ScanIds call, in id order.
//   2. Walk: the other members some served slot admits — its bound
//      within the slot's threshold, its k-th distance² times
//      1 + kSieveMargin — are sorted by their smallest admitting bound
//      (ties by position) and walked in that order (RefineOrdered).
//      Before each fetch every served slot's threshold is read again:
//      the walk stops at the first member whose bound exceeds every
//      threshold, and passes over one that no slot admits.
// A member left out is one the early-abandoning kernel could never have
// offered: its distance² is at least its bound, which exceeds the k-th
// distance² every served slot's kernel abandons at (the unshrunk one;
// the ε-shrunk bound only prunes nodes), and that k-th only falls; a
// bound the kernel stopped summing is a partial sum already past it. So
// the answers, and every later k-th and traversal decision, equal a
// scan of the whole leaf. What is fetched depends only on the bounds and
// the served slots' answer sets before each step, which every path
// shares, so the serial, fan-out, prefetch and batch paths fetch the
// same members; a fan-out's speculative evaluations count only where
// the walk takes them.
template <typename Tree, typename Ctx, typename NodeId>
void SieveTreeLeaf(const Tree& tree, std::span<const TreeQuery<Ctx>> queries,
                   NodeId node, std::span<const size_t> who,
                   LeafScanner* scanner, SieveScratch* scratch) {
  using RefineStep = LeafScanner::RefineStep;
  const std::span<const int64_t> members = tree.LeafIds(node);
  const size_t n = members.size();
  const size_t nw = who.size();
  if (n == 0 || nw == 0) return;
  // Served slot i's threshold; a failed slot takes nothing (bounds are
  // never negative).
  auto threshold = [&](size_t i) {
    return scanner->alive(who[i])
               ? scanner->KthDistanceSq(who[i]) * (1.0 + kSieveMargin)
               : -1.0;
  };
  std::vector<double>& bounds = scratch->bounds;
  bounds.resize(nw * n);
  size_t fill = 0;
  for (size_t i = 0; i < nw; ++i) {
    const size_t q = who[i];
    tree.MemberBoundsSq(*queries[q].ctx, node,
                        std::span<double>(bounds.data() + i * n, n),
                        threshold(i));
    if (QueryCounters* c = scanner->counters(q)) c->lb_distances += n;
    if (scanner->alive(q)) fill = std::max(fill, scanner->MissingAnswers(q));
  }
  fill = std::min(fill, n);
  std::vector<size_t>& order = scratch->order;
  std::vector<int64_t>& ids = scratch->ids;
  std::vector<double>& key = scratch->key;
  auto by_key = [&key](size_t a, size_t b) {
    return key[a] < key[b] || (key[a] == key[b] && a < b);
  };
  // The fill: its members are the `fill` smallest by (key, position),
  // marked by a key of -1 once scanned.
  if (fill > 0) {
    key.assign(bounds.begin(), bounds.begin() + n);
    for (size_t i = 1; i < nw; ++i) {
      for (size_t m = 0; m < n; ++m) {
        key[m] = std::min(key[m], bounds[i * n + m]);
      }
    }
    order.resize(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::nth_element(order.begin(), order.begin() + (fill - 1), order.end(),
                     by_key);
    std::sort(order.begin(), order.begin() + fill);
    ids.clear();
    for (size_t j = 0; j < fill; ++j) {
      ids.push_back(members[order[j]]);
      key[order[j]] = -1.0;
    }
    scanner->ScanIds(tree.provider(), ids, who);
  } else {
    key.assign(n, 0.0);
  }
  // The walk: each other member keyed by its smallest admitting bound.
  order.clear();
  for (size_t m = 0; m < n; ++m) {
    if (key[m] < 0.0) continue;  // scanned by the fill
    bool admitted = false;
    for (size_t i = 0; i < nw; ++i) {
      const double b = bounds[i * n + m];
      if (b <= threshold(i) && (!admitted || b < key[m])) {
        key[m] = b;
        admitted = true;
      }
    }
    if (admitted) order.push_back(m);
  }
  if (order.empty()) return;
  std::sort(order.begin(), order.end(), by_key);
  ids.clear();
  for (size_t m : order) ids.push_back(members[m]);
  scanner->RefineOrdered(
      tree.provider(), ids.size(), [&ids](size_t j) { return ids[j]; },
      [&](size_t j) {
        const size_t m = order[j];
        RefineStep next = RefineStep::kStop;
        for (size_t i = 0; i < nw; ++i) {
          const double t = threshold(i);
          if (bounds[i * n + m] <= t) return RefineStep::kTake;
          if (key[m] <= t) next = RefineStep::kSkip;
        }
        return next;
      },
      [](size_t) { return true; }, who);
}

// Best-first k-NN over a hierarchical index for any number of queries:
// the paper's Algorithm 1 (exact), its ng-approximate restriction and
// Algorithm 2 (δ-ε) in one loop. Slot q of `scanner` is query q; its
// answers and typed failure stay in the scanner.
//
// One query runs the paper's loop exactly. Several share one heap walk:
// an entry is keyed by the smallest lower bound among the queries it is
// queued for, a node's bounds are computed for every query taking part
// while its summarization is cache-hot (each charged to its query), and a
// leaf is scanned once for the queries whose own bound does not prune it.
// That changes each query's visit order, which cannot change an exact
// answer: a query only takes part where its own admissible bound passes
// its own k-th distance, completed distances are exact, and a true
// neighbor is never abandoned or pruned (bound <= true distance <=
// running k-th). The approximate modes are order-sensitive by design, so
// TreeBatchSearch runs them alone.
//
// A failed scan (exhausted pool, read error) or a fired token fails its
// query alone — a dropped leaf could hold a true neighbor, so degraded
// answers are never returned as exact; the others keep traversing.
// Cancellation is also checked per node pop, so an expired deadline stops
// the loop even when every remaining node is pruned. With prefetch on,
// the best leaves still queued (up to prefetch_depth pages) are announced
// while the current leaf scans; the hint never changes what is visited.
// A tree with MemberBoundsSq has each leaf scanned through SieveTreeLeaf.
template <typename Tree, typename Ctx>
void TreeSearch(const Tree& tree, std::span<TreeQuery<Ctx>> queries,
                LeafScanner* scanner) {
  using NodeId =
      typename std::decay_t<decltype(tree.SearchRoots())>::value_type;
  struct Entry {
    double key;     // the smallest LB² among the queries it is queued for
    NodeId node;
    size_t lbs_at;  // offset of its per-query LB² in `lbs`
    bool operator>(const Entry& o) const { return key > o.key; }
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const size_t nq = queries.size();
  // Each queued entry's LB² per query, +inf where it is not queued. One
  // query needs only the key, so a solo search stores nothing here.
  std::vector<double> lbs;
  auto lb = [&](const Entry& e, size_t q) {
    return nq == 1 ? e.key : lbs[e.lbs_at + q];
  };
  auto bound = [&](size_t q) {
    return scanner->KthDistanceSq(q) * queries[q].prune_shrink;
  };
  auto open = [&](size_t q) {
    const TreeQuery<Ctx>& tq = queries[q];
    return !tq.done && tq.leaves < tq.leaf_budget && scanner->alive(q);
  };
  auto charge = [&](size_t q, uint64_t QueryCounters::*field) {
    if (QueryCounters* c = scanner->counters(q)) ++(c->*field);
  };
  // A min-heap on a plain vector, not std::priority_queue: the readahead
  // PEEKS at the best pending entries, whose shallow prefix of the array
  // is biased toward small bounds — all a cache hint needs.
  std::vector<Entry> heap;
  std::vector<size_t> who;  // the queries taking part in the current node
  // Queues `node` for the queries of `who` whose LB² passes their bound.
  auto push = [&](NodeId node) {
    Entry e{kInf, node, lbs.size()};
    if (nq > 1) lbs.resize(lbs.size() + nq, kInf);
    bool wanted = false;
    for (size_t q : who) {
      const double d = tree.MinDistSq(*queries[q].ctx, node);
      charge(q, &QueryCounters::lb_distances);
      if (d > bound(q)) continue;
      charge(q, &QueryCounters::nodes_pushed);
      if (nq > 1) lbs[e.lbs_at + q] = d;
      e.key = std::min(e.key, d);
      wanted = true;
    }
    if (!wanted) {
      lbs.resize(e.lbs_at);
      return;
    }
    heap.push_back(e);
    std::push_heap(heap.begin(), heap.end(), std::greater<Entry>{});
  };
  SieveScratch sieve;
  // Scans a leaf for `who`, counting the visit for the queries left alive.
  auto visit = [&](NodeId leaf) {
    if constexpr (requires(std::span<double> out) {
                    tree.MemberBoundsSq(*queries[0].ctx, leaf, out, 0.0);
                  }) {
      SieveTreeLeaf(tree, std::span<const TreeQuery<Ctx>>(queries), leaf,
                    std::span<const size_t>(who), scanner, &sieve);
    } else {
      ScanTreeLeaf(tree, leaf, scanner, std::span<const size_t>(who));
    }
    for (size_t q : who) {
      if (!scanner->alive(q)) continue;
      charge(q, &QueryCounters::leaves_visited);
      ++queries[q].leaves;
    }
  };
  // Announces the best queued leaves so their reads overlap the current
  // scan. `announced` keeps a leaf lingering near the heap top from being
  // re-announced (its pages re-probed) on every pop — the heap-side analog
  // of the scanner's half-window re-announce throttle.
  std::unordered_set<int64_t> announced;
  auto prefetch_queued_leaves = [&] {
    if constexpr (requires { tree.LeafIds(heap[0].node); }) {
      size_t budget = scanner->prefetch_depth();
      const size_t window = std::min(heap.size(), 4 * budget);
      for (size_t i = 0; i < window && budget > 0; ++i) {
        bool wanted = false;  // else it will be pruned anyway
        for (size_t q = 0; q < nq; ++q) {
          wanted |= open(q) && lb(heap[i], q) <= bound(q);
        }
        if (!wanted || !tree.IsLeaf(heap[i].node) ||
            !announced.insert(static_cast<int64_t>(heap[i].node)).second) {
          continue;
        }
        budget -= std::min(budget,
                           scanner->PrefetchIds(tree.provider(),
                                                tree.LeafIds(heap[i].node),
                                                budget));
      }
    }
  };

  for (size_t q = 0; q < nq; ++q) {
    if (open(q)) who.push_back(q);
  }
  for (NodeId root : tree.SearchRoots()) push(root);

  // Initial descent (Algorithm 1, line 6): each query greedily follows
  // the min-LB child from its best queued entry (for one query, the heap
  // top) down to one leaf, scanned first for a baseline bsf — once per
  // leaf, for every query that descended to it.
  if (!heap.empty()) {
    scanner->CheckCancellations();
    for (size_t q = 0; q < nq; ++q) {
      if (!open(q)) continue;
      size_t start = 0;
      for (size_t i = 1; i < heap.size(); ++i) {
        if (lb(heap[i], q) < lb(heap[start], q)) start = i;
      }
      NodeId node = heap[start].node;
      while (!tree.IsLeaf(node)) {
        double best = kInf;
        NodeId best_child = NodeId{-1};
        for (NodeId child : tree.NodeChildren(node)) {
          const double d = tree.MinDistSq(*queries[q].ctx, child);
          charge(q, &QueryCounters::lb_distances);
          if (d < best) {
            best = d;
            best_child = child;
          }
        }
        if (best_child == NodeId{-1}) break;  // childless internal node
        node = best_child;
      }
      if (tree.IsLeaf(node)) {
        queries[q].descent_leaf = static_cast<int64_t>(node);
      }
    }
    for (size_t q = 0; q < nq; ++q) {
      const int64_t leaf = queries[q].descent_leaf;
      if (leaf < 0 || queries[q].leaves > 0 || !open(q)) continue;
      who.clear();
      for (size_t r = q; r < nq; ++r) {
        if (queries[r].descent_leaf == leaf && open(r)) who.push_back(r);
      }
      visit(static_cast<NodeId>(leaf));
    }
  }

  while (!heap.empty()) {
    bool searching = false;
    for (size_t q = 0; q < nq; ++q) searching |= open(q);
    if (!searching) break;
    scanner->CheckCancellations();  // cancellation point per node pop
    std::pop_heap(heap.begin(), heap.end(), std::greater<Entry>{});
    const Entry top = heap.back();
    heap.pop_back();
    who.clear();
    for (size_t q = 0; q < nq; ++q) {
      if (!open(q)) continue;
      // Algorithm 2 line 10: a query is done once the closest unexplored
      // region cannot improve its ε-relaxed bsf (every queued entry's LB²
      // for it is at least top.key).
      if (top.key > bound(q)) {
        queries[q].done = true;
      } else if (lb(top, q) <= bound(q) &&
                 static_cast<int64_t>(top.node) != queries[q].descent_leaf) {
        // The descent leaf was scanned before the loop — checked before
        // IsLeaf, since ADS+ may have refined it into an internal node
        // whose re-expansion would rescan its series.
        who.push_back(q);
      }
    }
    if (who.empty()) continue;
    if (tree.IsLeaf(top.node)) {
      prefetch_queued_leaves();
      visit(top.node);
      for (size_t q : who) {
        // Algorithm 2 line 16: the δ-radius stopping condition (the k-th
        // distance is +inf until the answer set fills).
        if (queries[q].delta_stop &&
            scanner->KthDistanceSq(q) <= queries[q].stop_sq) {
          queries[q].done = true;
        }
      }
    } else {
      for (NodeId child : tree.NodeChildren(top.node)) push(child);
    }
  }
}

// One query through TreeSearch: a search is a run with one slot, whose
// leaf scans shard across SearchParams::num_threads workers.
template <typename Tree, typename Ctx>
Result<KnnAnswer> TreeKnnSearch(const Tree& tree, const Ctx& ctx,
                                std::span<const float> query,
                                const SearchParams& params,
                                double delta_radius,
                                QueryCounters* counters) {
  AnswerSet answers(params.k);
  LeafScanner scanner(query, &answers, counters, params.num_threads,
                      params.pin_budget, ResolvePrefetchDepth(params),
                      ResolveCancellation(params));
  TreeQuery<Ctx> one(ctx, params, delta_radius);
  TreeSearch(tree, std::span<TreeQuery<Ctx>>(&one, 1), &scanner);
  return scanner.Finish(0);
}

// The BatchSearch of the tree indexes (iSAX2+, DSTree): the exact members
// run together through one TreeSearch; every other member runs as its own
// search (SplitBatch). `TreeIndex` is a LeafIds tree with MakeQueryContext.
template <typename TreeIndex>
std::vector<Result<KnnAnswer>> TreeBatchSearch(
    const TreeIndex& index, std::span<const BatchQuery> batch) {
  std::vector<Result<KnnAnswer>> results;
  const std::vector<size_t> exact =
      SplitBatch(index, batch, index.provider()->series_length(),
                 /*exact_only=*/true, &results);
  if (exact.empty()) return results;
  using Ctx = decltype(index.MakeQueryContext(batch.front().query));
  std::vector<Ctx> ctxs;
  ctxs.reserve(exact.size());
  std::vector<TreeQuery<Ctx>> queries;
  for (size_t i : exact) {
    const Ctx& ctx = ctxs.emplace_back(index.MakeQueryContext(batch[i].query));
    queries.emplace_back(ctx, batch[i].params, 0.0);
  }
  ScanBatchMembers(batch, exact, &results, [&](LeafScanner* scanner) {
    TreeSearch(index, std::span<TreeQuery<Ctx>>(queries), scanner);
  });
  return results;
}

// Index-invariant r-range search (paper Definition 2): returns the series
// within distance `radius` of the query, ids sorted by distance.
//
// epsilon > 0 gives the ε-approximate variant of Definition 5: every
// returned series still satisfies d <= radius, but subtrees whose lower
// bound exceeds radius/(1+ε) are pruned, so borderline members in
// (radius/(1+ε), radius] may be missed — completeness is traded for
// speed, while the distance guarantee on returned results stays exact.
template <typename Tree, typename Ctx>
Result<KnnAnswer> TreeRangeSearch(const Tree& tree, const Ctx& ctx,
                                  std::span<const float> query, double radius,
                                  double epsilon, QueryCounters* counters) {
  using NodeId =
      typename std::decay_t<decltype(tree.SearchRoots())>::value_type;
  const double prune_sq =
      (radius / (1.0 + epsilon)) * (radius / (1.0 + epsilon));

  // Range search has no bsf to improve, so plain DFS (no ordering) is
  // optimal: every surviving node must be visited anyway.
  std::vector<NodeId> stack = tree.SearchRoots();
  // An unbounded AnswerSet collects every member; the radius filter is
  // applied when the set is finished. The scanner stays serial: with an
  // effectively unbounded k the k-th-distance bound never tightens, so a
  // fan-out would only pay merge costs.
  AnswerSet collector(std::numeric_limits<size_t>::max() / 2);
  LeafScanner scanner(query, &collector, counters);
  while (!stack.empty()) {
    NodeId node = stack.back();
    stack.pop_back();
    double lb = tree.MinDistSq(ctx, node);
    if (counters != nullptr) ++counters->lb_distances;
    if (lb > prune_sq) continue;
    if (tree.IsLeaf(node)) {
      ScanTreeLeaf(tree, node, &scanner);
      if (!scanner.alive(0)) return scanner.status(0);
      if (counters != nullptr) ++counters->leaves_visited;
    } else {
      for (NodeId child : tree.NodeChildren(node)) stack.push_back(child);
    }
  }
  KnnAnswer all = collector.Finish();
  KnnAnswer result;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all.distances[i] > radius) break;  // sorted ascending
    result.ids.push_back(all.ids[i]);
    result.distances.push_back(all.distances[i]);
  }
  return result;
}

// Checks what a search trusts in the nodes of a tree read from a file
// (DSTree and iSAX2+ Load). Each link (`left`/`right`, -1 = none, and
// each of `roots`) names a node past its parent, and no node is linked
// twice: both Build()s append children after their parent, and the
// order also rules out a cycle. Each leaf id names a series of a
// provider holding `num_series`.
template <typename Node>
Status CheckLoadedTree(const std::vector<Node>& nodes,
                       std::span<const int32_t> roots, uint64_t num_series) {
  std::vector<bool> linked(nodes.size(), false);
  auto link = [&](int32_t child, int64_t parent) {
    if (child <= parent || static_cast<size_t>(child) >= nodes.size() ||
        linked[child]) {
      return false;
    }
    linked[child] = true;
    return true;
  };
  for (int32_t root : roots) {
    if (!link(root, -1)) {
      return Status::InvalidArgument("corrupt index file: root link " +
                                     std::to_string(root));
    }
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (int32_t child : {nodes[i].left, nodes[i].right}) {
      if (child != -1 && !link(child, static_cast<int64_t>(i))) {
        return Status::InvalidArgument(
            "corrupt index file: node " + std::to_string(i) + " links " +
            std::to_string(child));
      }
    }
    for (int64_t id : nodes[i].series_ids) {
      if (id < 0 || static_cast<uint64_t>(id) >= num_series) {
        return Status::FailedPrecondition(
            "index file names series " + std::to_string(id) +
            " outside the provider's " + std::to_string(num_series));
      }
    }
  }
  return Status::OK();
}

}  // namespace hydra

#endif  // HYDRA_INDEX_TREE_SEARCH_H_
