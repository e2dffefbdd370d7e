#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "index/answer_set.h"
#include "index/incremental.h"
#include "index/tree_search.h"

namespace hydra {
namespace {

// A hand-built mock hierarchy over scalar "series" (length-1 vectors):
// lower bounds and leaf contents are fully controlled, so the generic
// algorithms can be verified against enumerable expectations.
//
// Tree layout:
//   root(0) ── a(1): leaf {0.0, 0.1, 0.2}
//          └── b(2) ── c(3): leaf {1.0, 1.1}
//                  └── d(4): leaf {5.0, 5.5, 6.0}
// Values double as ids via index into `values`.
class MockTree {
 public:
  struct Ctx {
    double query;
  };

  MockTree() {
    values_ = {0.0, 0.1, 0.2, 1.0, 1.1, 5.0, 5.5, 6.0};
    children_[0] = {1, 2};
    children_[2] = {3, 4};
    leaf_members_[1] = {0, 1, 2};
    leaf_members_[3] = {3, 4};
    leaf_members_[4] = {5, 6, 7};
    // Node interval bounds for MinDist.
    bounds_[0] = {0.0, 6.0};
    bounds_[1] = {0.0, 0.2};
    bounds_[2] = {1.0, 6.0};
    bounds_[3] = {1.0, 1.1};
    bounds_[4] = {5.0, 6.0};
  }

  std::vector<int32_t> SearchRoots() const { return {0}; }
  bool IsLeaf(int32_t id) const { return leaf_members_.count(id) > 0; }
  std::vector<int32_t> NodeChildren(int32_t id) const {
    auto it = children_.find(id);
    return it == children_.end() ? std::vector<int32_t>{} : it->second;
  }
  double MinDistSq(const Ctx& ctx, int32_t id) const {
    auto [lo, hi] = bounds_.at(id);
    double d = 0.0;
    if (ctx.query < lo) d = lo - ctx.query;
    if (ctx.query > hi) d = ctx.query - hi;
    return d * d;
  }
  void ScanLeaf(int32_t id, LeafScanner* scanner,
                std::span<const size_t> slots) const {
    for (int64_t member : leaf_members_.at(id)) {
      // Each member is a length-1 series; the scanner computes
      // (query[0] - value)^2 through the dispatched kernel.
      float v = static_cast<float>(values_[member]);
      scanner->ScanContiguous(&v, 1, 1, member, slots);
    }
  }

  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
  std::map<int32_t, std::vector<int32_t>> children_;
  std::map<int32_t, std::vector<int64_t>> leaf_members_;
  std::map<int32_t, std::pair<double, double>> bounds_;
};

SearchParams Exact(size_t k) {
  SearchParams p;
  p.mode = SearchMode::kExact;
  p.k = k;
  return p;
}

TEST(TreeSearch, ExactFindsTrueNeighborsOnMock) {
  MockTree tree;
  std::vector<float> query = {1.04f};
  MockTree::Ctx ctx{1.04};
  KnnAnswer ans =
      TreeKnnSearch(tree, ctx, query, Exact(2), 0.0, nullptr).value();
  ASSERT_EQ(ans.size(), 2u);
  EXPECT_EQ(ans.ids[0], 3);  // 1.0 at distance 0.04
  EXPECT_EQ(ans.ids[1], 4);  // 1.1 at distance 0.06
  EXPECT_NEAR(ans.distances[0], 0.04, 1e-6);
}

TEST(TreeSearch, ExactPrunesFarSubtree) {
  MockTree tree;
  std::vector<float> query = {0.02f};
  MockTree::Ctx ctx{0.02};
  QueryCounters c;
  KnnAnswer ans = TreeKnnSearch(tree, ctx, query, Exact(1), 0.0, &c).value();
  ASSERT_EQ(ans.size(), 1u);
  EXPECT_EQ(ans.ids[0], 0);
  // Leaf d ({5.0,...}) must never be scanned: its lb (4.9²) exceeds bsf.
  // Leaf a has 3 members, leaf c has 2: at most 5 distances.
  EXPECT_LE(c.full_distances, 5u);
}

TEST(TreeSearch, NgBudgetOneScansExactlyOneLeaf) {
  MockTree tree;
  std::vector<float> query = {5.2f};
  MockTree::Ctx ctx{5.2};
  SearchParams p;
  p.mode = SearchMode::kNgApproximate;
  p.k = 1;
  p.nprobe = 1;
  QueryCounters c;
  KnnAnswer ans = TreeKnnSearch(tree, ctx, query, p, 0.0, &c).value();
  EXPECT_EQ(c.leaves_visited, 1u);
  ASSERT_EQ(ans.size(), 1u);
  EXPECT_EQ(ans.ids[0], 5);  // descent reaches leaf d, best is 5.0
}

TEST(TreeSearch, EpsilonPruningCanSkipEqualCostLeaves) {
  MockTree tree;
  // Query between leaf a and leaf c; with a large epsilon the search may
  // stop after the descent leaf, and the guarantee still holds.
  std::vector<float> query = {0.55f};
  MockTree::Ctx ctx{0.55};
  SearchParams p;
  p.mode = SearchMode::kDeltaEpsilon;
  p.k = 1;
  p.epsilon = 2.0;
  p.delta = 1.0;
  KnnAnswer ans = TreeKnnSearch(tree, ctx, query, p, 0.0, nullptr).value();
  ASSERT_EQ(ans.size(), 1u);
  double true_nn = 0.35;  // |0.55 - 0.2|
  EXPECT_LE(ans.distances[0], (1.0 + 2.0) * true_nn + 1e-9);
}

TEST(TreeSearch, DeltaRadiusStopsEarly) {
  MockTree tree;
  std::vector<float> query = {0.02f};
  MockTree::Ctx ctx{0.02};
  SearchParams p;
  p.mode = SearchMode::kDeltaEpsilon;
  p.k = 1;
  p.epsilon = 0.0;
  p.delta = 0.5;  // activates the delta-radius path
  // A huge delta radius: the first bsf (0.05) satisfies the stop rule, so
  // only the descent leaf is scanned.
  QueryCounters c;
  KnnAnswer ans = TreeKnnSearch(tree, ctx, query, p, /*delta_radius=*/10.0,
                                &c).value();
  EXPECT_EQ(c.leaves_visited, 1u);
  ASSERT_EQ(ans.size(), 1u);
  EXPECT_EQ(ans.ids[0], 0);
}

TEST(TreeSearch, KLargerThanDatasetReturnsEverything) {
  MockTree tree;
  std::vector<float> query = {3.0f};
  MockTree::Ctx ctx{3.0};
  KnnAnswer ans =
      TreeKnnSearch(tree, ctx, query, Exact(100), 0.0, nullptr).value();
  EXPECT_EQ(ans.size(), tree.values().size());
  for (size_t i = 1; i < ans.size(); ++i) {
    EXPECT_GE(ans.distances[i], ans.distances[i - 1]);
  }
}

TEST(Incremental, MockStreamEnumeratesInOrder) {
  MockTree tree;
  std::vector<float> query = {1.05f};
  MockTree::Ctx ctx{1.05};
  IncrementalKnnStream<MockTree, MockTree::Ctx> stream(tree, ctx, query,
                                                       0.0, nullptr);
  int64_t id;
  double dist;
  double prev = -1.0;
  size_t count = 0;
  while (stream.Next(&id, &dist)) {
    EXPECT_GE(dist, prev - 1e-12);
    prev = dist;
    ++count;
  }
  EXPECT_EQ(count, tree.values().size());
}

TEST(AnswerSet, OfferKeepsBestK) {
  AnswerSet set(2);
  EXPECT_TRUE(set.Offer(9.0, 1));
  EXPECT_TRUE(set.Offer(4.0, 2));
  EXPECT_TRUE(set.full());
  EXPECT_DOUBLE_EQ(set.KthDistanceSq(), 9.0);
  EXPECT_TRUE(set.Offer(1.0, 3));   // evicts 9.0
  EXPECT_FALSE(set.Offer(16.0, 4));  // too far
  KnnAnswer ans = set.Finish();
  ASSERT_EQ(ans.size(), 2u);
  EXPECT_EQ(ans.ids[0], 3);
  EXPECT_EQ(ans.ids[1], 2);
  EXPECT_DOUBLE_EQ(ans.distances[0], 1.0);
  EXPECT_DOUBLE_EQ(ans.distances[1], 2.0);  // sqrt(4)
}

TEST(AnswerSet, KthDistanceInfiniteUntilFull) {
  AnswerSet set(3);
  EXPECT_TRUE(std::isinf(set.KthDistanceSq()));
  set.Offer(1.0, 1);
  set.Offer(2.0, 2);
  EXPECT_TRUE(std::isinf(set.KthDistanceSq()));
  set.Offer(3.0, 3);
  EXPECT_DOUBLE_EQ(set.KthDistanceSq(), 3.0);
}

TEST(AnswerSet, FinishOnPartialSet) {
  AnswerSet set(5);
  set.Offer(4.0, 7);
  KnnAnswer ans = set.Finish();
  ASSERT_EQ(ans.size(), 1u);
  EXPECT_EQ(ans.ids[0], 7);
  EXPECT_DOUBLE_EQ(ans.distances[0], 2.0);
}

}  // namespace
}  // namespace hydra
