#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/generators.h"
#include "core/ground_truth.h"
#include "index/dstree/dstree.h"
#include "storage/buffer_manager.h"

namespace hydra {
namespace {

struct Fixture {
  Dataset data;
  InMemoryProvider provider;
  std::unique_ptr<DSTreeIndex> index;

  explicit Fixture(size_t n = 400, size_t len = 64, size_t leaf = 16)
      : data([&] {
          Rng rng(99);
          return MakeRandomWalk(n, len, rng);
        }()),
        provider(&data) {
    DSTreeOptions opts;
    opts.leaf_capacity = leaf;
    opts.histogram_pairs = 2000;
    auto built = DSTreeIndex::Build(data, &provider, opts);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    index = std::move(built).value();
  }
};

TEST(DSTree, BuildRejectsBadInput) {
  Dataset empty;
  InMemoryProvider provider(&empty);
  EXPECT_FALSE(DSTreeIndex::Build(empty, &provider).ok());

  Rng rng(1);
  Dataset ds = MakeRandomWalk(10, 16, rng);
  Dataset other = MakeRandomWalk(5, 16, rng);
  InMemoryProvider wrong(&other);
  EXPECT_FALSE(DSTreeIndex::Build(ds, &wrong).ok());

  InMemoryProvider ok_provider(&ds);
  DSTreeOptions bad;
  bad.leaf_capacity = 0;
  EXPECT_FALSE(DSTreeIndex::Build(ds, &ok_provider, bad).ok());
}

TEST(DSTree, TreeGrowsAndCountsAreConsistent) {
  Fixture f;
  EXPECT_GT(f.index->num_nodes(), 1u);
  EXPECT_GT(f.index->num_leaves(), 1u);
  // Every series lands in exactly one leaf.
  size_t total = 0;
  for (size_t i = 0; i < f.index->num_nodes(); ++i) {
    const DSTreeNode& n = f.index->node(i);
    if (n.is_leaf) total += n.series_ids.size();
  }
  EXPECT_EQ(total, f.data.size());
  // Root subtree count covers everything.
  EXPECT_EQ(f.index->node(0).count, f.data.size());
}

TEST(DSTree, InternalNodesHaveTwoChildrenAndConsistentCounts) {
  Fixture f;
  for (size_t i = 0; i < f.index->num_nodes(); ++i) {
    const DSTreeNode& n = f.index->node(i);
    if (n.is_leaf) continue;
    ASSERT_GE(n.left, 0);
    ASSERT_GE(n.right, 0);
    EXPECT_EQ(n.count, f.index->node(n.left).count +
                           f.index->node(n.right).count);
  }
}

TEST(DSTree, SynopsisEnvelopesAreOrdered) {
  Fixture f;
  for (size_t i = 0; i < f.index->num_nodes(); ++i) {
    const DSTreeNode& n = f.index->node(i);
    for (size_t s = 0; s < n.min_mean.size(); ++s) {
      EXPECT_LE(n.min_mean[s], n.max_mean[s]);
      EXPECT_LE(n.min_std[s], n.max_std[s]);
      EXPECT_GE(n.min_std[s], 0.0);
    }
  }
}

TEST(DSTree, ExactSearchMatchesBruteForce) {
  Fixture f;
  Rng rng(7);
  Dataset queries = MakeRandomWalk(10, 64, rng);
  SearchParams params;
  params.mode = SearchMode::kExact;
  params.k = 5;
  for (size_t q = 0; q < queries.size(); ++q) {
    KnnAnswer truth = ExactKnn(f.data, queries.series(q), 5);
    auto ans = f.index->Search(queries.series(q), params, nullptr);
    ASSERT_TRUE(ans.ok());
    ASSERT_EQ(ans.value().size(), 5u);
    for (size_t r = 0; r < 5; ++r) {
      EXPECT_NEAR(ans.value().distances[r], truth.distances[r], 1e-6)
          << "query " << q << " rank " << r;
    }
  }
}

TEST(DSTree, ExactSearchPrunesAgainstScan) {
  Fixture f;
  Rng rng(8);
  Dataset queries = MakeRandomWalk(5, 64, rng);
  SearchParams params;
  params.mode = SearchMode::kExact;
  params.k = 1;
  uint64_t total_dist = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryCounters c;
    ASSERT_TRUE(f.index->Search(queries.series(q), params, &c).ok());
    total_dist += c.full_distances;
  }
  // Pruning must beat brute force on random walks.
  EXPECT_LT(total_dist, queries.size() * f.data.size());
}

TEST(DSTree, NgApproximateVisitsBudgetedLeaves) {
  Fixture f;
  Rng rng(9);
  Dataset queries = MakeRandomWalk(5, 64, rng);
  SearchParams params;
  params.mode = SearchMode::kNgApproximate;
  params.k = 1;
  params.nprobe = 3;
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryCounters c;
    ASSERT_TRUE(f.index->Search(queries.series(q), params, &c).ok());
    EXPECT_LE(c.leaves_visited, 3u);
    EXPECT_GE(c.leaves_visited, 1u);
  }
}

TEST(DSTree, NgAccuracyImprovesWithNprobe) {
  Fixture f(600, 64, 16);
  Rng rng(10);
  Dataset queries = MakeRandomWalk(20, 64, rng);
  auto truth = ExactKnnWorkload(f.data, queries, 10);

  auto recall_at = [&](size_t nprobe) {
    SearchParams params;
    params.mode = SearchMode::kNgApproximate;
    params.k = 10;
    params.nprobe = nprobe;
    double sum = 0.0;
    for (size_t q = 0; q < queries.size(); ++q) {
      auto ans = f.index->Search(queries.series(q), params, nullptr);
      EXPECT_TRUE(ans.ok());
      sum += RecallAt(truth[q], ans.value(), 10);
    }
    return sum / static_cast<double>(queries.size());
  };
  double r1 = recall_at(1);
  double r16 = recall_at(16);
  double r_all = recall_at(1000000);
  EXPECT_LE(r1, r16 + 1e-9);
  EXPECT_NEAR(r_all, 1.0, 1e-9);  // unbounded budget = exact
}

TEST(DSTree, EpsilonApproximateHonorsGuarantee) {
  Fixture f;
  Rng rng(11);
  Dataset queries = MakeRandomWalk(20, 64, rng);
  for (double eps : {0.0, 0.5, 1.0, 3.0}) {
    SearchParams params;
    params.mode = SearchMode::kDeltaEpsilon;
    params.k = 1;
    params.epsilon = eps;
    params.delta = 1.0;
    for (size_t q = 0; q < queries.size(); ++q) {
      KnnAnswer truth = ExactKnn(f.data, queries.series(q), 1);
      auto ans = f.index->Search(queries.series(q), params, nullptr);
      ASSERT_TRUE(ans.ok());
      ASSERT_EQ(ans.value().size(), 1u);
      // Definition 5: d(result) <= (1+ε)·d(true NN).
      EXPECT_LE(ans.value().distances[0],
                (1.0 + eps) * truth.distances[0] + 1e-6)
          << "eps=" << eps;
    }
  }
}

TEST(DSTree, EpsilonZeroDeltaOneIsExact) {
  Fixture f;
  Rng rng(12);
  Dataset queries = MakeRandomWalk(10, 64, rng);
  SearchParams params;
  params.mode = SearchMode::kDeltaEpsilon;
  params.k = 3;
  params.epsilon = 0.0;
  params.delta = 1.0;
  for (size_t q = 0; q < queries.size(); ++q) {
    KnnAnswer truth = ExactKnn(f.data, queries.series(q), 3);
    auto ans = f.index->Search(queries.series(q), params, nullptr);
    ASSERT_TRUE(ans.ok());
    EXPECT_EQ(ans.value().ids, truth.ids);
  }
}

TEST(DSTree, LargerEpsilonNeverSlower) {
  Fixture f(800, 64, 16);
  Rng rng(13);
  Dataset queries = MakeRandomWalk(10, 64, rng);
  auto distances_at = [&](double eps) {
    SearchParams params;
    params.mode = SearchMode::kDeltaEpsilon;
    params.k = 1;
    params.epsilon = eps;
    QueryCounters c;
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_TRUE(f.index->Search(queries.series(q), params, &c).ok());
    }
    return c.full_distances;
  };
  EXPECT_LE(distances_at(2.0), distances_at(0.0));
}

TEST(DSTree, DeltaBelowOneCanOnlyReduceWork) {
  Fixture f(800, 64, 16);
  Rng rng(14);
  Dataset queries = MakeRandomWalk(10, 64, rng);
  auto work_at = [&](double delta) {
    SearchParams params;
    params.mode = SearchMode::kDeltaEpsilon;
    params.k = 1;
    params.epsilon = 0.0;
    params.delta = delta;
    QueryCounters c;
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_TRUE(f.index->Search(queries.series(q), params, &c).ok());
    }
    return c.full_distances;
  };
  EXPECT_LE(work_at(0.5), work_at(1.0));
}

TEST(DSTree, QueryLengthMismatchRejected) {
  Fixture f;
  std::vector<float> bad(32, 0.0f);
  SearchParams params;
  params.k = 1;
  EXPECT_FALSE(f.index->Search(bad, params, nullptr).ok());
}

TEST(DSTree, KZeroRejected) {
  Fixture f;
  std::vector<float> q(64, 0.0f);
  SearchParams params;
  params.k = 0;
  EXPECT_FALSE(f.index->Search(q, params, nullptr).ok());
}

TEST(DSTree, DuplicateSeriesDoNotBreakSplits) {
  // All-identical dataset: no balanced split exists, the leaf must simply
  // grow and search must still work.
  Dataset ds(50, 16);
  for (size_t i = 0; i < ds.size(); ++i) {
    auto s = ds.mutable_series(i);
    for (size_t t = 0; t < 16; ++t) s[t] = static_cast<float>(t);
  }
  InMemoryProvider provider(&ds);
  DSTreeOptions opts;
  opts.leaf_capacity = 8;
  opts.histogram_pairs = 100;
  auto index = DSTreeIndex::Build(ds, &provider, opts);
  ASSERT_TRUE(index.ok());
  SearchParams params;
  params.mode = SearchMode::kExact;
  params.k = 3;
  auto ans = index.value()->Search(ds.series(0), params, nullptr);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().size(), 3u);
  EXPECT_NEAR(ans.value().distances[0], 0.0, 1e-7);
}

TEST(DSTree, VerticalSplitsRefineSegmentation) {
  // With a tiny initial segmentation, deep trees should eventually use
  // vertical splits, visible as children with more segments than root.
  Rng rng(15);
  Dataset ds = MakeRandomWalk(500, 64, rng);
  InMemoryProvider provider(&ds);
  DSTreeOptions opts;
  opts.leaf_capacity = 8;
  opts.initial_segments = 2;
  opts.histogram_pairs = 100;
  auto index = DSTreeIndex::Build(ds, &provider, opts);
  ASSERT_TRUE(index.ok());
  size_t root_segments = index.value()->node(0).segmentation.size();
  bool refined = false;
  for (size_t i = 0; i < index.value()->num_nodes(); ++i) {
    if (index.value()->node(i).segmentation.size() > root_segments) {
      refined = true;
      break;
    }
  }
  EXPECT_TRUE(refined);
}

// A CRC-32C of every node as DSTreeIndex::node(i) shows it: segmentation,
// synopsis, split rule, children, ids and words. The saved file is not
// digested: its δ-histogram comes from the dispatched distance kernel,
// so its bytes differ between SIMD targets; the nodes do not.
uint32_t TreeDigest(const DSTreeIndex& index) {
  uint32_t crc = 0;
  auto add = [&crc](const void* data, size_t bytes) {
    crc = Crc32c(data, bytes, crc);
  };
  auto add_span = [&add](const auto& v) {
    const uint64_t size = v.size();
    add(&size, sizeof(size));
    add(v.data(), v.size() * sizeof(v[0]));
  };
  for (size_t i = 0; i < index.num_nodes(); ++i) {
    const DSTreeNode& n = index.node(i);
    add_span(n.segmentation);
    add_span(n.min_mean);
    add_span(n.max_mean);
    add_span(n.min_std);
    add_span(n.max_std);
    const uint64_t fields[] = {n.count, n.is_leaf ? 1u : 0u, n.split_start,
                               n.split_end, n.split_on_std ? 1u : 0u};
    add(fields, sizeof(fields));
    add(&n.split_value, sizeof(n.split_value));
    const int32_t children[] = {n.left, n.right};
    add(children, sizeof(children));
    add_span(n.series_ids);
    add_span(n.leaf_words);
  }
  return crc;
}

struct DigestCase {
  const char* name;
  size_t n, len, leaf;
  size_t initial_segments = 4;
  size_t min_segment_length = 2;
  size_t copies = 0;  // series that repeat series 0: the last ones, or
  bool interleaved = false;  // every other one
  uint32_t digest;
};

// The build is deterministic and its trees are pinned: a faster build
// must reproduce every node bit for bit, on every SIMD target.
TEST(DSTree, BuiltTreesDoNotDrift) {
  const DigestCase cases[] = {
      {"400x64_leaf16", 400, 64, 16, 4, 2, 0, false, 3868807745u},
      {"3000x256_leaf64", 3000, 256, 64, 4, 2, 0, false, 4191004480u},
      {"length20", 600, 20, 16, 4, 2, 0, false, 2117476753u},
      {"one_initial_segment", 800, 64, 16, 1, 2, 0, false, 1341417577u},
      {"no_vertical_splits", 800, 64, 16, 4, 1000, 0, false, 4062395496u},
      {"half_copies", 800, 64, 16, 4, 2, 400, false, 3605640077u},
      {"interleaved_copies", 800, 64, 16, 4, 2, 400, true, 3181662646u},
  };
  for (const DigestCase& c : cases) {
    Rng rng(99);
    Dataset ds = MakeRandomWalk(c.n, c.len, rng);
    for (size_t j = 0; j < c.copies; ++j) {
      const size_t i = c.interleaved ? 2 * j + 1 : c.n - c.copies + j;
      std::copy(ds.series(0).begin(), ds.series(0).end(),
                ds.mutable_series(i).begin());
    }
    InMemoryProvider provider(&ds);
    DSTreeOptions opts;
    opts.leaf_capacity = c.leaf;
    opts.initial_segments = c.initial_segments;
    opts.min_segment_length = c.min_segment_length;
    opts.histogram_pairs = 100;
    auto built = DSTreeIndex::Build(ds, &provider, opts);
    ASSERT_TRUE(built.ok()) << c.name << ": " << built.status().ToString();
    EXPECT_EQ(TreeDigest(*built.value()), c.digest)
        << c.name << " (" << built.value()->num_nodes() << " nodes)";
  }
}

TEST(DSTree, MemoryBytesGrowsWithDataset) {
  Fixture small(100, 32, 16);
  Fixture large(800, 32, 16);
  EXPECT_GT(large.index->MemoryBytes(), small.index->MemoryBytes());
}

TEST(DSTree, CapabilitiesDeclareAllModes) {
  Fixture f(100, 32, 16);
  auto caps = f.index->capabilities();
  EXPECT_TRUE(caps.exact);
  EXPECT_TRUE(caps.ng_approximate);
  EXPECT_TRUE(caps.epsilon_approximate);
  EXPECT_TRUE(caps.delta_epsilon_approximate);
  EXPECT_TRUE(caps.disk_resident);
  EXPECT_EQ(caps.summarization, "EAPCA");
}

}  // namespace
}  // namespace hydra
