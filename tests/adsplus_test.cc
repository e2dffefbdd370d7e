#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/generators.h"
#include "core/ground_truth.h"
#include "index/adsplus/adsplus.h"
#include "index/isax/isax_index.h"
#include "storage/buffer_manager.h"
#include "transform/znorm.h"

namespace hydra {
namespace {

struct Fixture {
  Dataset data;
  InMemoryProvider provider;
  std::unique_ptr<AdsPlusIndex> index;

  explicit Fixture(size_t n = 800, size_t len = 64)
      : data([&] {
          Rng rng(31);
          Dataset ds = MakeRandomWalk(n, len, rng);
          ZNormalizeDataset(ds);
          return ds;
        }()),
        provider(&data) {
    AdsPlusOptions opts;
    opts.segments = 8;
    opts.build_leaf_capacity = 256;
    opts.query_leaf_capacity = 16;
    opts.histogram_pairs = 1000;
    auto built = AdsPlusIndex::Build(data, &provider, opts);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    index = std::move(built).value();
  }
};

TEST(AdsPlus, BuildValidation) {
  Dataset empty;
  InMemoryProvider ep(&empty);
  EXPECT_FALSE(AdsPlusIndex::Build(empty, &ep).ok());
  Rng rng(1);
  Dataset ds = MakeRandomWalk(10, 32, rng);
  InMemoryProvider provider(&ds);
  AdsPlusOptions opts;
  opts.build_leaf_capacity = 0;
  EXPECT_FALSE(AdsPlusIndex::Build(ds, &provider, opts).ok());
}

TEST(AdsPlus, BuildRejectsMoreSegmentsThanPoints) {
  Rng rng(2);
  Dataset ds = MakeRandomWalk(200, 8, rng);
  InMemoryProvider provider(&ds);
  AdsPlusOptions opts;
  opts.segments = 16;
  auto built = AdsPlusIndex::Build(ds, &provider, opts);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  opts.segments = 8;
  EXPECT_TRUE(AdsPlusIndex::Build(ds, &provider, opts).ok());
}

TEST(AdsPlus, BuildsCoarseTreeThatQueriesRefine) {
  Fixture f;
  // The freshly built tree has unrefined (coarse) leaves.
  size_t unrefined_before = f.index->num_unrefined_leaves();
  size_t nodes_before = f.index->num_nodes();
  EXPECT_GT(unrefined_before, 0u);

  // Queries force refinement of the touched regions only.
  Rng rng(2);
  Dataset queries = MakeRandomWalk(10, 64, rng);
  ZNormalizeDataset(queries);
  SearchParams params;
  params.mode = SearchMode::kNgApproximate;
  params.k = 1;
  params.nprobe = 2;
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(f.index->Search(queries.series(q), params, nullptr).ok());
  }
  EXPECT_GT(f.index->num_nodes(), nodes_before);
  EXPECT_LE(f.index->num_unrefined_leaves(), unrefined_before);
}

TEST(AdsPlus, ExactSearchMatchesBruteForce) {
  Fixture f;
  Rng rng(3);
  Dataset queries = MakeRandomWalk(8, 64, rng);
  ZNormalizeDataset(queries);
  SearchParams params;
  params.mode = SearchMode::kExact;
  params.k = 5;
  for (size_t q = 0; q < queries.size(); ++q) {
    KnnAnswer truth = ExactKnn(f.data, queries.series(q), 5);
    auto ans = f.index->Search(queries.series(q), params, nullptr);
    ASSERT_TRUE(ans.ok());
    ASSERT_EQ(ans.value().size(), 5u);
    for (size_t r = 0; r < 5; ++r) {
      EXPECT_NEAR(ans.value().distances[r], truth.distances[r], 1e-5);
    }
  }
}

TEST(AdsPlus, ExactCorrectAfterManyRefinements) {
  // Interleave modes so refinement happens mid-stream; answers must stay
  // exact regardless of the tree's current refinement state.
  Fixture f;
  Rng rng(4);
  Dataset queries = MakeRandomWalk(20, 64, rng);
  ZNormalizeDataset(queries);
  for (size_t q = 0; q < queries.size(); ++q) {
    SearchParams params;
    params.k = 3;
    if (q % 2 == 0) {
      params.mode = SearchMode::kNgApproximate;
      params.nprobe = 1;
      ASSERT_TRUE(f.index->Search(queries.series(q), params, nullptr).ok());
    } else {
      params.mode = SearchMode::kExact;
      KnnAnswer truth = ExactKnn(f.data, queries.series(q), 3);
      auto ans = f.index->Search(queries.series(q), params, nullptr);
      ASSERT_TRUE(ans.ok());
      EXPECT_EQ(ans.value().ids, truth.ids);
    }
  }
}

TEST(AdsPlus, EpsilonGuaranteeHolds) {
  Fixture f;
  Rng rng(5);
  Dataset queries = MakeRandomWalk(10, 64, rng);
  ZNormalizeDataset(queries);
  for (double eps : {0.0, 1.0, 3.0}) {
    SearchParams params;
    params.mode = SearchMode::kDeltaEpsilon;
    params.k = 1;
    params.epsilon = eps;
    params.delta = 1.0;
    for (size_t q = 0; q < queries.size(); ++q) {
      KnnAnswer truth = ExactKnn(f.data, queries.series(q), 1);
      auto ans = f.index->Search(queries.series(q), params, nullptr);
      ASSERT_TRUE(ans.ok());
      EXPECT_LE(ans.value().distances[0],
                (1.0 + eps) * truth.distances[0] + 1e-6);
    }
  }
}

TEST(AdsPlus, BuildsFasterThanEagerIsaxAtEqualFinalLeafSize) {
  // ADS+'s reason to exist: construction defers splitting. At bench scale
  // we assert the structural consequence instead of wall-clock: the
  // fresh ADS+ tree has far fewer nodes than an eagerly split tree.
  Rng rng(6);
  Dataset ds = MakeRandomWalk(2000, 64, rng);
  ZNormalizeDataset(ds);
  InMemoryProvider provider(&ds);
  AdsPlusOptions aopts;
  aopts.segments = 8;
  aopts.build_leaf_capacity = 512;
  aopts.query_leaf_capacity = 16;
  aopts.histogram_pairs = 200;
  auto ads = AdsPlusIndex::Build(ds, &provider, aopts);
  ASSERT_TRUE(ads.ok());

  IsaxOptions iopts;
  iopts.segments = 8;
  iopts.leaf_capacity = 16;
  iopts.histogram_pairs = 200;
  auto isax = IsaxIndex::Build(ds, &provider, iopts);
  ASSERT_TRUE(isax.ok());
  EXPECT_LT(ads.value()->num_nodes(), isax.value()->num_nodes());
}

TEST(AdsPlus, QueryValidation) {
  Fixture f(200, 32);
  std::vector<float> bad(16, 0.0f);
  SearchParams params;
  params.k = 1;
  EXPECT_FALSE(f.index->Search(bad, params, nullptr).ok());
}

TEST(AdsPlus, CapabilitiesDeclareAllModes) {
  Fixture f(200, 32);
  auto caps = f.index->capabilities();
  EXPECT_TRUE(caps.exact);
  EXPECT_TRUE(caps.ng_approximate);
  EXPECT_TRUE(caps.epsilon_approximate);
  EXPECT_TRUE(caps.delta_epsilon_approximate);
  EXPECT_EQ(caps.summarization, "iSAX (adaptive)");
}

}  // namespace
}  // namespace hydra
