#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "common/rng.h"
#include "core/generators.h"
#include "core/ground_truth.h"
#include "index/flann/flann.h"

namespace hydra {
namespace {

Dataset MakeData(size_t n = 500, size_t len = 32) {
  Rng rng(66);
  return MakeSiftAnalog(n, len, rng);
}

TEST(Flann, BuildValidation) {
  Dataset empty;
  EXPECT_FALSE(FlannIndex::Build(empty).ok());
}

TEST(Flann, OnlyNgApproximateSupported) {
  Dataset ds = MakeData(100, 16);
  auto index = FlannIndex::Build(ds);
  ASSERT_TRUE(index.ok());
  std::vector<float> q(16, 0.0f);
  SearchParams params;
  params.k = 1;
  params.mode = SearchMode::kExact;
  EXPECT_EQ(index.value()->Search(q, params, nullptr).status().code(),
            StatusCode::kUnimplemented);
}

TEST(Flann, ForcedKdForestWorks) {
  Dataset ds = MakeData();
  FlannOptions opts;
  opts.algorithm = FlannOptions::Algorithm::kKdForest;
  auto index = FlannIndex::Build(ds, opts);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index.value()->uses_kd_forest());
}

TEST(Flann, ForcedKmeansTreeWorks) {
  Dataset ds = MakeData();
  FlannOptions opts;
  opts.algorithm = FlannOptions::Algorithm::kKmeansTree;
  auto index = FlannIndex::Build(ds, opts);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index.value()->uses_kd_forest());
}

TEST(Flann, AutoSelectsOneAlgorithm) {
  Dataset ds = MakeData(300, 16);
  FlannOptions opts;
  opts.algorithm = FlannOptions::Algorithm::kAuto;
  auto index = FlannIndex::Build(ds, opts);
  ASSERT_TRUE(index.ok());
  // Either choice is valid; searching must work.
  std::vector<float> q(16, 1.0f);
  SearchParams params;
  params.mode = SearchMode::kNgApproximate;
  params.k = 3;
  auto ans = index.value()->Search(q, params, nullptr);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().size(), 3u);
}

// Auto-selection reads no clock: every build of the same data picks the
// same structure and answers exactly as that structure forced.
TEST(Flann, AutoSelectionIsDeterministic) {
  Dataset ds = MakeData();
  Rng rng(67);
  Dataset queries = MakeNoiseQueries(ds, 8, 0.1, rng);
  SearchParams params;
  params.mode = SearchMode::kNgApproximate;
  params.k = 5;
  std::optional<bool> kd;
  std::unique_ptr<FlannIndex> forced;
  for (int build = 0; build < 5; ++build) {
    auto index = FlannIndex::Build(ds);
    ASSERT_TRUE(index.ok());
    if (!kd.has_value()) {
      kd = index.value()->uses_kd_forest();
      FlannOptions opts;
      opts.algorithm = *kd ? FlannOptions::Algorithm::kKdForest
                           : FlannOptions::Algorithm::kKmeansTree;
      auto built = FlannIndex::Build(ds, opts);
      ASSERT_TRUE(built.ok());
      forced = std::move(built).value();
    }
    EXPECT_EQ(index.value()->uses_kd_forest(), *kd) << "build " << build;
    for (size_t q = 0; q < queries.size(); ++q) {
      auto got = index.value()->Search(queries.series(q), params, nullptr);
      auto want = forced->Search(queries.series(q), params, nullptr);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got.value().ids, want.value().ids) << "query " << q;
      EXPECT_EQ(got.value().distances, want.value().distances)
          << "query " << q;
    }
  }
}

class FlannAlgoTest
    : public ::testing::TestWithParam<FlannOptions::Algorithm> {};

TEST_P(FlannAlgoTest, SelfQueryFindsSelf) {
  Dataset ds = MakeData();
  FlannOptions opts;
  opts.algorithm = GetParam();
  auto index = FlannIndex::Build(ds, opts);
  ASSERT_TRUE(index.ok());
  SearchParams params;
  params.mode = SearchMode::kNgApproximate;
  params.k = 1;
  params.nprobe = 128;
  for (size_t i = 0; i < ds.size(); i += 97) {
    auto ans = index.value()->Search(ds.series(i), params, nullptr);
    ASSERT_TRUE(ans.ok());
    EXPECT_NEAR(ans.value().distances[0], 0.0, 1e-5);
  }
}

TEST_P(FlannAlgoTest, RecallImprovesWithChecks) {
  Dataset ds = MakeData(800, 32);
  FlannOptions opts;
  opts.algorithm = GetParam();
  auto index = FlannIndex::Build(ds, opts);
  ASSERT_TRUE(index.ok());
  Rng rng(3);
  Dataset queries = MakeSiftAnalog(20, 32, rng);
  auto truth = ExactKnnWorkload(ds, queries, 10);
  auto recall_at = [&](size_t checks) {
    SearchParams params;
    params.mode = SearchMode::kNgApproximate;
    params.k = 10;
    params.nprobe = checks;
    double sum = 0.0;
    for (size_t q = 0; q < queries.size(); ++q) {
      auto ans = index.value()->Search(queries.series(q), params, nullptr);
      EXPECT_TRUE(ans.ok());
      sum += RecallAt(truth[q], ans.value(), 10);
    }
    return sum / static_cast<double>(queries.size());
  };
  EXPECT_LE(recall_at(16), recall_at(512) + 0.05);
  EXPECT_GT(recall_at(512), 0.5);
}

// Each answer holds k distinct ids (a series reached through several
// trees or branches is evaluated once), and recall over those ids is high
// at a generous checks budget.
TEST_P(FlannAlgoTest, DistinctAnswersReachRecallAt512Checks) {
  Dataset ds = MakeData(800, 32);
  FlannOptions opts;
  opts.algorithm = GetParam();
  auto index = FlannIndex::Build(ds, opts);
  ASSERT_TRUE(index.ok());
  Rng rng(3);
  Dataset queries = MakeSiftAnalog(20, 32, rng);
  auto truth = ExactKnnWorkload(ds, queries, 10);
  SearchParams params;
  params.mode = SearchMode::kNgApproximate;
  params.k = 10;
  params.nprobe = 512;
  double sum = 0.0;
  for (size_t q = 0; q < queries.size(); ++q) {
    auto ans = index.value()->Search(queries.series(q), params, nullptr);
    ASSERT_TRUE(ans.ok());
    std::set<int64_t> distinct(ans.value().ids.begin(),
                               ans.value().ids.end());
    EXPECT_EQ(ans.value().size(), 10u) << "query " << q;
    EXPECT_EQ(distinct.size(), ans.value().size()) << "query " << q;
    sum += RecallAt(truth[q], ans.value(), 10);
  }
  EXPECT_GE(sum / static_cast<double>(queries.size()), 0.85);
}

TEST_P(FlannAlgoTest, ChecksBudgetLimitsWork) {
  Dataset ds = MakeData(600, 32);
  FlannOptions opts;
  opts.algorithm = GetParam();
  auto index = FlannIndex::Build(ds, opts);
  ASSERT_TRUE(index.ok());
  std::vector<float> q(32, 1.0f);
  SearchParams params;
  params.mode = SearchMode::kNgApproximate;
  params.k = 1;
  params.nprobe = 32;
  QueryCounters c;
  ASSERT_TRUE(index.value()->Search(q, params, &c).ok());
  // The budget bounds visited points, up to one leaf of overshoot.
  EXPECT_LE(c.full_distances, 32u + 64u);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, FlannAlgoTest,
    ::testing::Values(FlannOptions::Algorithm::kKdForest,
                      FlannOptions::Algorithm::kKmeansTree),
    [](const ::testing::TestParamInfo<FlannOptions::Algorithm>& info) {
      return info.param == FlannOptions::Algorithm::kKdForest ? "KdForest"
                                                              : "KmeansTree";
    });

TEST(Flann, QueryValidation) {
  Dataset ds = MakeData(100, 16);
  auto index = FlannIndex::Build(ds);
  ASSERT_TRUE(index.ok());
  std::vector<float> bad(8, 0.0f);
  SearchParams params;
  params.mode = SearchMode::kNgApproximate;
  params.k = 1;
  EXPECT_FALSE(index.value()->Search(bad, params, nullptr).ok());
  std::vector<float> good(16, 0.0f);
  params.k = 0;
  EXPECT_FALSE(index.value()->Search(good, params, nullptr).ok());
}

}  // namespace
}  // namespace hydra
