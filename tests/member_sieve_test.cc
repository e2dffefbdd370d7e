// The member sieve of the tree search (index/tree_search.h,
// SieveTreeLeaf): DSTree and iSAX2+ bound each leaf member from its
// in-memory iSAX word, and a leaf scan fetches only the members whose
// bound does not rule them out. These tests hold the sieve to its two
// promises: the bound never exceeds the distance the kernel computes,
// and answers equal a scan of every member of each visited leaf —
// exact copies of the query and ties at the k-th distance included —
// while fewer series are fetched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/generators.h"
#include "distance/simd_dispatch.h"
#include "index/dstree/dstree.h"
#include "index/isax/isax_index.h"
#include "index/tree_search.h"
#include "storage/buffer_manager.h"
#include "storage/series_file.h"
#include "transform/znorm.h"

namespace hydra {
namespace {

// A tree's view without MemberBoundsSq: TreeSearch scans every member
// of each leaf it visits, as it did before the sieve.
template <typename Tree>
struct WholeLeaves {
  const Tree& tree;

  std::vector<int32_t> SearchRoots() const { return tree.SearchRoots(); }
  bool IsLeaf(int32_t id) const { return tree.IsLeaf(id); }
  std::vector<int32_t> NodeChildren(int32_t id) const {
    return tree.NodeChildren(id);
  }
  template <typename Ctx>
  double MinDistSq(const Ctx& ctx, int32_t id) const {
    return tree.MinDistSq(ctx, id);
  }
  std::span<const int64_t> LeafIds(int32_t id) const {
    return tree.LeafIds(id);
  }
  SeriesProvider* provider() const { return tree.provider(); }
};

// The distance² a completed scan evaluation yields.
double KernelDistanceSq(std::span<const float> a, std::span<const float> b) {
  return ActiveKernels().squared_euclidean_ea(
      a.data(), b.data(), a.size(), std::numeric_limits<double>::infinity(),
      nullptr);
}

// Exact k-NN by brute force, ordered by (distance, id).
KnnAnswer BruteForce(const Dataset& data, std::span<const float> query,
                     size_t k) {
  std::vector<std::pair<double, int64_t>> all;
  for (size_t i = 0; i < data.size(); ++i) {
    all.push_back({KernelDistanceSq(query, data.series(i)),
                   static_cast<int64_t>(i)});
  }
  std::sort(all.begin(), all.end());
  KnnAnswer answer;
  for (size_t r = 0; r < k && r < all.size(); ++r) {
    answer.ids.push_back(all[r].second);
    answer.distances.push_back(std::sqrt(all[r].first));
  }
  return answer;
}

void ExpectSame(const KnnAnswer& want, const KnnAnswer& got,
                const std::string& what) {
  ASSERT_EQ(want.ids, got.ids) << what;
  ASSERT_EQ(want.distances.size(), got.distances.size()) << what;
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(want.distances[r], got.distances[r]) << what << " rank " << r;
  }
}

SearchParams Params(SearchMode mode, size_t k, size_t nprobe = 1) {
  SearchParams p;
  p.mode = mode;
  p.k = k;
  p.nprobe = nprobe;
  p.epsilon = mode == SearchMode::kDeltaEpsilon ? 0.5 : 0.0;
  return p;
}

std::unique_ptr<DSTreeIndex> BuildDSTree(const Dataset& data,
                                         SeriesProvider* provider,
                                         size_t leaf_capacity) {
  DSTreeOptions opts;
  opts.leaf_capacity = leaf_capacity;
  opts.histogram_pairs = 200;
  auto built = DSTreeIndex::Build(data, provider, opts);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return built.ok() ? std::move(built).value() : nullptr;
}

std::unique_ptr<IsaxIndex> BuildIsax(const Dataset& data,
                                     SeriesProvider* provider,
                                     size_t leaf_capacity) {
  IsaxOptions opts;
  opts.segments = std::min<size_t>(16, data.length());
  opts.leaf_capacity = leaf_capacity;
  opts.histogram_pairs = 200;
  auto built = IsaxIndex::Build(data, provider, opts);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return built.ok() ? std::move(built).value() : nullptr;
}

// Every member bound of every leaf, against the kernel's distance², for
// each query; a member equal to the query is bounded by exactly 0.
template <typename Tree>
void ExpectBoundsAdmissible(const Tree& tree, const Dataset& data,
                            const Dataset& queries, const std::string& what) {
  std::vector<double> bounds;
  size_t checked = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto ctx = tree.MakeQueryContext(queries.series(q));
    for (int32_t node = 0; node < static_cast<int32_t>(tree.num_nodes());
         ++node) {
      if (!tree.IsLeaf(node)) continue;
      const std::span<const int64_t> ids = tree.LeafIds(node);
      bounds.assign(ids.size(), -1.0);
      tree.MemberBoundsSq(ctx, node, bounds);
      for (size_t m = 0; m < ids.size(); ++m) {
        const std::span<const float> member =
            data.series(static_cast<size_t>(ids[m]));
        const double d = KernelDistanceSq(queries.series(q), member);
        ASSERT_GE(bounds[m], 0.0) << what;
        ASSERT_LE(bounds[m], d) << what << ": query " << q << ", id "
                                << ids[m];
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, queries.size() * data.size()) << what;

  // Each member against itself.
  for (int32_t node = 0; node < static_cast<int32_t>(tree.num_nodes());
       ++node) {
    if (!tree.IsLeaf(node)) continue;
    const std::span<const int64_t> ids = tree.LeafIds(node);
    for (size_t m = 0; m < ids.size(); ++m) {
      const auto ctx =
          tree.MakeQueryContext(data.series(static_cast<size_t>(ids[m])));
      bounds.assign(ids.size(), -1.0);
      tree.MemberBoundsSq(ctx, node, bounds);
      ASSERT_EQ(bounds[m], 0.0) << what << ": id " << ids[m];
    }
  }
}

// (a) Random pairs at 20 points (fewer than DSTree's 32 word segments),
// 64, and 250 (not a multiple of 32); z-normalized walks, and raw walks
// scaled up so that most segment means lie beyond the outermost
// breakpoints (±2.66 at 8 bits).
TEST(MemberBounds, NeverExceedTheKernelDistance) {
  for (size_t length : {size_t{20}, size_t{64}, size_t{250}}) {
    for (bool beyond : {false, true}) {
      Rng rng(500 + length);
      Dataset data = MakeRandomWalk(300, length, rng);
      Dataset queries = MakeRandomWalk(6, length, rng);
      if (beyond) {
        for (Dataset* ds : {&data, &queries}) {
          for (size_t i = 0; i < ds->size(); ++i) {
            for (float& v : ds->mutable_series(i)) v *= 4.0f;
          }
        }
      } else {
        ZNormalizeDataset(data);
        ZNormalizeDataset(queries);
      }
      InMemoryProvider provider(&data);
      const std::string what = "length " + std::to_string(length) +
                               (beyond ? ", beyond" : ", z-normalized");
      auto dstree = BuildDSTree(data, &provider, 16);
      ASSERT_NE(dstree, nullptr);
      ExpectBoundsAdmissible(*dstree, data, queries, "dstree " + what);
      auto isax = BuildIsax(data, &provider, 16);
      ASSERT_NE(isax, nullptr);
      ExpectBoundsAdmissible(*isax, data, queries, "isax " + what);
    }
  }
}

// A collection holding three exact copies of the query and five copies
// of a near neighbour, so the k-th answer is a tie among copies.
struct CopiesFixture {
  static constexpr int64_t kQueryCopies[] = {17, 150, 333};
  static constexpr int64_t kNearCopies[] = {40, 41, 200, 201, 390};

  Dataset data;
  Dataset queries;
  InMemoryProvider provider;

  CopiesFixture()
      : data([] {
          Rng rng(61);
          Dataset ds = MakeRandomWalk(400, 64, rng);
          ZNormalizeDataset(ds);
          return ds;
        }()),
        queries([] {
          Rng rng(62);
          Dataset qs = MakeRandomWalk(1, 64, rng);
          ZNormalizeDataset(qs);
          return qs;
        }()),
        provider(&data) {
    const std::span<const float> query = queries.series(0);
    for (int64_t id : kQueryCopies) {
      std::copy(query.begin(), query.end(),
                data.mutable_series(static_cast<size_t>(id)).begin());
    }
    std::vector<float> near(query.begin(), query.end());
    Rng rng(63);
    for (float& v : near) v += static_cast<float>(0.05 * rng.NextGaussian());
    for (int64_t id : kNearCopies) {
      std::copy(near.begin(), near.end(),
                data.mutable_series(static_cast<size_t>(id)).begin());
    }
  }
};

// (b) Exact answers and ng answers that visit every leaf equal brute
// force, ordered by (distance, id); ng answers at small nprobe equal a
// search that scans every member of the leaves it visits.
template <typename Tree>
void ExpectCopiesAndTies(const Tree& tree, const CopiesFixture& f,
                         const std::string& name) {
  const std::span<const float> query = f.queries.series(0);
  const auto ctx = tree.MakeQueryContext(query);
  size_t leaves = 0;
  for (int32_t node = 0; node < static_cast<int32_t>(tree.num_nodes());
       ++node) {
    leaves += tree.IsLeaf(node) ? 1 : 0;
  }
  for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{8}}) {
    const KnnAnswer truth = BruteForce(f.data, query, k);
    const std::string what = name + " k " + std::to_string(k);
    for (const SearchParams& p :
         {Params(SearchMode::kExact, k),
          Params(SearchMode::kNgApproximate, k, leaves)}) {
      auto got = TreeKnnSearch(tree, ctx, query, p, 0.0, nullptr);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSame(truth, got.value(), what);
    }
    for (size_t nprobe : {size_t{1}, size_t{2}, size_t{3}}) {
      const SearchParams p = Params(SearchMode::kNgApproximate, k, nprobe);
      auto got = TreeKnnSearch(tree, ctx, query, p, 0.0, nullptr);
      auto whole = TreeKnnSearch(WholeLeaves<Tree>{tree}, ctx, query, p, 0.0,
                                 nullptr);
      ASSERT_TRUE(got.ok() && whole.ok());
      ExpectSame(whole.value(), got.value(),
                 what + " nprobe " + std::to_string(nprobe));
    }
  }
  // The copies lead the answer, smallest ids first.
  const KnnAnswer five =
      TreeKnnSearch(tree, ctx, query, Params(SearchMode::kExact, 5), 0.0,
                    nullptr)
          .value();
  EXPECT_EQ(five.ids, (std::vector<int64_t>{17, 150, 333, 40, 41})) << name;
  EXPECT_EQ(five.distances[0], 0.0) << name;
  EXPECT_EQ(five.distances[3], five.distances[4]) << name;
}

TEST(MemberSieve, CopiesOfTheQueryAndTiesAtTheKthEqualBruteForce) {
  CopiesFixture f;
  auto dstree = BuildDSTree(f.data, &f.provider, 8);
  ASSERT_NE(dstree, nullptr);
  ExpectCopiesAndTies(*dstree, f, "dstree");
  auto isax = BuildIsax(f.data, &f.provider, 8);
  ASSERT_NE(isax, nullptr);
  ExpectCopiesAndTies(*isax, f, "isax");
}

// The fill takes the members with the smallest bounds: a member is its
// own exact 1-NN, its bound is 0 and (for these seeds) every other
// member's is positive, so the search fetches that member alone — its
// distance 0 then rules every other member out.
template <typename Tree>
void ExpectOwnNeighborFetchedAlone(const Tree& tree, const Dataset& data,
                                   const std::string& name) {
  std::vector<double> bounds;
  for (size_t id : {size_t{0}, size_t{57}, data.size() - 1}) {
    const std::span<const float> query = data.series(id);
    const auto ctx = tree.MakeQueryContext(query);
    size_t zero_bounds = 0;
    for (int32_t node = 0; node < static_cast<int32_t>(tree.num_nodes());
         ++node) {
      if (!tree.IsLeaf(node)) continue;
      bounds.assign(tree.LeafIds(node).size(), -1.0);
      tree.MemberBoundsSq(ctx, node, bounds);
      zero_bounds += std::count(bounds.begin(), bounds.end(), 0.0);
    }
    ASSERT_EQ(zero_bounds, 1u) << name << " id " << id;
    QueryCounters c;
    auto got = TreeKnnSearch(tree, ctx, query, Params(SearchMode::kExact, 1),
                             0.0, &c);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().ids, std::vector<int64_t>{static_cast<int64_t>(id)})
        << name;
    EXPECT_EQ(c.series_accessed, 1u) << name << " id " << id;
  }
}

TEST(MemberSieve, FillTakesTheSmallestBounds) {
  Rng rng(91);
  Dataset data = MakeRandomWalk(600, 64, rng);
  ZNormalizeDataset(data);
  InMemoryProvider provider(&data);
  auto dstree = BuildDSTree(data, &provider, 32);
  ASSERT_NE(dstree, nullptr);
  ExpectOwnNeighborFetchedAlone(*dstree, data, "dstree");
  auto isax = BuildIsax(data, &provider, 32);
  ASSERT_NE(isax, nullptr);
  ExpectOwnNeighborFetchedAlone(*isax, data, "isax");
}

// Every mode's answers, and the leaves visited, equal the unsieved
// search's; the sieve only ever fetches fewer series.
template <typename Tree>
void ExpectSameAsWholeLeaves(const Tree& tree, const Dataset& queries,
                             const std::string& name) {
  const std::vector<SearchParams> modes = {
      Params(SearchMode::kExact, 10), Params(SearchMode::kNgApproximate, 10),
      Params(SearchMode::kNgApproximate, 10, 4),
      Params(SearchMode::kDeltaEpsilon, 10)};
  uint64_t sieved = 0;
  uint64_t whole_accessed = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto ctx = tree.MakeQueryContext(queries.series(q));
    for (const SearchParams& p : modes) {
      QueryCounters a;
      QueryCounters b;
      auto got = TreeKnnSearch(tree, ctx, queries.series(q), p, 0.0, &a);
      auto whole = TreeKnnSearch(WholeLeaves<Tree>{tree}, ctx,
                                 queries.series(q), p, 0.0, &b);
      ASSERT_TRUE(got.ok() && whole.ok());
      const std::string what = name + " query " + std::to_string(q);
      ExpectSame(whole.value(), got.value(), what);
      EXPECT_EQ(a.leaves_visited, b.leaves_visited) << what;
      EXPECT_LE(a.series_accessed, b.series_accessed) << what;
      sieved += a.series_accessed;
      whole_accessed += b.series_accessed;
    }
  }
  EXPECT_LT(sieved, whole_accessed) << name;
}

TEST(MemberSieve, AnswersEqualScanningWholeLeaves) {
  Rng rng(71);
  Dataset data = MakeRandomWalk(3000, 128, rng);
  ZNormalizeDataset(data);
  Dataset queries = MakeNoiseQueries(data, 12, 0.3, rng);
  InMemoryProvider provider(&data);
  auto dstree = BuildDSTree(data, &provider, 48);
  ASSERT_NE(dstree, nullptr);
  ExpectSameAsWholeLeaves(*dstree, queries, "dstree");
  auto isax = BuildIsax(data, &provider, 48);
  ASSERT_NE(isax, nullptr);
  ExpectSameAsWholeLeaves(*isax, queries, "isax");
}

// A whole-leaf view that logs the leaves its search scans, in order
// (with prefetch off, LeafIds is read once per scan).
template <typename Tree>
struct LoggedLeaves : WholeLeaves<Tree> {
  std::vector<int32_t>* log;

  std::span<const int64_t> LeafIds(int32_t id) const {
    log->push_back(id);
    return this->tree.LeafIds(id);
  }
};

// The members a sieved search fetches, simulated over the leaves a
// whole-leaf search visits: in each leaf, members in (bound, position)
// order from full bounds; the first fill the answer set (as many as it
// lacks), then each next one is fetched unless its bound exceeds the
// current k-th distance² (times 1 + kSieveMargin), which ends the leaf.
// Distances are brute force. Returns the fetch count; `answer` gets the
// answers.
template <typename Tree>
uint64_t SimulatedSieveFetches(const Tree& tree, const Dataset& data,
                               std::span<const float> query,
                               const SearchParams& params,
                               KnnAnswer* answer) {
  const auto ctx = tree.MakeQueryContext(query);
  std::vector<int32_t> visits;
  SearchParams whole_params = params;
  whole_params.prefetch_depth = SearchParams::kPrefetchOff;
  auto whole = TreeKnnSearch(LoggedLeaves<Tree>{{tree}, &visits}, ctx, query,
                             whole_params, 0.0, nullptr);
  EXPECT_TRUE(whole.ok());
  AnswerSet answers(params.k);
  uint64_t fetched = 0;
  std::vector<double> bounds;
  for (int32_t leaf : visits) {
    const std::span<const int64_t> ids = tree.LeafIds(leaf);
    bounds.assign(ids.size(), -1.0);
    tree.MemberBoundsSq(ctx, leaf, bounds);
    std::vector<size_t> order(ids.size());
    for (size_t m = 0; m < order.size(); ++m) order[m] = m;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return bounds[a] < bounds[b] || (bounds[a] == bounds[b] && a < b);
    });
    const size_t fill = answers.k() - answers.size();
    for (size_t j = 0; j < order.size(); ++j) {
      const size_t m = order[j];
      if (j >= fill &&
          bounds[m] > answers.KthDistanceSq() * (1.0 + kSieveMargin)) {
        break;
      }
      answers.Offer(KernelDistanceSq(query, data.series(ids[m])), ids[m]);
      ++fetched;
    }
  }
  *answer = answers.Finish();
  return fetched;
}

// The fetched set, member for member in count: after the fill, a leaf's
// members are fetched in bound order against the k-th distance as it
// falls, so a member whose bound passes the k-th distance the fill left
// but not the one its predecessors left is not read.
template <typename Tree>
void ExpectFetchesFollowBoundOrder(const Tree& tree, const Dataset& data,
                                   const Dataset& queries,
                                   const std::string& name) {
  for (const SearchParams& p : {Params(SearchMode::kExact, 10),
                                Params(SearchMode::kNgApproximate, 10, 1),
                                Params(SearchMode::kExact, 1)}) {
    for (size_t q = 0; q < queries.size(); ++q) {
      const std::string what = name + " mode " +
                               std::to_string(static_cast<int>(p.mode)) +
                               " k " + std::to_string(p.k) + " query " +
                               std::to_string(q);
      KnnAnswer want;
      const uint64_t fetched =
          SimulatedSieveFetches(tree, data, queries.series(q), p, &want);
      QueryCounters c;
      const auto ctx = tree.MakeQueryContext(queries.series(q));
      auto got = TreeKnnSearch(tree, ctx, queries.series(q), p, 0.0, &c);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSame(want, got.value(), what);
      EXPECT_EQ(c.series_accessed, fetched) << what;
    }
  }
}

TEST(MemberSieve, FetchesFollowTheBoundOrder) {
  Rng rng(97);
  Dataset data = MakeRandomWalk(2000, 128, rng);
  ZNormalizeDataset(data);
  Dataset queries = MakeNoiseQueries(data, 10, 0.3, rng);
  InMemoryProvider provider(&data);
  auto dstree = BuildDSTree(data, &provider, 48);
  ASSERT_NE(dstree, nullptr);
  ExpectFetchesFollowBoundOrder(*dstree, data, queries, "dstree");
  auto isax = BuildIsax(data, &provider, 48);
  ASSERT_NE(isax, nullptr);
  ExpectFetchesFollowBoundOrder(*isax, data, queries, "isax");
}

// (c) On disk, a DSTree at nprobe 4 fetches fewer series than the
// leaves it visits hold — the unsieved search fetches all of them — and
// misses fewer pages, with the same answers.
TEST(MemberSieve, DiskDSTreeFetchesFewerSeriesThanItsLeavesHold) {
  Rng rng(81);
  Dataset data = MakeRandomWalk(4000, 128, rng);
  ZNormalizeDataset(data);
  Dataset queries = MakeNoiseQueries(data, 20, 0.3, rng);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("hydra_member_sieve_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "data.hsf").string();
  ASSERT_TRUE(WriteSeriesFile(path, data).ok());
  {
    // A pool of 16 pages of 16 series: most fetches miss.
    auto opened = BufferManager::Open(path, 16, 16);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<BufferManager> pool = std::move(opened).value();
    auto index = BuildDSTree(data, pool.get(), 46);
    ASSERT_NE(index, nullptr);
    const SearchParams p = Params(SearchMode::kNgApproximate, 10, 4);
    QueryCounters sieved;
    QueryCounters whole;
    for (size_t q = 0; q < queries.size(); ++q) {
      const auto ctx = index->MakeQueryContext(queries.series(q));
      auto got =
          TreeKnnSearch(*index, ctx, queries.series(q), p, 0.0, &sieved);
      auto all = TreeKnnSearch(WholeLeaves<DSTreeIndex>{*index}, ctx,
                               queries.series(q), p, 0.0, &whole);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(all.ok()) << all.status().ToString();
      ExpectSame(all.value(), got.value(), "query " + std::to_string(q));
      auto served = index->Search(queries.series(q), p, nullptr);
      ASSERT_TRUE(served.ok());
      ExpectSame(all.value(), served.value(), "Search " + std::to_string(q));
    }
    EXPECT_EQ(sieved.leaves_visited, whole.leaves_visited);
    EXPECT_EQ(sieved.leaves_visited, 4 * queries.size());
    EXPECT_LT(sieved.series_accessed, whole.series_accessed);
    EXPECT_LT(sieved.cache_misses, whole.cache_misses);
    EXPECT_EQ(sieved.full_distances + sieved.abandoned_distances,
              sieved.series_accessed);
    EXPECT_EQ(pool->PinnedPages(), 0u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hydra
