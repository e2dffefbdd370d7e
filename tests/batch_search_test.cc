// Cross-query equivalence suite for query-batched execution
// (index/batch_scanner.h, index/batch_tree_search.h, Index::BatchSearch):
// a batch of Q independent queries evaluated together must return, per
// member, EXACTLY what Q separate Search() calls would — bit-identical
// ids and distances — at every batch size × thread count × prefetch
// depth, in memory and on a small bounded pool. Batching shares page
// fetches and SIMD kernel passes, never arithmetic; these tests are the
// proof the serving engine relies on when it coalesces queued queries.
//
// Also covered: per-query counter attribution under shared I/O (batched
// sums still equal the pool's atomic totals), and failure isolation — a
// forced mid-batch fetch failure or a fired cancellation token kills
// exactly the participating/owning queries with a typed Status while the
// rest of the batch completes and the pool keeps zero leaked pins.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/generators.h"
#include "core/ground_truth.h"
#include "index/answer_set.h"
#include "index/dstree/dstree.h"
#include "index/isax/isax_index.h"
#include "index/leaf_scanner.h"
#include "index/scan/linear_scan.h"
#include "index/vafile/vafile.h"
#include "storage/buffer_manager.h"
#include "storage/series_file.h"
#include "transform/znorm.h"

namespace hydra {
namespace {

struct Workload {
  Dataset data;
  Dataset queries;
  InMemoryProvider provider;

  explicit Workload(size_t n = 2000, size_t len = 64, size_t num_queries = 12)
      : data([&] {
          Rng rng(7);
          Dataset ds = MakeRandomWalk(n, len, rng);
          ZNormalizeDataset(ds);
          return ds;
        }()),
        queries([&] {
          Rng rng(1234);
          return MakeNoiseQueries(data, num_queries, 0.15, rng);
        }()),
        provider(&data) {}
};

struct DiskWorkload {
  Dataset data;
  Dataset queries;
  std::filesystem::path dir;
  std::unique_ptr<BufferManager> bm;

  explicit DiskWorkload(uint64_t capacity_pages = 16, size_t n = 2000,
                        size_t len = 64, size_t num_queries = 8)
      : data([&] {
          Rng rng(7);
          Dataset ds = MakeRandomWalk(n, len, rng);
          ZNormalizeDataset(ds);
          return ds;
        }()),
        queries([&] {
          Rng rng(1234);
          return MakeNoiseQueries(data, num_queries, 0.15, rng);
        }()) {
    static std::atomic<int> counter{0};
    dir = std::filesystem::temp_directory_path() /
          ("hydra_batch_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(dir);
    std::string path = (dir / "data.hsf").string();
    EXPECT_TRUE(WriteSeriesFile(path, data).ok());
    auto opened =
        BufferManager::Open(path, /*page_series=*/16, capacity_pages);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) bm = std::move(opened).value();
  }
  ~DiskWorkload() { std::filesystem::remove_all(dir); }
};

SearchParams Exact(size_t k = 10) {
  SearchParams p;
  p.mode = SearchMode::kExact;
  p.k = k;
  return p;
}

void ExpectIdentical(const KnnAnswer& solo, const KnnAnswer& batched,
                     const std::string& label) {
  ASSERT_EQ(solo.size(), batched.size()) << label;
  for (size_t i = 0; i < solo.size(); ++i) {
    EXPECT_EQ(solo.ids[i], batched.ids[i]) << label << " rank " << i;
    EXPECT_EQ(solo.distances[i], batched.distances[i])
        << label << " rank " << i;
  }
}

// The tentpole matrix: batch sizes {1, 2, 4, 8} × num_threads {1, 4} ×
// prefetch depth {0, 4}, every member compared bit-for-bit against its
// own solo Search under the identical parameters. Batch size 1 exercises
// the solo-fallback path; the 12-query workload leaves a ragged final
// batch at sizes 8 (tail of 4).
void CheckBatchEquivalence(const Index& index, const Dataset& queries,
                           const SearchParams& base) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t depth : {size_t{0}, size_t{4}}) {
      SearchParams p = base;
      p.num_threads = threads;
      p.prefetch_depth = depth;
      std::vector<KnnAnswer> solo;
      for (size_t q = 0; q < queries.size(); ++q) {
        QueryCounters counters;
        Result<KnnAnswer> ans = index.Search(queries.series(q), p, &counters);
        ASSERT_TRUE(ans.ok())
            << index.name() << ": " << ans.status().ToString();
        solo.push_back(std::move(ans).value());
      }
      for (size_t bs : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
        for (size_t start = 0; start < queries.size(); start += bs) {
          const size_t m = std::min(bs, queries.size() - start);
          std::vector<QueryCounters> counters(m);
          std::vector<BatchQuery> batch(m);
          for (size_t j = 0; j < m; ++j) {
            batch[j] =
                BatchQuery{queries.series(start + j), p, &counters[j]};
          }
          std::vector<Result<KnnAnswer>> results =
              index.BatchSearch(std::span<const BatchQuery>(batch));
          ASSERT_EQ(results.size(), m);
          for (size_t j = 0; j < m; ++j) {
            ASSERT_TRUE(results[j].ok())
                << index.name() << ": " << results[j].status().ToString();
            ExpectIdentical(
                solo[start + j], results[j].value(),
                index.name() + " bs=" + std::to_string(bs) +
                    " threads=" + std::to_string(threads) +
                    " depth=" + std::to_string(depth) + ", query " +
                    std::to_string(start + j));
          }
        }
      }
    }
  }
}

// --- In-memory equivalence ---

TEST(BatchEquivalence, LinearScanInMemory) {
  Workload w;
  LinearScanIndex index(&w.provider);
  ASSERT_TRUE(index.capabilities().batched_queries);
  CheckBatchEquivalence(index, w.queries, Exact(10));
}

TEST(BatchEquivalence, IsaxInMemory) {
  Workload w;
  IsaxOptions opts;
  opts.leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = IsaxIndex::Build(w.data, &w.provider, opts);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index.value()->capabilities().batched_queries);
  CheckBatchEquivalence(*index.value(), w.queries, Exact(10));
}

TEST(BatchEquivalence, DstreeInMemory) {
  Workload w;
  DSTreeOptions opts;
  opts.leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = DSTreeIndex::Build(w.data, &w.provider, opts);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index.value()->capabilities().batched_queries);
  CheckBatchEquivalence(*index.value(), w.queries, Exact(10));
}

TEST(BatchEquivalence, VafileInMemory) {
  Workload w;
  VaFileOptions opts;
  opts.histogram_pairs = 2000;
  auto index = VaFileIndex::Build(w.data, &w.provider, opts);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index.value()->capabilities().batched_queries);
  CheckBatchEquivalence(*index.value(), w.queries, Exact(10));
}

// --- On a 16-page bounded pool: batch members share pins, prefetches
// and evictions of one small pool and must still answer exactly. ---

TEST(BatchEquivalence, LinearScanOnDisk) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  LinearScanIndex index(w.bm.get());
  CheckBatchEquivalence(index, w.queries, Exact(10));
}

TEST(BatchEquivalence, IsaxOnDisk) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  IsaxOptions opts;
  opts.leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = IsaxIndex::Build(w.data, w.bm.get(), opts);
  ASSERT_TRUE(index.ok());
  CheckBatchEquivalence(*index.value(), w.queries, Exact(10));
}

TEST(BatchEquivalence, DstreeOnDisk) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  DSTreeOptions opts;
  opts.leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = DSTreeIndex::Build(w.data, w.bm.get(), opts);
  ASSERT_TRUE(index.ok());
  CheckBatchEquivalence(*index.value(), w.queries, Exact(10));
}

TEST(BatchEquivalence, VafileOnDisk) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  VaFileOptions opts;
  opts.histogram_pairs = 2000;
  auto index = VaFileIndex::Build(w.data, w.bm.get(), opts);
  ASSERT_TRUE(index.ok());
  CheckBatchEquivalence(*index.value(), w.queries, Exact(10));
}

// Approximate-mode members are order-sensitive by design and fall back to
// solo Search INSIDE the batch; a mixed batch must give every member
// exactly its solo answer regardless of its neighbors' modes.
TEST(BatchEquivalence, MixedModeMembersMatchSolo) {
  Workload w;
  DSTreeOptions opts;
  opts.leaf_capacity = 64;
  opts.histogram_pairs = 2000;
  auto built = DSTreeIndex::Build(w.data, &w.provider, opts);
  ASSERT_TRUE(built.ok());
  const DSTreeIndex& index = *built.value();

  SearchParams exact = Exact(10);
  SearchParams ng = Exact(10);
  ng.mode = SearchMode::kNgApproximate;
  ng.nprobe = 4;
  SearchParams de = Exact(10);
  de.mode = SearchMode::kDeltaEpsilon;
  de.epsilon = 0.5;

  std::vector<SearchParams> modes = {exact, ng, exact, de, exact, ng};
  std::vector<BatchQuery> batch(modes.size());
  std::vector<QueryCounters> counters(modes.size());
  for (size_t i = 0; i < modes.size(); ++i) {
    batch[i] = BatchQuery{w.queries.series(i), modes[i], &counters[i]};
  }
  std::vector<Result<KnnAnswer>> results =
      index.BatchSearch(std::span<const BatchQuery>(batch));
  ASSERT_EQ(results.size(), modes.size());
  for (size_t i = 0; i < modes.size(); ++i) {
    QueryCounters solo_counters;
    Result<KnnAnswer> solo =
        index.Search(w.queries.series(i), modes[i], &solo_counters);
    ASSERT_TRUE(solo.ok());
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    ExpectIdentical(solo.value(), results[i].value(),
                    "mixed-mode member " + std::to_string(i));
  }
}

// Invalid members fail alone with the same typed statuses solo Search
// returns; valid members of the same batch still answer identically.
TEST(BatchEquivalence, InvalidMembersFailAlone) {
  Workload w;
  std::vector<std::unique_ptr<Index>> indexes;
  indexes.push_back(std::make_unique<LinearScanIndex>(&w.provider));
  {
    IsaxOptions opts;
    opts.histogram_pairs = 2000;
    auto built = IsaxIndex::Build(w.data, &w.provider, opts);
    ASSERT_TRUE(built.ok());
    indexes.push_back(std::move(built).value());
  }
  {
    DSTreeOptions opts;
    opts.histogram_pairs = 2000;
    auto built = DSTreeIndex::Build(w.data, &w.provider, opts);
    ASSERT_TRUE(built.ok());
    indexes.push_back(std::move(built).value());
  }
  {
    VaFileOptions opts;
    opts.histogram_pairs = 2000;
    auto built = VaFileIndex::Build(w.data, &w.provider, opts);
    ASSERT_TRUE(built.ok());
    indexes.push_back(std::move(built).value());
  }

  std::vector<float> short_query(w.data.length() / 2, 0.0f);
  for (const auto& index : indexes) {
    SearchParams zero_k = Exact(0);
    std::vector<QueryCounters> counters(4);
    std::vector<BatchQuery> batch = {
        BatchQuery{w.queries.series(0), Exact(5), &counters[0]},
        BatchQuery{w.queries.series(1), zero_k, &counters[1]},
        BatchQuery{std::span<const float>(short_query), Exact(5),
                   &counters[2]},
        BatchQuery{w.queries.series(2), Exact(5), &counters[3]},
    };
    std::vector<Result<KnnAnswer>> results =
        index->BatchSearch(std::span<const BatchQuery>(batch));
    ASSERT_EQ(results.size(), 4u) << index->name();
    EXPECT_FALSE(results[1].ok()) << index->name();
    EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument)
        << index->name();
    EXPECT_FALSE(results[2].ok()) << index->name();
    EXPECT_EQ(results[2].status().code(), StatusCode::kInvalidArgument)
        << index->name();
    for (size_t i : {size_t{0}, size_t{3}}) {
      ASSERT_TRUE(results[i].ok())
          << index->name() << ": " << results[i].status().ToString();
      QueryCounters solo_counters;
      Result<KnnAnswer> solo =
          index->Search(batch[i].query, batch[i].params, &solo_counters);
      ASSERT_TRUE(solo.ok());
      ExpectIdentical(solo.value(), results[i].value(),
                      index->name() + " valid member " + std::to_string(i));
    }
  }
}

// --- Counter attribution under shared I/O: every physical pool event is
// charged to exactly one member (the scan leader), so per-member sums
// still equal the pool's atomic totals — the invariant the serving
// harness reports against. Distance work is charged per member from its
// own abandon flags, so the batch's full+abandoned total is exactly
// Q × N for a shared full scan (every pair evaluated exactly once). ---

TEST(BatchCounters, SharedScanSumsToPoolTotals) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  LinearScanIndex index(w.bm.get());

  const uint64_t hits_before = w.bm->cache_hits();
  const uint64_t misses_before = w.bm->cache_misses();
  const uint64_t prefetch_before = w.bm->prefetch_issued();

  SearchParams p = Exact(10);
  p.prefetch_depth = 4;
  std::vector<QueryCounters> counters(w.queries.size());
  std::vector<BatchQuery> batch(w.queries.size());
  for (size_t q = 0; q < w.queries.size(); ++q) {
    batch[q] = BatchQuery{w.queries.series(q), p, &counters[q]};
  }
  std::vector<Result<KnnAnswer>> results =
      index.BatchSearch(std::span<const BatchQuery>(batch));
  QueryCounters summed;
  for (size_t q = 0; q < results.size(); ++q) {
    ASSERT_TRUE(results[q].ok()) << results[q].status().ToString();
    summed += counters[q];
  }
  w.bm->DrainPrefetches();

  EXPECT_EQ(summed.cache_hits, w.bm->cache_hits() - hits_before);
  EXPECT_EQ(summed.cache_misses, w.bm->cache_misses() - misses_before);
  EXPECT_GT(summed.cache_misses, 0u);  // pool smaller than the data
  EXPECT_EQ(summed.prefetch_issued,
            w.bm->prefetch_issued() - prefetch_before);
  // Distance conservation: the shared scan evaluates every
  // (member, candidate) pair exactly once, completed or abandoned.
  EXPECT_EQ(summed.full_distances + summed.abandoned_distances,
            static_cast<uint64_t>(w.queries.size()) * w.data.size());
  EXPECT_EQ(w.bm->PinnedPages(), 0u);
}

TEST(BatchCounters, CoTraversalSumsToPoolTotals) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  DSTreeOptions opts;
  opts.leaf_capacity = 64;
  opts.histogram_pairs = 2000;
  auto index = DSTreeIndex::Build(w.data, w.bm.get(), opts);
  ASSERT_TRUE(index.ok());

  const uint64_t hits_before = w.bm->cache_hits();
  const uint64_t misses_before = w.bm->cache_misses();

  std::vector<QueryCounters> counters(w.queries.size());
  std::vector<BatchQuery> batch(w.queries.size());
  for (size_t q = 0; q < w.queries.size(); ++q) {
    batch[q] = BatchQuery{w.queries.series(q), Exact(10), &counters[q]};
  }
  std::vector<Result<KnnAnswer>> results =
      index.value()->BatchSearch(std::span<const BatchQuery>(batch));
  QueryCounters summed;
  for (size_t q = 0; q < results.size(); ++q) {
    ASSERT_TRUE(results[q].ok()) << results[q].status().ToString();
    summed += counters[q];
    // Every member was attributed its own share of the traversal.
    EXPECT_GT(counters[q].lb_distances, 0u) << "member " << q;
    EXPECT_GT(counters[q].leaves_visited, 0u) << "member " << q;
    EXPECT_GT(
        counters[q].full_distances + counters[q].abandoned_distances, 0u)
        << "member " << q;
  }
  EXPECT_EQ(summed.cache_hits, w.bm->cache_hits() - hits_before);
  EXPECT_EQ(summed.cache_misses, w.bm->cache_misses() - misses_before);
  EXPECT_EQ(w.bm->PinnedPages(), 0u);
}

// --- Failure isolation ---

// SeriesProvider wrapper that fails, with a typed IoError, any pin fetch
// whose requested id range intersects a poisoned id set. Everything else
// forwards to the wrapped provider.
class FailingProvider : public SeriesProvider {
 public:
  explicit FailingProvider(SeriesProvider* inner) : inner_(inner) {}

  void Poison(std::span<const int64_t> ids) {
    poisoned_.insert(ids.begin(), ids.end());
  }
  void PoisonRange(int64_t first, int64_t count) {
    for (int64_t i = first; i < first + count; ++i) poisoned_.insert(i);
  }
  void Clear() { poisoned_.clear(); }

  uint64_t num_series() const override { return inner_->num_series(); }
  uint64_t series_length() const override { return inner_->series_length(); }
  std::span<const float> GetSeries(uint64_t i,
                                   QueryCounters* counters) override {
    return inner_->GetSeries(i, counters);
  }
  std::span<const float> GetSeriesRun(uint64_t first, uint64_t max_count,
                                      QueryCounters* counters) override {
    return inner_->GetSeriesRun(first, max_count, counters);
  }
  PinnedRun PinSeries(uint64_t i, QueryCounters* counters) override {
    if (Intersects(i, 1)) return PinnedRun();
    return inner_->PinSeries(i, counters);
  }
  PinnedRun PinRun(uint64_t first, uint64_t max_count,
                   QueryCounters* counters) override {
    if (Intersects(first, max_count)) return PinnedRun();
    return inner_->PinRun(first, max_count, counters);
  }
  Result<PinnedRun> PinSeriesChecked(uint64_t i,
                                     QueryCounters* counters) override {
    if (Intersects(i, 1)) {
      return Status::IoError("injected fetch failure: id " +
                             std::to_string(i));
    }
    return inner_->PinSeriesChecked(i, counters);
  }
  Result<PinnedRun> PinRunChecked(uint64_t first, uint64_t max_count,
                                  QueryCounters* counters) override {
    if (Intersects(first, max_count)) {
      return Status::IoError("injected fetch failure: run at " +
                             std::to_string(first));
    }
    return inner_->PinRunChecked(first, max_count, counters);
  }
  uint64_t MaxConcurrentPins() const override {
    return inner_->MaxConcurrentPins();
  }
  void Prefetch(uint64_t first, uint64_t count, QueryCounters* counters,
                std::shared_ptr<CancellationToken> cancel) override {
    inner_->Prefetch(first, count, counters, std::move(cancel));
  }
  uint64_t SeriesPerPage() const override { return inner_->SeriesPerPage(); }
  uint64_t MaxPrefetchPages() const override {
    return inner_->MaxPrefetchPages();
  }
  bool SupportsConcurrentReads() const override {
    return inner_->SupportsConcurrentReads();
  }

 private:
  bool Intersects(uint64_t first, uint64_t count) const {
    auto it = poisoned_.lower_bound(static_cast<int64_t>(first));
    return it != poisoned_.end() &&
           *it < static_cast<int64_t>(first + count);
  }

  SeriesProvider* inner_;
  std::set<int64_t> poisoned_;
};

// The scanner-level isolation contract, tested directly: a failed fetch
// kills exactly the slots participating in that scan — with the
// provider's typed status — and the untouched slot keeps scanning and
// finishing afterwards.
TEST(BatchScannerIsolation, FetchFailureKillsOnlyParticipatingSlots) {
  Rng rng(21);
  Dataset data = MakeRandomWalk(200, 32, rng);
  ZNormalizeDataset(data);
  InMemoryProvider mem(&data);
  FailingProvider provider(&mem);
  Dataset queries = MakeNoiseQueries(data, 3, 0.2, rng);

  LeafScanner scanner;
  std::vector<AnswerSet> answers;
  answers.reserve(3);
  std::vector<QueryCounters> counters(3);
  for (size_t q = 0; q < 3; ++q) answers.emplace_back(5);
  for (size_t q = 0; q < 3; ++q) {
    scanner.AddQuery(queries.series(q), &answers[q], &counters[q]);
  }

  provider.PoisonRange(50, 10);
  // Slots 0 and 1 scan a poisoned run; slot 2 does not participate.
  std::vector<int64_t> bad_ids = {50, 51, 52};
  std::vector<size_t> participants = {0, 1};
  scanner.ScanIds(&provider, bad_ids, participants);
  EXPECT_FALSE(scanner.alive(0));
  EXPECT_EQ(scanner.status(0).code(), StatusCode::kIoError);
  EXPECT_FALSE(scanner.alive(1));
  EXPECT_EQ(scanner.status(1).code(), StatusCode::kIoError);
  EXPECT_TRUE(scanner.alive(2));

  // The surviving slot completes a clean scan through the same scanner
  // (dead slots in the participant list are skipped), and its answers
  // match a solo LeafScanner pass over the same candidates.
  std::vector<int64_t> good_ids(40);
  for (size_t i = 0; i < good_ids.size(); ++i) {
    good_ids[i] = static_cast<int64_t>(i);
  }
  std::vector<size_t> everyone = {0, 1, 2};
  scanner.ScanIds(&provider, good_ids, everyone);
  ASSERT_TRUE(scanner.alive(2));

  AnswerSet solo_answers(5);
  QueryCounters solo_counters;
  LeafScanner solo(queries.series(2), &solo_answers, &solo_counters);
  ASSERT_TRUE(solo.ScanIds(&mem, good_ids).ok());
  KnnAnswer expect = solo_answers.Finish();
  KnnAnswer got = answers[2].Finish();
  ExpectIdentical(expect, got, "surviving slot");
}

TEST(BatchScannerIsolation, FiredTokenKillsOnlyItsSlot) {
  Rng rng(22);
  Dataset data = MakeRandomWalk(100, 32, rng);
  ZNormalizeDataset(data);
  InMemoryProvider provider(&data);
  Dataset queries = MakeNoiseQueries(data, 2, 0.2, rng);

  LeafScanner scanner;
  AnswerSet a0(3), a1(3);
  QueryCounters c0, c1;
  auto token = std::make_shared<CancellationToken>();
  scanner.AddQuery(queries.series(0), &a0, &c0, token);
  scanner.AddQuery(queries.series(1), &a1, &c1);

  token->Cancel();
  std::vector<int64_t> ids = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<size_t> both = {0, 1};
  scanner.ScanIds(&provider, ids, both);
  EXPECT_FALSE(scanner.alive(0));
  EXPECT_EQ(scanner.status(0).code(), StatusCode::kCancelled);
  ASSERT_TRUE(scanner.alive(1));

  AnswerSet solo_answers(3);
  QueryCounters solo_counters;
  LeafScanner solo(queries.series(1), &solo_answers, &solo_counters);
  ASSERT_TRUE(solo.ScanIds(&provider, ids).ok());
  ExpectIdentical(solo_answers.Finish(), a1.Finish(), "uncancelled slot");
}

// End-to-end mid-batch failure through a tree co-traversal on a bounded
// pool: poisoning exactly the leaf that holds one member's true nearest
// neighbor (which exact search can never prune for that member) forces a
// failed fetch DURING the batch. The doomed member must come back with
// the typed IoError; members that stayed clear of the poisoned leaf must
// return answers bit-identical to their solo (un-poisoned) runs; and the
// pool must end with zero leaked pins.
TEST(BatchScannerIsolation, MidBatchIoErrorIsolatesFailingQuery) {
  DiskWorkload w(/*capacity_pages=*/16, /*n=*/2000, /*len=*/64,
                 /*num_queries=*/1);
  ASSERT_NE(w.bm, nullptr);
  FailingProvider provider(w.bm.get());
  DSTreeOptions opts;
  opts.leaf_capacity = 32;
  opts.histogram_pairs = 2000;
  auto built = DSTreeIndex::Build(w.data, &provider, opts);
  ASSERT_TRUE(built.ok());
  const DSTreeIndex& index = *built.value();

  // The doomed member hugs series 5; its true-NN leaf is the one holding
  // id 5. The healthy members hug series far from that leaf.
  Rng rng(33);
  std::vector<int64_t> anchors = {5, 900, 1200, 1700};
  Dataset batch_queries(anchors.size(), w.data.length());
  for (size_t i = 0; i < anchors.size(); ++i) {
    std::span<const float> base = w.data.series(anchors[i]);
    std::span<float> out = batch_queries.mutable_series(i);
    for (size_t d = 0; d < base.size(); ++d) {
      out[d] = base[d] + 0.01f * static_cast<float>(rng.NextGaussian());
    }
  }

  // Solo references against the clean provider.
  std::vector<KnnAnswer> solo;
  for (size_t i = 0; i < anchors.size(); ++i) {
    QueryCounters counters;
    Result<KnnAnswer> ans =
        index.Search(batch_queries.series(i), Exact(5), &counters);
    ASSERT_TRUE(ans.ok());
    solo.push_back(std::move(ans).value());
  }

  // Poison the leaf that contains id 5.
  std::vector<int64_t> doomed_leaf;
  for (size_t n = 0; n < index.num_nodes(); ++n) {
    if (!index.node(n).is_leaf) continue;
    const auto& ids = index.node(n).series_ids;
    if (std::find(ids.begin(), ids.end(), int64_t{5}) != ids.end()) {
      doomed_leaf.assign(ids.begin(), ids.end());
      break;
    }
  }
  ASSERT_FALSE(doomed_leaf.empty());
  provider.Poison(doomed_leaf);

  std::vector<QueryCounters> counters(anchors.size());
  std::vector<BatchQuery> batch(anchors.size());
  for (size_t i = 0; i < anchors.size(); ++i) {
    batch[i] = BatchQuery{batch_queries.series(i), Exact(5), &counters[i]};
  }
  std::vector<Result<KnnAnswer>> results =
      index.BatchSearch(std::span<const BatchQuery>(batch));
  ASSERT_EQ(results.size(), anchors.size());

  // The member whose true NN lives in the poisoned leaf must fail, typed.
  ASSERT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].status().code(), StatusCode::kIoError);
  // Other members either dodged the poisoned leaf (bit-identical answer)
  // or were actively scanning it when the fetch failed (same typed
  // error) — never a silently wrong answer. At least one must survive:
  // its anchor's neighborhood is disjoint from the poisoned leaf.
  size_t survived = 0;
  for (size_t i = 1; i < results.size(); ++i) {
    if (results[i].ok()) {
      ++survived;
      ExpectIdentical(solo[i], results[i].value(),
                      "survivor " + std::to_string(i));
    } else {
      EXPECT_EQ(results[i].status().code(), StatusCode::kIoError);
    }
  }
  EXPECT_GE(survived, 1u);
  // No residue on the shared pool: a failed member released every pin.
  EXPECT_EQ(w.bm->PinnedPages(), 0u);
}

}  // namespace
}  // namespace hydra
