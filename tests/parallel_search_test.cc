// Determinism contract of the query-parallel execution engine: for every
// rewired index, num_threads > 1 must return an answer set identical to
// num_threads = 1 — same ids, bit-identical distances — and exact search
// must stay exact at every thread count. Work is sharded by num_threads
// alone, so these assertions hold on any machine and any pool size. The
// ParallelSearchOnDisk suite repeats the contract with the data served by
// the page-pinning BufferManager, the regime the paper cares most about.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <vector>

#include "common/rng.h"
#include "core/generators.h"
#include "core/ground_truth.h"
#include "index/adsplus/adsplus.h"
#include "index/answer_set.h"
#include "index/dstree/dstree.h"
#include "index/flann/flann.h"
#include "index/isax/isax_index.h"
#include "index/leaf_scanner.h"
#include "index/qalsh/qalsh.h"
#include "index/scan/linear_scan.h"
#include "index/sfa/sfa.h"
#include "index/srs/srs.h"
#include "index/vafile/vafile.h"
#include "storage/buffer_manager.h"
#include "storage/series_file.h"
#include "transform/znorm.h"

namespace hydra {
namespace {

constexpr size_t kThreadCounts[] = {2, 4, 8};

struct Workload {
  Dataset data;
  Dataset queries;
  InMemoryProvider provider;

  explicit Workload(size_t n = 3000, size_t len = 64, size_t num_queries = 6)
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

// Same workload shape, but the raw series live in a series file served
// through the page-pinning buffer pool under a small memory budget, so
// every fetch of the parallel scan exercises pin/evict/single-flight.
struct DiskWorkload {
  Dataset data;
  Dataset queries;
  std::filesystem::path dir;
  std::unique_ptr<BufferManager> bm;

  explicit DiskWorkload(uint64_t capacity_pages = 16, size_t n = 2000,
                        size_t len = 64, size_t num_queries = 4)
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
          ("hydra_parallel_disk_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(dir);
    std::string path = (dir / "data.hsf").string();
    EXPECT_TRUE(WriteSeriesFile(path, data).ok());
    auto opened = BufferManager::Open(path, /*page_series=*/16,
                                      capacity_pages);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) bm = std::move(opened).value();
  }
  ~DiskWorkload() { std::filesystem::remove_all(dir); }

  SeriesProvider* provider() { return bm.get(); }
};

KnnAnswer Search(const Index& index, std::span<const float> query,
                 SearchParams params, size_t num_threads) {
  params.num_threads = num_threads;
  QueryCounters counters;
  Result<KnnAnswer> ans = index.Search(query, params, &counters);
  EXPECT_TRUE(ans.ok()) << index.name() << ": " << ans.status().ToString();
  return ans.ok() ? std::move(ans).value() : KnnAnswer{};
}

// Same ids AND bit-identical distances.
void ExpectIdentical(const KnnAnswer& serial, const KnnAnswer& parallel,
                     const std::string& label) {
  ASSERT_EQ(serial.size(), parallel.size()) << label;
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.ids[i], parallel.ids[i]) << label << " rank " << i;
    EXPECT_EQ(serial.distances[i], parallel.distances[i])
        << label << " rank " << i;
  }
}

// Runs the index over the query workload at every thread count and
// asserts the answers match the serial ones; optionally also against
// ground truth.
void CheckDeterminism(const Index& index, const Dataset& queries,
                      const SearchParams& params,
                      const std::vector<KnnAnswer>* ground_truth = nullptr) {
  for (size_t q = 0; q < queries.size(); ++q) {
    KnnAnswer serial = Search(index, queries.series(q), params, 1);
    if (ground_truth != nullptr) {
      ExpectIdentical((*ground_truth)[q], serial,
                      index.name() + " serial vs ground truth, query " +
                          std::to_string(q));
    }
    for (size_t threads : kThreadCounts) {
      KnnAnswer parallel = Search(index, queries.series(q), params, threads);
      ExpectIdentical(serial, parallel,
                      index.name() + " threads=" + std::to_string(threads) +
                          ", query " + std::to_string(q));
    }
  }
}

SearchParams Exact(size_t k = 10) {
  SearchParams p;
  p.mode = SearchMode::kExact;
  p.k = k;
  return p;
}

SearchParams Ng(size_t k, size_t nprobe) {
  SearchParams p;
  p.mode = SearchMode::kNgApproximate;
  p.k = k;
  p.nprobe = nprobe;
  return p;
}

SearchParams DeltaEps(size_t k, double eps, double delta) {
  SearchParams p;
  p.mode = SearchMode::kDeltaEpsilon;
  p.k = k;
  p.epsilon = eps;
  p.delta = delta;
  return p;
}

TEST(ParallelSearch, LinearScanExactAcrossThreadCounts) {
  Workload w;
  std::vector<KnnAnswer> gt = ExactKnnWorkload(w.data, w.queries, 10);
  LinearScanIndex index(&w.provider);
  CheckDeterminism(index, w.queries, Exact(10), &gt);
}

TEST(ParallelSearch, IsaxExactAndNg) {
  Workload w;
  std::vector<KnnAnswer> gt = ExactKnnWorkload(w.data, w.queries, 10);
  IsaxOptions opts;
  opts.leaf_capacity = 256;  // leaves big enough to shard
  opts.histogram_pairs = 2000;
  auto index = IsaxIndex::Build(w.data, &w.provider, opts);
  ASSERT_TRUE(index.ok());
  CheckDeterminism(*index.value(), w.queries, Exact(10), &gt);
  CheckDeterminism(*index.value(), w.queries, Ng(10, 4));
}

TEST(ParallelSearch, DstreeExact) {
  Workload w;
  std::vector<KnnAnswer> gt = ExactKnnWorkload(w.data, w.queries, 10);
  DSTreeOptions opts;
  opts.leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = DSTreeIndex::Build(w.data, &w.provider, opts);
  ASSERT_TRUE(index.ok());
  CheckDeterminism(*index.value(), w.queries, Exact(10), &gt);
}

TEST(ParallelSearch, AdsPlusExactAtEveryThreadCount) {
  Workload w;
  std::vector<KnnAnswer> gt = ExactKnnWorkload(w.data, w.queries, 10);
  // ADS+ refines itself adaptively during queries, so consecutive runs
  // see different tree states; exactness against ground truth at every
  // thread count is the determinism statement that stays well-defined.
  AdsPlusOptions opts;
  opts.query_leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = AdsPlusIndex::Build(w.data, &w.provider, opts);
  ASSERT_TRUE(index.ok());
  for (size_t q = 0; q < w.queries.size(); ++q) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      KnnAnswer ans =
          Search(*index.value(), w.queries.series(q), Exact(10), threads);
      ExpectIdentical(gt[q], ans,
                      "adsplus threads=" + std::to_string(threads) +
                          ", query " + std::to_string(q));
    }
  }
}

TEST(ParallelSearch, SfaExact) {
  Workload w;
  std::vector<KnnAnswer> gt = ExactKnnWorkload(w.data, w.queries, 10);
  SfaOptions opts;
  opts.leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = SfaIndex::Build(w.data, &w.provider, opts);
  ASSERT_TRUE(index.ok());
  CheckDeterminism(*index.value(), w.queries, Exact(10), &gt);
}

TEST(ParallelSearch, VafileExactNgAndDeltaEps) {
  Workload w;
  std::vector<KnnAnswer> gt = ExactKnnWorkload(w.data, w.queries, 10);
  VaFileOptions opts;
  opts.histogram_pairs = 2000;
  auto index = VaFileIndex::Build(w.data, &w.provider, opts);
  ASSERT_TRUE(index.ok());
  CheckDeterminism(*index.value(), w.queries, Exact(10), &gt);
  CheckDeterminism(*index.value(), w.queries, Ng(10, 200));
  CheckDeterminism(*index.value(), w.queries, DeltaEps(10, 1.0, 0.95));
}

TEST(ParallelSearch, SrsNgAndDeltaEps) {
  Workload w;
  SrsOptions opts;
  auto index = SrsIndex::Build(w.data, &w.provider, opts);
  ASSERT_TRUE(index.ok());
  CheckDeterminism(*index.value(), w.queries, Ng(10, 300));
  CheckDeterminism(*index.value(), w.queries, DeltaEps(10, 1.0, 0.9));
}

TEST(ParallelSearch, QalshNgAndDeltaEps) {
  Workload w;
  QalshOptions opts;
  auto index = QalshIndex::Build(w.data, &w.provider, opts);
  ASSERT_TRUE(index.ok());
  CheckDeterminism(*index.value(), w.queries, Ng(10, 300));
  CheckDeterminism(*index.value(), w.queries, DeltaEps(10, 1.0, 0.9));
}

TEST(ParallelSearch, FlannKdForestNg) {
  Workload w;
  FlannOptions opts;
  opts.algorithm = FlannOptions::Algorithm::kKdForest;
  opts.kd.leaf_size = 128;  // leaves big enough to shard
  auto index = FlannIndex::Build(w.data, opts);
  ASSERT_TRUE(index.ok());
  CheckDeterminism(*index.value(), w.queries, Ng(10, 512));
}

TEST(ParallelSearch, FlannKmeansTreeNg) {
  Workload w;
  FlannOptions opts;
  opts.algorithm = FlannOptions::Algorithm::kKmeansTree;
  opts.kmeans.leaf_size = 128;
  auto index = FlannIndex::Build(w.data, opts);
  ASSERT_TRUE(index.ok());
  CheckDeterminism(*index.value(), w.queries, Ng(10, 512));
}

// Direct unit coverage of the scanner surfaces the indexes do not reach.
TEST(ParallelLeafScannerTest, ScanContiguousMatchesSerial) {
  Workload w;
  const auto query = w.queries.series(0);
  const size_t n = w.data.size();

  AnswerSet serial_answers(10);
  QueryCounters serial_counters;
  LeafScanner serial(query, &serial_answers, &serial_counters, 1);
  EXPECT_EQ(serial.ScanContiguous(w.data.data(), n, w.data.length(), 0), n);
  KnnAnswer serial_ans = serial_answers.Finish();

  for (size_t threads : kThreadCounts) {
    AnswerSet answers(10);
    QueryCounters counters;
    LeafScanner scanner(query, &answers, &counters, threads);
    EXPECT_EQ(scanner.ScanContiguous(w.data.data(), n, w.data.length(), 0), n);
    KnnAnswer ans = answers.Finish();
    ExpectIdentical(serial_ans, ans,
                    "ScanContiguous threads=" + std::to_string(threads));
    // Every candidate is either completed or abandoned, never dropped.
    EXPECT_EQ(counters.full_distances + counters.abandoned_distances, n);
  }
}

TEST(ParallelLeafScannerTest, RefineOrderedStopsExactlyWhereSerialDoes) {
  Workload w;
  const auto query = w.queries.series(0);
  auto identity = [](size_t i) { return static_cast<int64_t>(i); };

  // Serial reference: commit the first 777 candidates, then stop.
  constexpr size_t kStopAfter = 777;
  auto run = [&](size_t threads) {
    AnswerSet answers(5);
    LeafScanner scanner(query, &answers, nullptr, threads);
    Result<size_t> committed = scanner.RefineOrdered(
        &w.provider, w.data.size(), identity,
        /*before=*/[](size_t) { return true; },
        /*after=*/[](size_t i) { return i + 1 < kStopAfter; });
    EXPECT_TRUE(committed.ok());
    EXPECT_EQ(committed.value(), kStopAfter);
    return answers.Finish();
  };
  KnnAnswer serial = run(1);
  for (size_t threads : kThreadCounts) {
    ExpectIdentical(serial, run(threads),
                    "RefineOrdered threads=" + std::to_string(threads));
  }
}

// An exact distance tie at the k-th place keeps the smaller id whatever
// order the candidates arrive in: serially (the larger id is offered
// first) and through a 4-thread fan-out.
TEST(ParallelLeafScannerTest, ExactTieKeepsSmallerIdInAnyScanOrder) {
  Rng rng(5);
  Dataset data = MakeRandomWalk(256, 32, rng);
  const std::vector<float> query(data.series(200).begin(),
                                 data.series(200).end());
  std::copy(query.begin(), query.end(), data.mutable_series(3).begin());
  InMemoryProvider provider(&data);
  std::vector<int64_t> descending(data.size());
  for (size_t i = 0; i < descending.size(); ++i) {
    descending[i] = static_cast<int64_t>(data.size() - 1 - i);
  }
  for (size_t threads : {size_t{1}, size_t{4}}) {
    AnswerSet answers(1);
    LeafScanner scanner(query, &answers, nullptr, threads);
    ASSERT_TRUE(scanner.ScanIds(&provider, descending).ok());
    KnnAnswer ans = answers.Finish();
    ASSERT_EQ(ans.size(), 1u);
    EXPECT_EQ(ans.ids[0], 3) << "threads=" << threads;
    EXPECT_EQ(ans.distances[0], 0.0) << "threads=" << threads;
  }
}

// --- Disk-resident determinism: the paper's out-of-core regime. Every
// rewired index runs its parallel path against the page-pinning buffer
// pool and must return answers identical to its serial run. ---

TEST(ParallelSearchOnDisk, LinearScanExact) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  ASSERT_TRUE(w.bm->SupportsConcurrentReads());
  std::vector<KnnAnswer> gt = ExactKnnWorkload(w.data, w.queries, 10);
  LinearScanIndex index(w.provider());
  CheckDeterminism(index, w.queries, Exact(10), &gt);
}

TEST(ParallelSearchOnDisk, IsaxExactAndNg) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  std::vector<KnnAnswer> gt = ExactKnnWorkload(w.data, w.queries, 10);
  IsaxOptions opts;
  opts.leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = IsaxIndex::Build(w.data, w.provider(), opts);
  ASSERT_TRUE(index.ok());
  CheckDeterminism(*index.value(), w.queries, Exact(10), &gt);
  CheckDeterminism(*index.value(), w.queries, Ng(10, 4));
}

TEST(ParallelSearchOnDisk, DstreeExact) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  std::vector<KnnAnswer> gt = ExactKnnWorkload(w.data, w.queries, 10);
  DSTreeOptions opts;
  opts.leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = DSTreeIndex::Build(w.data, w.provider(), opts);
  ASSERT_TRUE(index.ok());
  CheckDeterminism(*index.value(), w.queries, Exact(10), &gt);
}

TEST(ParallelSearchOnDisk, AdsPlusExactAtEveryThreadCount) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  std::vector<KnnAnswer> gt = ExactKnnWorkload(w.data, w.queries, 10);
  AdsPlusOptions opts;
  opts.query_leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = AdsPlusIndex::Build(w.data, w.provider(), opts);
  ASSERT_TRUE(index.ok());
  // Adaptive refinement mutates the tree between queries (see the
  // in-memory test): exactness vs ground truth at every thread count is
  // the well-defined determinism statement.
  for (size_t q = 0; q < w.queries.size(); ++q) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      KnnAnswer ans =
          Search(*index.value(), w.queries.series(q), Exact(10), threads);
      ExpectIdentical(gt[q], ans,
                      "adsplus ondisk threads=" + std::to_string(threads) +
                          ", query " + std::to_string(q));
    }
  }
}

TEST(ParallelSearchOnDisk, SfaExact) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  std::vector<KnnAnswer> gt = ExactKnnWorkload(w.data, w.queries, 10);
  SfaOptions opts;
  opts.leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = SfaIndex::Build(w.data, w.provider(), opts);
  ASSERT_TRUE(index.ok());
  CheckDeterminism(*index.value(), w.queries, Exact(10), &gt);
}

TEST(ParallelSearchOnDisk, VafileExactNgAndDeltaEps) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  std::vector<KnnAnswer> gt = ExactKnnWorkload(w.data, w.queries, 10);
  VaFileOptions opts;
  opts.histogram_pairs = 2000;
  auto index = VaFileIndex::Build(w.data, w.provider(), opts);
  ASSERT_TRUE(index.ok());
  CheckDeterminism(*index.value(), w.queries, Exact(10), &gt);
  CheckDeterminism(*index.value(), w.queries, Ng(10, 200));
  CheckDeterminism(*index.value(), w.queries, DeltaEps(10, 1.0, 0.95));
}

TEST(ParallelSearchOnDisk, SrsAndQalshApprox) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  SrsOptions srs_opts;
  auto srs = SrsIndex::Build(w.data, w.provider(), srs_opts);
  ASSERT_TRUE(srs.ok());
  CheckDeterminism(*srs.value(), w.queries, Ng(10, 300));
  CheckDeterminism(*srs.value(), w.queries, DeltaEps(10, 1.0, 0.9));

  QalshOptions qalsh_opts;
  auto qalsh = QalshIndex::Build(w.data, w.provider(), qalsh_opts);
  ASSERT_TRUE(qalsh.ok());
  CheckDeterminism(*qalsh.value(), w.queries, Ng(10, 300));
  CheckDeterminism(*qalsh.value(), w.queries, DeltaEps(10, 1.0, 0.9));
}

TEST(ParallelSearchOnDisk, FlannNg) {
  // FLANN holds its build-time copy of the data (the paper treats it as
  // in-memory-only), so "on-disk" only exercises the shared engine — the
  // test completes the every-rewired-index checklist.
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  FlannOptions opts;
  opts.algorithm = FlannOptions::Algorithm::kKdForest;
  opts.kd.leaf_size = 128;
  auto index = FlannIndex::Build(w.data, opts);
  ASSERT_TRUE(index.ok());
  CheckDeterminism(*index.value(), w.queries, Ng(10, 512));
}

TEST(ParallelSearchOnDisk, ParallelRefinementChargesRealIo) {
  // VA+file refinement goes through RefineOrdered; its speculative page
  // loads perform real I/O, which must land in the caller's counters at
  // every thread count (the logical measures stay commit-based).
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  VaFileOptions opts;
  opts.histogram_pairs = 2000;
  auto index = VaFileIndex::Build(w.data, w.provider(), opts);
  ASSERT_TRUE(index.ok());
  for (size_t threads : {size_t{1}, size_t{4}}) {
    w.bm->DropCache();
    SearchParams params = Exact(10);
    params.num_threads = threads;
    QueryCounters counters;
    auto ans = index.value()->Search(w.queries.series(0), params, &counters);
    ASSERT_TRUE(ans.ok());
    EXPECT_GT(counters.bytes_read, 0u) << "threads=" << threads;
    EXPECT_GT(counters.random_ios, 0u) << "threads=" << threads;
  }
}

TEST(ParallelSearchOnDisk, TinyPoolClampStaysExact) {
  // Capacity 2 < num_threads: the exec layer clamps the fan-out to the
  // provider's concurrent-pin budget (MaxConcurrentPins), so even an
  // absurdly small pool yields exact, serial-identical answers rather
  // than starving workers of pins.
  DiskWorkload w(/*capacity_pages=*/2);
  ASSERT_NE(w.bm, nullptr);
  EXPECT_EQ(w.bm->MaxConcurrentPins(), 2u);
  std::vector<KnnAnswer> gt = ExactKnnWorkload(w.data, w.queries, 10);
  LinearScanIndex index(w.provider());
  CheckDeterminism(index, w.queries, Exact(10), &gt);
}

// --- Prefetch-depth determinism: the asynchronous readahead pipeline
// (SearchParams::prefetch_depth, storage/buffer_manager.h) is a pure
// cache hint. Every depth, at every thread count, must return answers
// identical to depth 0 (the serial-identical seed behavior), across the
// rewired on-disk indexes. ---

constexpr size_t kPrefetchDepths[] = {0, 4, 16};

void CheckPrefetchDeterminism(const Index& index, BufferManager* pool,
                              const Dataset& queries,
                              const SearchParams& base,
                              const std::vector<KnnAnswer>* ground_truth) {
  for (size_t q = 0; q < queries.size(); ++q) {
    SearchParams params = base;
    params.prefetch_depth = SearchParams::kPrefetchOff;
    KnnAnswer baseline = Search(index, queries.series(q), params, 1);
    if (ground_truth != nullptr) {
      ExpectIdentical((*ground_truth)[q], baseline,
                      index.name() + " prefetch baseline vs ground truth, "
                                     "query " + std::to_string(q));
    }
    for (size_t depth : kPrefetchDepths) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        // Cold pool per point: the depth knob must not change answers
        // whether the pages come from readahead, demand misses, or hits.
        pool->DropCache();
        params.prefetch_depth =
            depth == 0 ? SearchParams::kPrefetchOff : depth;
        KnnAnswer ans = Search(index, queries.series(q), params, threads);
        ExpectIdentical(baseline, ans,
                        index.name() + " prefetch_depth=" +
                            std::to_string(depth) + " threads=" +
                            std::to_string(threads) + ", query " +
                            std::to_string(q));
      }
    }
  }
}

TEST(ParallelSearchOnDisk, PrefetchDepthsReturnIdenticalAnswersLinearScan) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  EXPECT_EQ(w.bm->MaxPrefetchPages(), 8u);  // 16-page pool: half carve-out
  std::vector<KnnAnswer> gt = ExactKnnWorkload(w.data, w.queries, 10);
  LinearScanIndex index(w.provider());
  CheckPrefetchDeterminism(index, w.bm.get(), w.queries, Exact(10), &gt);
}

TEST(ParallelSearchOnDisk, PrefetchDepthsReturnIdenticalAnswersIsax) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  std::vector<KnnAnswer> gt = ExactKnnWorkload(w.data, w.queries, 10);
  IsaxOptions opts;
  opts.leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = IsaxIndex::Build(w.data, w.provider(), opts);
  ASSERT_TRUE(index.ok());
  CheckPrefetchDeterminism(*index.value(), w.bm.get(), w.queries, Exact(10),
                           &gt);
  CheckPrefetchDeterminism(*index.value(), w.bm.get(), w.queries, Ng(10, 4),
                           nullptr);
}

TEST(ParallelSearchOnDisk, PrefetchDepthsReturnIdenticalAnswersDstree) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  std::vector<KnnAnswer> gt = ExactKnnWorkload(w.data, w.queries, 10);
  DSTreeOptions opts;
  opts.leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = DSTreeIndex::Build(w.data, w.provider(), opts);
  ASSERT_TRUE(index.ok());
  CheckPrefetchDeterminism(*index.value(), w.bm.get(), w.queries, Exact(10),
                           &gt);
}

TEST(ParallelSearchOnDisk, PrefetchDepthsReturnIdenticalAnswersSfa) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  std::vector<KnnAnswer> gt = ExactKnnWorkload(w.data, w.queries, 10);
  SfaOptions opts;
  opts.leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = SfaIndex::Build(w.data, w.provider(), opts);
  ASSERT_TRUE(index.ok());
  CheckPrefetchDeterminism(*index.value(), w.bm.get(), w.queries, Exact(10),
                           &gt);
}

TEST(ParallelSearchOnDisk, PrefetchedScanReportsReadaheadCounters) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  LinearScanIndex index(w.provider());
  w.bm->DropCache();
  SearchParams params = Exact(10);
  params.prefetch_depth = 4;
  QueryCounters counters;
  auto ans = index.Search(w.queries.series(0), params, &counters);
  ASSERT_TRUE(ans.ok());
  w.bm->DrainPrefetches();
  EXPECT_GT(counters.prefetch_issued, 0u);
  EXPECT_EQ(w.bm->prefetch_issued(),
            counters.prefetch_issued);  // attribution sums to pool total
  EXPECT_LE(w.bm->prefetch_useful(), w.bm->prefetch_issued());
}

// --- Path-independent work: the execution path (fan-out, readahead, a
// one-member batch) may change how a query runs, never what it computes.
// Each path must match a serial, prefetch-off Search in its answers AND in
// the logical work counters: the distances evaluated (full + abandoned;
// the split may move with stale fan-out thresholds), lower bounds,
// series fetched, leaves opened and queue pushes. ---

struct PathRun {
  KnnAnswer answer;
  QueryCounters counters;
};

PathRun RunPath(const Index& index, std::span<const float> query,
                SearchParams params, size_t threads, size_t depth,
                bool batch) {
  params.num_threads = threads;
  params.prefetch_depth = depth == 0 ? SearchParams::kPrefetchOff : depth;
  PathRun run;
  Result<KnnAnswer> ans = Status::Internal("unset");
  if (batch) {
    BatchQuery member{query, params, &run.counters};
    std::vector<Result<KnnAnswer>> results =
        index.BatchSearch(std::span<const BatchQuery>(&member, 1));
    ans = std::move(results.at(0));
  } else {
    ans = index.Search(query, params, &run.counters);
  }
  EXPECT_TRUE(ans.ok()) << index.name() << ": " << ans.status().ToString();
  if (ans.ok()) run.answer = std::move(ans).value();
  return run;
}

void CheckPathIndependentWork(const Index& index, const Dataset& queries,
                              const std::string& where) {
  std::vector<std::pair<std::string, SearchParams>> modes;
  const IndexCapabilities caps = index.capabilities();
  if (caps.exact) modes.push_back({"exact", Exact(10)});
  if (caps.ng_approximate) modes.push_back({"ng", Ng(10, 4)});
  if (caps.delta_epsilon_approximate) {
    modes.push_back({"delta-eps", DeltaEps(10, 0.5, 0.9)});
  }
  struct Path {
    const char* name;
    size_t threads;
    size_t depth;
    bool batch;
  };
  constexpr Path kPaths[] = {{"threads=4", 4, 0, false},
                             {"prefetch=8", 1, 8, false},
                             {"threads=4 prefetch=8", 4, 8, false},
                             {"one-member batch", 1, 0, true}};
  for (const auto& [mode, params] : modes) {
    for (size_t q = 0; q < queries.size(); ++q) {
      PathRun serial = RunPath(index, queries.series(q), params, 1, 0, false);
      for (const Path& path : kPaths) {
        PathRun run = RunPath(index, queries.series(q), params, path.threads,
                              path.depth, path.batch);
        const std::string label = index.name() + " " + where + " " + mode +
                                  " " + path.name + ", query " +
                                  std::to_string(q);
        ExpectIdentical(serial.answer, run.answer, label);
        const QueryCounters& a = serial.counters;
        const QueryCounters& b = run.counters;
        EXPECT_EQ(a.full_distances + a.abandoned_distances,
                  b.full_distances + b.abandoned_distances)
            << label;
        EXPECT_EQ(a.lb_distances, b.lb_distances) << label;
        EXPECT_EQ(a.series_accessed, b.series_accessed) << label;
        EXPECT_EQ(a.leaves_visited, b.leaves_visited) << label;
        EXPECT_EQ(a.nodes_pushed, b.nodes_pushed) << label;
      }
    }
  }
}

void CheckPathIndependentWorkForAll(const Dataset& data,
                                    const Dataset& queries,
                                    SeriesProvider* provider,
                                    const std::string& where) {
  LinearScanIndex scan(provider);
  CheckPathIndependentWork(scan, queries, where);

  IsaxOptions isax_opts;
  isax_opts.leaf_capacity = 256;
  isax_opts.histogram_pairs = 2000;
  auto isax = IsaxIndex::Build(data, provider, isax_opts);
  ASSERT_TRUE(isax.ok());
  CheckPathIndependentWork(*isax.value(), queries, where);

  DSTreeOptions dstree_opts;
  dstree_opts.leaf_capacity = 256;
  dstree_opts.histogram_pairs = 2000;
  auto dstree = DSTreeIndex::Build(data, provider, dstree_opts);
  ASSERT_TRUE(dstree.ok());
  CheckPathIndependentWork(*dstree.value(), queries, where);

  SfaOptions sfa_opts;
  sfa_opts.leaf_capacity = 256;
  sfa_opts.histogram_pairs = 2000;
  auto sfa = SfaIndex::Build(data, provider, sfa_opts);
  ASSERT_TRUE(sfa.ok());
  CheckPathIndependentWork(*sfa.value(), queries, where);

  VaFileOptions vafile_opts;
  vafile_opts.histogram_pairs = 2000;
  auto vafile = VaFileIndex::Build(data, provider, vafile_opts);
  ASSERT_TRUE(vafile.ok());
  CheckPathIndependentWork(*vafile.value(), queries, where);

  auto qalsh = QalshIndex::Build(data, provider, QalshOptions{});
  ASSERT_TRUE(qalsh.ok());
  CheckPathIndependentWork(*qalsh.value(), queries, where);

  auto srs = SrsIndex::Build(data, provider, SrsOptions{});
  ASSERT_TRUE(srs.ok());
  CheckPathIndependentWork(*srs.value(), queries, where);
}

TEST(PathIndependentWork, InMemory) {
  Workload w;
  CheckPathIndependentWorkForAll(w.data, w.queries, &w.provider, "in-memory");
}

TEST(PathIndependentWork, OnPool) {
  DiskWorkload w(/*capacity_pages=*/32, /*n=*/3000, /*len=*/64,
                 /*num_queries=*/6);
  ASSERT_NE(w.bm, nullptr);
  CheckPathIndependentWorkForAll(w.data, w.queries, w.provider(), "on-pool");
}

TEST(ParallelLeafScannerTest, RefineOrderedBudgetZeroCommitsNothing) {
  Workload w;
  const auto query = w.queries.series(0);
  AnswerSet answers(5);
  LeafScanner scanner(query, &answers, nullptr, 4);
  Result<size_t> committed = scanner.RefineOrdered(
      &w.provider, w.data.size(),
      [](size_t i) { return static_cast<int64_t>(i); },
      /*before=*/[](size_t) { return false; },
      /*after=*/[](size_t) { return true; });
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed.value(), 0u);
  EXPECT_EQ(answers.size(), 0u);
}

}  // namespace
}  // namespace hydra
