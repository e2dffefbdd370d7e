// Determinism and liveness contract of the concurrent query serving
// engine (exec/query_scheduler.h): overlapping whole queries on the
// shared pool and the shared buffer manager must return, per query,
// answers identical to sequential execution — same ids, bit-identical
// distances — at every concurrency level, in memory and on disk; the
// bounded submission queue must exert backpressure; and shutdown with
// queries in flight must be clean. The CI serving-stress lane runs this
// suite under TSan at HYDRA_CONCURRENCY=8 over a small pool
// (HYDRA_SERVING_POOL_PAGES, default 16), where pin-accounting or
// eviction races between queries — invisible to the per-query tests —
// would surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/options.h"
#include "common/rng.h"
#include "core/generators.h"
#include "core/ground_truth.h"
#include "exec/query_scheduler.h"
#include "index/adsplus/adsplus.h"
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

// The CI lane raises the stress level via HYDRA_CONCURRENCY; locally the
// suite still covers 2/4/8.
std::vector<size_t> ConcurrencyLevels() {
  std::vector<size_t> levels = {2, 4, 8};
  for (size_t extra : ParseCountList(std::getenv("HYDRA_CONCURRENCY"), {})) {
    if (extra > 1 &&
        std::find(levels.begin(), levels.end(), extra) == levels.end()) {
      levels.push_back(extra);
    }
  }
  return levels;
}

uint64_t PoolPages() { return EnvOrSize("HYDRA_SERVING_POOL_PAGES", 16); }

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

  explicit DiskWorkload(uint64_t capacity_pages = PoolPages(),
                        size_t n = 2000, size_t len = 64,
                        size_t num_queries = 8)
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
          ("hydra_serving_" + std::to_string(::getpid()) + "_" +
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

void ExpectIdentical(const KnnAnswer& serial, const KnnAnswer& served,
                     const std::string& label) {
  ASSERT_EQ(serial.size(), served.size()) << label;
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.ids[i], served.ids[i]) << label << " rank " << i;
    EXPECT_EQ(serial.distances[i], served.distances[i])
        << label << " rank " << i;
  }
}

// Sequential reference answers: the paper's one-at-a-time protocol.
std::vector<KnnAnswer> Sequential(const Index& index, const Dataset& queries,
                                  const SearchParams& params) {
  std::vector<KnnAnswer> answers;
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryCounters counters;
    Result<KnnAnswer> ans = index.Search(queries.series(q), params, &counters);
    EXPECT_TRUE(ans.ok()) << index.name() << ": " << ans.status().ToString();
    answers.push_back(ans.ok() ? std::move(ans).value() : KnnAnswer{});
  }
  return answers;
}

// Serves the whole workload at `concurrency` and returns the ordered
// completion stream's answers.
std::vector<KnnAnswer> Serve(const Index& index, SeriesProvider* provider,
                             const Dataset& queries,
                             const SearchParams& params, size_t concurrency) {
  ServingOptions options;
  options.concurrency = concurrency;
  ServingSession session(index, provider, options);
  for (size_t q = 0; q < queries.size(); ++q) {
    session.Submit(queries.series(q), params);
  }
  session.Finish();
  std::vector<KnnAnswer> answers;
  uint64_t expected_ticket = 0;
  while (std::optional<ServedQuery> served = session.Next()) {
    EXPECT_EQ(served->ticket.id(), expected_ticket++)
        << "completion stream out of submission order";
    EXPECT_TRUE(served->answer.ok())
        << index.name() << ": " << served->answer.status().ToString();
    answers.push_back(served->answer.ok() ? std::move(served->answer).value()
                                          : KnnAnswer{});
  }
  EXPECT_EQ(answers.size(), queries.size());
  return answers;
}

void CheckServingDeterminism(const Index& index, SeriesProvider* provider,
                             const Dataset& queries,
                             const SearchParams& params) {
  std::vector<KnnAnswer> serial = Sequential(index, queries, params);
  for (size_t concurrency : ConcurrencyLevels()) {
    std::vector<KnnAnswer> served =
        Serve(index, provider, queries, params, concurrency);
    ASSERT_EQ(served.size(), serial.size());
    for (size_t q = 0; q < serial.size(); ++q) {
      ExpectIdentical(serial[q], served[q],
                      index.name() +
                          " concurrency=" + std::to_string(concurrency) +
                          ", query " + std::to_string(q));
    }
  }
}

// --- In-memory determinism ---

TEST(ServingDeterminism, LinearScanInMemory) {
  Workload w;
  LinearScanIndex index(&w.provider);
  CheckServingDeterminism(index, &w.provider, w.queries, Exact(10));
}

TEST(ServingDeterminism, IsaxInMemory) {
  Workload w;
  IsaxOptions opts;
  opts.leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = IsaxIndex::Build(w.data, &w.provider, opts);
  ASSERT_TRUE(index.ok());
  CheckServingDeterminism(*index.value(), &w.provider, w.queries, Exact(10));
}

TEST(ServingDeterminism, DstreeInMemory) {
  Workload w;
  DSTreeOptions opts;
  opts.leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = DSTreeIndex::Build(w.data, &w.provider, opts);
  ASSERT_TRUE(index.ok());
  CheckServingDeterminism(*index.value(), &w.provider, w.queries, Exact(10));
}

TEST(ServingDeterminism, VafileInMemory) {
  Workload w;
  VaFileOptions opts;
  opts.histogram_pairs = 2000;
  auto index = VaFileIndex::Build(w.data, &w.provider, opts);
  ASSERT_TRUE(index.ok());
  CheckServingDeterminism(*index.value(), &w.provider, w.queries, Exact(10));
}

// --- On-disk determinism: concurrent queries share one bounded
// page-pinning pool; the session splits the pin budget across them. ---

TEST(ServingDeterminism, LinearScanOnDisk) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  LinearScanIndex index(w.bm.get());
  CheckServingDeterminism(index, w.bm.get(), w.queries, Exact(10));
}

TEST(ServingDeterminism, IsaxOnDisk) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  IsaxOptions opts;
  opts.leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = IsaxIndex::Build(w.data, w.bm.get(), opts);
  ASSERT_TRUE(index.ok());
  CheckServingDeterminism(*index.value(), w.bm.get(), w.queries, Exact(10));
}

TEST(ServingDeterminism, DstreeOnDisk) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  DSTreeOptions opts;
  opts.leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = DSTreeIndex::Build(w.data, w.bm.get(), opts);
  ASSERT_TRUE(index.ok());
  CheckServingDeterminism(*index.value(), w.bm.get(), w.queries, Exact(10));
}

TEST(ServingDeterminism, VafileOnDisk) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  VaFileOptions opts;
  opts.histogram_pairs = 2000;
  auto index = VaFileIndex::Build(w.data, w.bm.get(), opts);
  ASSERT_TRUE(index.ok());
  CheckServingDeterminism(*index.value(), w.bm.get(), w.queries, Exact(10));
}

// Intra-query parallelism composes with inter-query concurrency: each
// admitted query fans its leaf scans across the same pool (TaskGroup::
// Wait helps, so nested waits cannot deadlock even a 1-worker pool).
TEST(ServingDeterminism, NestedFanOutOnDisk) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  LinearScanIndex index(w.bm.get());
  SearchParams params = Exact(10);
  params.num_threads = 4;
  CheckServingDeterminism(index, w.bm.get(), w.queries, params);
}

// Asynchronous readahead composes with serving: concurrent queries share
// the pool's prefetch budget (ServingSession splits it like the pin
// budget), the background workers race the in-flight queries' fetches
// and evictions, and every answer must still be identical to sequential
// execution at every depth and concurrency level.
TEST(ServingDeterminism, PrefetchedServingMatchesSequentialLinearScan) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  LinearScanIndex index(w.bm.get());
  for (size_t depth : {size_t{4}, size_t{16}}) {
    SearchParams params = Exact(10);
    params.prefetch_depth = depth;
    CheckServingDeterminism(index, w.bm.get(), w.queries, params);
  }
}

TEST(ServingDeterminism, PrefetchedServingMatchesSequentialDstree) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  DSTreeOptions opts;
  opts.leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = DSTreeIndex::Build(w.data, w.bm.get(), opts);
  ASSERT_TRUE(index.ok());
  for (size_t depth : {size_t{4}, size_t{16}}) {
    SearchParams params = Exact(10);
    params.prefetch_depth = depth;
    CheckServingDeterminism(*index.value(), w.bm.get(), w.queries, params);
  }
}

// The session splits the readahead carve-out the way it splits pins:
// depth clamps to MaxPrefetchPages() / concurrency (floored at 1).
TEST(Serving, PrefetchBudgetSplitsAcrossQueries) {
  DiskWorkload w(/*capacity_pages=*/16);
  ASSERT_NE(w.bm, nullptr);
  ASSERT_EQ(w.bm->MaxPrefetchPages(), 8u);
  LinearScanIndex index(w.bm.get());
  ServingOptions options;
  options.concurrency = 4;
  ServingSession session(index, w.bm.get(), options);
  EXPECT_EQ(session.per_query_prefetch_budget(), 2u);  // 8 / 4

  // Submitted queries run under the clamped depth and still answer
  // exactly; per-query readahead attribution reaches the stream.
  SearchParams params = Exact(10);
  params.prefetch_depth = 16;  // above the per-query share
  for (size_t q = 0; q < w.queries.size(); ++q) {
    session.Submit(w.queries.series(q), params);
  }
  session.Finish();
  QueryCounters summed;
  while (std::optional<ServedQuery> served = session.Next()) {
    ASSERT_TRUE(served->answer.ok());
    summed += served->counters;
  }
  w.bm->DrainPrefetches();
  EXPECT_EQ(summed.prefetch_issued, w.bm->prefetch_issued());
  EXPECT_LE(w.bm->prefetch_useful(), w.bm->prefetch_issued());
}

// --- Capability clamp: ADS+ refines its tree during queries and must
// not serve overlapping queries; the session admits them one at a time
// and the answers stay exact. ---

TEST(Serving, AdsPlusClampsToSequentialAdmission) {
  Workload w;
  AdsPlusOptions opts;
  opts.query_leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = AdsPlusIndex::Build(w.data, &w.provider, opts);
  ASSERT_TRUE(index.ok());
  ASSERT_FALSE(index.value()->capabilities().concurrent_queries);

  ServingOptions options;
  options.concurrency = 8;
  ServingSession session(*index.value(), &w.provider, options);
  EXPECT_EQ(session.concurrency(), 1u);

  std::vector<KnnAnswer> gt = ExactKnnWorkload(w.data, w.queries, 10);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    session.Submit(w.queries.series(q), Exact(10));
  }
  session.Finish();
  size_t q = 0;
  while (std::optional<ServedQuery> served = session.Next()) {
    ASSERT_TRUE(served->answer.ok());
    ExpectIdentical(gt[q], served->answer.value(),
                    "adsplus served query " + std::to_string(q));
    ++q;
  }
  EXPECT_EQ(q, w.queries.size());
}

// --- Pin-budget negotiation ---

TEST(Serving, PinBudgetSplitsPoolCapacityAcrossQueries) {
  DiskWorkload w(/*capacity_pages=*/16);
  ASSERT_NE(w.bm, nullptr);
  LinearScanIndex index(w.bm.get());

  ServingOptions options;
  options.concurrency = 8;
  ServingSession session(index, w.bm.get(), options);
  EXPECT_EQ(session.per_query_pin_budget(), 2u);  // 16 pages / 8 queries

  // An in-memory provider is unconstrained: no budget is imposed.
  Workload mem;
  LinearScanIndex mem_index(&mem.provider);
  ServingSession mem_session(mem_index, &mem.provider, options);
  EXPECT_EQ(mem_session.per_query_pin_budget(), 0u);

  // More queries than pages: admission itself is clamped to the pin
  // capacity (otherwise 64 one-pin queries could legally overcommit a
  // 16-page pool), and each admitted query still gets one pin.
  ServingOptions tight;
  tight.concurrency = 64;
  ServingSession tight_session(index, w.bm.get(), tight);
  EXPECT_EQ(tight_session.concurrency(), 16u);
  EXPECT_EQ(tight_session.per_query_pin_budget(), 1u);
}

// --- Per-query hit/miss attribution: the queries' own counters must
// account for exactly the pool's total hit/miss activity. ---

TEST(Serving, PerQueryCountersSumToPoolTotals) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  LinearScanIndex index(w.bm.get());

  const uint64_t hits_before = w.bm->cache_hits();
  const uint64_t misses_before = w.bm->cache_misses();

  ServingOptions options;
  options.concurrency = 4;
  ServingSession session(index, w.bm.get(), options);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    session.Submit(w.queries.series(q), Exact(10));
  }
  session.Finish();
  QueryCounters summed;
  while (std::optional<ServedQuery> served = session.Next()) {
    ASSERT_TRUE(served->answer.ok());
    summed += served->counters;
  }

  EXPECT_EQ(summed.cache_hits, w.bm->cache_hits() - hits_before);
  EXPECT_EQ(summed.cache_misses, w.bm->cache_misses() - misses_before);
  EXPECT_GT(summed.cache_misses, 0u);  // the pool is smaller than the data
}

// Same exactness through the ordered-refinement path (VA+file) with an
// intra-query fan-out: RefineOrdered's speculative workers charge their
// pool activity through per-worker scratch counters, which must merge
// into the query's attribution.
TEST(Serving, RefineOrderedAttributesPoolActivity) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  VaFileOptions opts;
  opts.histogram_pairs = 2000;
  auto index = VaFileIndex::Build(w.data, w.bm.get(), opts);
  ASSERT_TRUE(index.ok());

  const uint64_t hits_before = w.bm->cache_hits();
  const uint64_t misses_before = w.bm->cache_misses();

  SearchParams params = Exact(10);
  params.num_threads = 4;
  ServingOptions options;
  options.concurrency = 4;
  ServingSession session(*index.value(), w.bm.get(), options);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    session.Submit(w.queries.series(q), params);
  }
  session.Finish();
  QueryCounters summed;
  while (std::optional<ServedQuery> served = session.Next()) {
    ASSERT_TRUE(served->answer.ok());
    summed += served->counters;
  }

  EXPECT_EQ(summed.cache_hits, w.bm->cache_hits() - hits_before);
  EXPECT_EQ(summed.cache_misses, w.bm->cache_misses() - misses_before);
  EXPECT_GT(summed.cache_hits + summed.cache_misses, 0u);
}

// --- Backpressure, ordering under adversarial completion, shutdown ---

// Test double whose Search blocks until the query (identified by its
// first value) is released; answers echo the query id. Thread-safe, so
// the scheduler may overlap calls.
class GatedIndex : public Index {
 public:
  std::string name() const override { return "gated"; }
  IndexCapabilities capabilities() const override { return {}; }
  size_t MemoryBytes() const override { return sizeof(*this); }

  Result<KnnAnswer> Search(std::span<const float> query,
                           const SearchParams& params,
                           QueryCounters* counters) const override {
    (void)params;
    (void)counters;
    const int id = static_cast<int>(query[0]);
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++started_;
      started_cv_.notify_all();
      started_order_.push_back(id);
      cv_.wait(lock, [&] { return released_.count(id) != 0; });
    }
    KnnAnswer ans;
    ans.ids.push_back(id);
    ans.distances.push_back(static_cast<double>(id));
    return ans;
  }

  void Release(int id) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_.insert(id);
    }
    cv_.notify_all();
  }

  void ReleaseAll(int up_to) {
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 0; i < up_to; ++i) released_.insert(i);
    cv_.notify_all();
  }

  // Blocks until `n` Search calls have started (i.e. were admitted).
  void AwaitStarted(int n) const {
    std::unique_lock<std::mutex> lock(mu_);
    started_cv_.wait(lock, [&] { return started_ >= n; });
  }

  int started() const {
    std::lock_guard<std::mutex> lock(mu_);
    return started_;
  }

  // The order Search calls began — the scheduler's actual dispatch
  // order, which the id-ordered completion stream deliberately hides.
  std::vector<int> started_order() const {
    std::lock_guard<std::mutex> lock(mu_);
    return started_order_;
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::condition_variable started_cv_;
  mutable std::set<int> released_;
  mutable int started_ = 0;
  mutable std::vector<int> started_order_;
};

std::vector<float> Query(int id) { return {static_cast<float>(id)}; }

TEST(Serving, CompletionStreamPreservesSubmissionOrder) {
  GatedIndex index;
  // A gated query parks its worker, so the pool must hold every admitted
  // query at once (the process-wide pool may have a single worker).
  ThreadPool pool(3);
  ServingOptions options;
  options.concurrency = 3;
  options.pool = &pool;
  QueryScheduler scheduler(index, options);
  for (int i = 0; i < 3; ++i) {
    std::vector<float> q = Query(i);
    scheduler.Submit(q, Exact(1));
  }
  scheduler.Finish();
  index.AwaitStarted(3);
  // Adversarial completion order: last first.
  index.Release(2);
  index.Release(1);
  index.Release(0);
  for (int i = 0; i < 3; ++i) {
    std::optional<ServedQuery> served = scheduler.Next();
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(served->ticket.id(), static_cast<uint64_t>(i));
    ASSERT_TRUE(served->answer.ok());
    EXPECT_EQ(served->answer.value().ids[0], i);
  }
  EXPECT_FALSE(scheduler.Next().has_value());
}

TEST(Serving, BoundedQueueExertsBackpressure) {
  GatedIndex index;
  ThreadPool pool(2);
  ServingOptions options;
  options.concurrency = 1;
  options.queue_capacity = 2;
  options.pool = &pool;
  QueryScheduler scheduler(index, options);

  // Query 0 is admitted (in flight); 1 and 2 fill the bounded queue.
  for (int i = 0; i < 3; ++i) {
    std::vector<float> q = Query(i);
    scheduler.Submit(q, Exact(1));
  }
  index.AwaitStarted(1);

  // The fourth submission must block until a slot frees up.
  std::atomic<bool> submitted{false};
  std::thread submitter([&] {
    std::vector<float> q = Query(3);
    scheduler.Submit(q, Exact(1));
    submitted.store(true);
  });
  // Wait for the observable "parked on backpressure" state instead of
  // sleeping and hoping the thread got there: a regression to unbounded
  // admission lets Submit() return immediately, submitted flips to true,
  // and blocked_submitters() never rises — the expectation below fails.
  while (scheduler.blocked_submitters() == 0 && !submitted.load()) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(submitted.load());
  EXPECT_EQ(scheduler.blocked_submitters(), 1u);

  // Completing query 0 admits query 1, freeing one queue slot: the
  // blocked submitter gets through.
  index.Release(0);
  submitter.join();
  EXPECT_TRUE(submitted.load());

  index.ReleaseAll(4);
  scheduler.Finish();
  int consumed = 0;
  while (scheduler.Next().has_value()) ++consumed;
  EXPECT_EQ(consumed, 4);
}

TEST(Serving, CleanShutdownWithQueriesInFlight) {
  GatedIndex index;
  ThreadPool pool(2);  // outlives the scheduler: its tasks reference it
  {
    ServingOptions options;
    options.concurrency = 2;
    options.queue_capacity = 4;
    options.pool = &pool;
    QueryScheduler scheduler(index, options);
    // 2 admitted + 4 queued.
    for (int i = 0; i < 6; ++i) {
      std::vector<float> q = Query(i);
      scheduler.Submit(q, Exact(1));
    }
    index.AwaitStarted(2);
    index.ReleaseAll(6);
    // Destructor: drains the admitted queries (their tasks reference the
    // scheduler), discards the queued ones, never touches freed state.
  }
  // Only the queries admitted before destruction began can have started;
  // the destructor dropped the rest. (Between 2 and 6 depending on how
  // fast completions re-admit — what matters is no hang and no race,
  // which TSan/ASan verify.)
  EXPECT_GE(index.started(), 2);
  EXPECT_LE(index.started(), 6);
}

TEST(Serving, ShutdownWakesBlockedSubmitter) {
  GatedIndex index;
  ThreadPool pool(2);
  std::thread submitter;
  {
    ServingOptions options;
    options.concurrency = 1;
    options.queue_capacity = 1;
    options.pool = &pool;
    QueryScheduler scheduler(index, options);
    std::vector<float> q0 = Query(0);
    std::vector<float> q1 = Query(1);
    scheduler.Submit(q0, Exact(1));  // admitted
    scheduler.Submit(q1, Exact(1));  // fills the bounded queue
    index.AwaitStarted(1);
    submitter = std::thread([&scheduler] {
      std::vector<float> q = Query(2);
      QueryTicket ticket = scheduler.Submit(q, Exact(1));  // blocks: queue full
      // Either a slot freed before shutdown began (real ticket) or the
      // destructor raced the wait and the drop is explicit — never a
      // fake ticket for a discarded query.
      EXPECT_TRUE(!ticket.valid() || ticket.id() == 2u);
    });
    // The destructor path under test needs the submitter actually parked
    // in Submit first; wait for that observable state, not a timer.
    while (scheduler.blocked_submitters() == 0) {
      std::this_thread::yield();
    }
    index.ReleaseAll(3);
    // Destructor: wakes the blocked submitter (its query is dropped) and
    // waits until it has left Submit before tearing down the mutex/cvs.
  }
  submitter.join();
}

TEST(Serving, FinishThenDrainYieldsEveryResult) {
  Workload w(/*n=*/500, /*len=*/32, /*num_queries=*/5);
  LinearScanIndex index(&w.provider);
  ServingOptions options;
  options.concurrency = 4;
  QueryScheduler scheduler(index, options);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    scheduler.Submit(w.queries.series(q), Exact(5));
  }
  scheduler.Finish();
  size_t drained = 0;
  while (scheduler.Next().has_value()) ++drained;
  EXPECT_EQ(drained, w.queries.size());
  EXPECT_FALSE(scheduler.Next().has_value());  // stays drained
}

// --- Error plumbing (ROADMAP): a pool exhausted beyond transient
// contention surfaces a typed error instead of silently skipping
// candidates. Since the fault-tolerance work the typed verdict is
// Unavailable ("every page is pinned" is a retryable caller-side
// condition — see BufferManager::PinSeriesChecked), distinct from the
// IoError a failing device earns after its retry budget. ---

TEST(Serving, ExhaustedPoolSurfacesTypedUnavailable) {
  DiskWorkload w(/*capacity_pages=*/2);
  ASSERT_NE(w.bm, nullptr);

  // Long-lived pins on both pages: every further fetch of another page
  // must fail after the admission retries.
  QueryCounters pin_counters;
  PinnedRun pin0 = w.bm->PinSeries(0, &pin_counters);
  PinnedRun pin1 = w.bm->PinSeries(16, &pin_counters);  // page 1
  ASSERT_FALSE(pin0.empty());
  ASSERT_FALSE(pin1.empty());

  // The scanner-level contract: ScanIds / ScanRange report the failure.
  AnswerSet answers(5);
  QueryCounters counters;
  LeafScanner scanner(w.queries.series(0), &answers, &counters);
  std::vector<int64_t> ids = {40, 41};  // page 2: not pinned, not pooled
  Result<size_t> scanned = scanner.ScanIds(w.bm.get(), ids);
  ASSERT_FALSE(scanned.ok());
  EXPECT_EQ(scanned.status().code(), StatusCode::kUnavailable);

  LeafScanner range_scanner(w.queries.series(0), &answers, &counters);
  Result<size_t> ranged = range_scanner.ScanRange(w.bm.get(), 40, 8);
  ASSERT_FALSE(ranged.ok());
  EXPECT_EQ(ranged.status().code(), StatusCode::kUnavailable);

  // The index-level contract: the whole search reports the typed error
  // rather than returning an answer missing candidates.
  LinearScanIndex index(w.bm.get());
  QueryCounters search_counters;
  Result<KnnAnswer> ans =
      index.Search(w.queries.series(0), Exact(5), &search_counters);
  ASSERT_FALSE(ans.ok());
  EXPECT_EQ(ans.status().code(), StatusCode::kUnavailable);

  // Once the pins are gone the same searches succeed again.
  pin0.Release();
  pin1.Release();
  Result<KnnAnswer> retry =
      index.Search(w.queries.series(0), Exact(5), &search_counters);
  EXPECT_TRUE(retry.ok());
}

// --- Query coalescing (ServingOptions::batch_window) ---
//
// The scheduler opportunistically pops up to batch_window queued queries
// into one Index::BatchSearch call. The serving contract is unchanged:
// ordered completion stream, per-query answers bit-identical to
// sequential execution, per-query counters that still sum to the pool's
// totals.

std::vector<KnnAnswer> ServeCoalesced(const Index& index,
                                      SeriesProvider* provider,
                                      const Dataset& queries,
                                      const SearchParams& params,
                                      size_t concurrency, size_t window) {
  ServingOptions options;
  options.concurrency = concurrency;
  options.batch_window = window;
  // A deep queue so submissions can actually pile up behind the
  // in-flight queries and give coalescing something to pop.
  options.queue_capacity = queries.size() + 1;
  ServingSession session(index, provider, options);
  for (size_t q = 0; q < queries.size(); ++q) {
    session.Submit(queries.series(q), params);
  }
  session.Finish();
  std::vector<KnnAnswer> answers;
  uint64_t expected_ticket = 0;
  while (std::optional<ServedQuery> served = session.Next()) {
    EXPECT_EQ(served->ticket.id(), expected_ticket++)
        << "batched completion stream out of submission order";
    EXPECT_TRUE(served->answer.ok())
        << index.name() << ": " << served->answer.status().ToString();
    answers.push_back(served->answer.ok() ? std::move(served->answer).value()
                                          : KnnAnswer{});
  }
  EXPECT_EQ(answers.size(), queries.size());
  return answers;
}

void CheckCoalescedDeterminism(const Index& index, SeriesProvider* provider,
                               const Dataset& queries,
                               const SearchParams& params) {
  std::vector<KnnAnswer> serial = Sequential(index, queries, params);
  for (size_t window : {2u, 4u, 8u}) {
    std::vector<KnnAnswer> served =
        ServeCoalesced(index, provider, queries, params, 2, window);
    ASSERT_EQ(served.size(), serial.size());
    for (size_t q = 0; q < serial.size(); ++q) {
      ExpectIdentical(serial[q], served[q],
                      index.name() + " window=" + std::to_string(window) +
                          ", query " + std::to_string(q));
    }
  }
}

TEST(ServingBatched, CoalescedServingMatchesSequentialLinearScanOnDisk) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  LinearScanIndex index(w.bm.get());
  CheckCoalescedDeterminism(index, w.bm.get(), w.queries, Exact(10));
}

TEST(ServingBatched, CoalescedServingMatchesSequentialDstreeOnDisk) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  DSTreeOptions opts;
  opts.leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = DSTreeIndex::Build(w.data, w.bm.get(), opts);
  ASSERT_TRUE(index.ok());
  CheckCoalescedDeterminism(*index.value(), w.bm.get(), w.queries, Exact(10));
}

TEST(ServingBatched, CoalescedServingMatchesSequentialVafileInMemory) {
  Workload w;
  VaFileOptions opts;
  opts.histogram_pairs = 2000;
  auto index = VaFileIndex::Build(w.data, &w.provider, opts);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index.value()->capabilities().batched_queries);
  CheckCoalescedDeterminism(*index.value(), &w.provider, w.queries,
                            Exact(10));
}

TEST(ServingBatched, CoalescedCountersSumToPoolTotals) {
  DiskWorkload w;
  ASSERT_NE(w.bm, nullptr);
  LinearScanIndex index(w.bm.get());

  const uint64_t hits_before = w.bm->cache_hits();
  const uint64_t misses_before = w.bm->cache_misses();

  ServingOptions options;
  options.concurrency = 2;
  options.batch_window = 4;
  options.queue_capacity = w.queries.size() + 1;
  ServingSession session(index, w.bm.get(), options);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    session.Submit(w.queries.series(q), Exact(10));
  }
  session.Finish();
  QueryCounters summed;
  while (std::optional<ServedQuery> served = session.Next()) {
    ASSERT_TRUE(served->answer.ok());
    summed += served->counters;
  }
  w.bm->DrainPrefetches();

  // Leader-charged shared fetches: whichever member is charged, the
  // members' sums must account for exactly the pool's activity.
  EXPECT_EQ(summed.cache_hits, w.bm->cache_hits() - hits_before);
  EXPECT_EQ(summed.cache_misses, w.bm->cache_misses() - misses_before);
  EXPECT_GT(summed.cache_misses, 0u);
  EXPECT_EQ(w.bm->PinnedPages(), 0u);
}

TEST(ServingBatched, WindowResolvesFromOptionsAndEnvironment) {
  Workload w;
  LinearScanIndex index(&w.provider);
  ASSERT_TRUE(index.capabilities().batched_queries);

  // The CI batch lane exports HYDRA_BATCH_WINDOW for the whole binary;
  // restore whatever was there so later suites keep their lane behavior.
  const char* prior = std::getenv("HYDRA_BATCH_WINDOW");
  const std::string saved = prior != nullptr ? prior : "";
  struct EnvRestore {
    bool had;
    std::string value;
    ~EnvRestore() {
      if (had) {
        ::setenv("HYDRA_BATCH_WINDOW", value.c_str(), 1);
      } else {
        ::unsetenv("HYDRA_BATCH_WINDOW");
      }
    }
  } restore{prior != nullptr, saved};

  // An explicit option wins.
  ServingOptions explicit_opts;
  explicit_opts.concurrency = 2;
  explicit_opts.batch_window = 6;
  ServingSession explicit_session(index, &w.provider, explicit_opts);
  EXPECT_EQ(explicit_session.batch_window(), 6u);

  // batch_window = 0 falls back to HYDRA_BATCH_WINDOW.
  ASSERT_EQ(::setenv("HYDRA_BATCH_WINDOW", "5", 1), 0);
  EXPECT_EQ(DefaultBatchWindow(), 5u);
  ServingOptions env_opts;
  env_opts.concurrency = 2;
  ServingSession env_session(index, &w.provider, env_opts);
  EXPECT_EQ(env_session.batch_window(), 5u);

  // Garbage env values fall back to 1 (off) instead of exploding.
  ASSERT_EQ(::setenv("HYDRA_BATCH_WINDOW", "banana", 1), 0);
  EXPECT_EQ(DefaultBatchWindow(), 1u);

  ASSERT_EQ(::unsetenv("HYDRA_BATCH_WINDOW"), 0);
  EXPECT_EQ(DefaultBatchWindow(), 1u);
  ServingSession off_session(index, &w.provider, env_opts);
  EXPECT_EQ(off_session.batch_window(), 1u);
}

// ADS+ refines its tree inside Search, so it must never see a
// multi-query call: the capability clamp pins its window to 1 no matter
// what was requested, and serving stays sequential and exact.
TEST(ServingBatched, AdsPlusExcludedFromCoalescing) {
  Workload w;
  AdsPlusOptions opts;
  opts.query_leaf_capacity = 256;
  opts.histogram_pairs = 2000;
  auto index = AdsPlusIndex::Build(w.data, &w.provider, opts);
  ASSERT_TRUE(index.ok());
  ASSERT_FALSE(index.value()->capabilities().concurrent_queries);

  ServingOptions options;
  options.concurrency = 8;
  options.batch_window = 8;
  options.queue_capacity = w.queries.size() + 1;
  ServingSession session(*index.value(), &w.provider, options);
  EXPECT_EQ(session.batch_window(), 1u);
  EXPECT_EQ(session.concurrency(), 1u);

  std::vector<KnnAnswer> gt = ExactKnnWorkload(w.data, w.queries, 10);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    session.Submit(w.queries.series(q), Exact(10));
  }
  session.Finish();
  size_t q = 0;
  while (std::optional<ServedQuery> served = session.Next()) {
    ASSERT_TRUE(served->answer.ok());
    ExpectIdentical(gt[q], served->answer.value(),
                    "adsplus coalescing-clamped query " + std::to_string(q));
    ++q;
  }
  EXPECT_EQ(q, w.queries.size());
  EXPECT_EQ(session.batches_served(), 0u);
  EXPECT_EQ(session.coalesced_queries(), 0u);
}

// Test double for deterministic coalescing observation: Search gates
// like GatedIndex (so a solo query can park and let the queue deepen),
// BatchSearch answers immediately and records every batch size it saw.
class BatchRecordingIndex : public Index {
 public:
  std::string name() const override { return "batch-recorder"; }
  IndexCapabilities capabilities() const override {
    IndexCapabilities caps;
    caps.exact = true;
    caps.concurrent_queries = true;
    caps.batched_queries = true;
    return caps;
  }
  size_t MemoryBytes() const override { return sizeof(*this); }

  Result<KnnAnswer> Search(std::span<const float> query,
                           const SearchParams& params,
                           QueryCounters* counters) const override {
    (void)params;
    (void)counters;
    const int id = static_cast<int>(query[0]);
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++started_;
      started_cv_.notify_all();
      cv_.wait(lock, [&] { return released_.count(id) != 0; });
    }
    return Echo(id);
  }

  std::vector<Result<KnnAnswer>> BatchSearch(
      std::span<const BatchQuery> batch) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      batch_sizes_.push_back(batch.size());
    }
    std::vector<Result<KnnAnswer>> results;
    results.reserve(batch.size());
    for (const BatchQuery& member : batch) {
      results.push_back(Echo(static_cast<int>(member.query[0])));
    }
    return results;
  }

  void Release(int id) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_.insert(id);
    }
    cv_.notify_all();
  }

  void AwaitStarted(int n) const {
    std::unique_lock<std::mutex> lock(mu_);
    started_cv_.wait(lock, [&] { return started_ >= n; });
  }

  int started() const {
    std::lock_guard<std::mutex> lock(mu_);
    return started_;
  }

  std::vector<size_t> batch_sizes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batch_sizes_;
  }

 private:
  static KnnAnswer Echo(int id) {
    KnnAnswer ans;
    ans.ids.push_back(id);
    ans.distances.push_back(static_cast<double>(id));
    return ans;
  }

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::condition_variable started_cv_;
  mutable std::set<int> released_;
  mutable int started_ = 0;
  mutable std::vector<size_t> batch_sizes_;
};

// The coalescing mechanics, deterministically: query 0 is admitted solo
// and parks its worker; seven more pile up behind it. When the slot
// frees, the scheduler pops window-sized batches — 4 then 3 — and the
// ordered stream still yields every ticket in submission order.
TEST(ServingBatched, OpportunisticCoalescingFormsBatchesUnderQueueDepth) {
  BatchRecordingIndex index;
  ThreadPool pool(2);
  ServingOptions options;
  options.concurrency = 1;
  options.batch_window = 4;
  options.queue_capacity = 16;
  options.pool = &pool;
  QueryScheduler scheduler(index, options);
  EXPECT_EQ(scheduler.batch_window(), 4u);

  std::vector<float> q0 = Query(0);
  scheduler.Submit(q0, Exact(1));
  index.AwaitStarted(1);  // parked solo; the in-flight slot is occupied
  for (int i = 1; i < 8; ++i) {
    std::vector<float> q = Query(i);
    scheduler.Submit(q, Exact(1));
  }
  index.Release(0);
  scheduler.Finish();

  for (int i = 0; i < 8; ++i) {
    std::optional<ServedQuery> served = scheduler.Next();
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(served->ticket.id(), static_cast<uint64_t>(i));
    ASSERT_TRUE(served->answer.ok());
    EXPECT_EQ(served->answer.value().ids[0], i);
  }
  EXPECT_FALSE(scheduler.Next().has_value());

  // Exactly one solo Search (the parked bootstrap query), then batches
  // of 4 and 3 — a lone queued query is never held back waiting for
  // company, and a full window is never exceeded.
  EXPECT_EQ(index.started(), 1);
  EXPECT_EQ(scheduler.batches_served(), 2u);
  EXPECT_EQ(scheduler.coalesced_queries(), 7u);
  const std::vector<size_t> expected_sizes = {4, 3};
  EXPECT_EQ(index.batch_sizes(), expected_sizes);
}

// A member whose deadline the queue already consumed degrades ALONE: it
// gets its typed DeadlineExceeded on the ordered stream without ever
// joining the index call, and the rest of the batch completes normally.
TEST(ServingBatched, ExpiredMemberDegradesAloneInBatch) {
  BatchRecordingIndex index;
  ThreadPool pool(2);
  ServingOptions options;
  options.concurrency = 1;
  options.batch_window = 4;
  options.queue_capacity = 16;
  options.pool = &pool;
  QueryScheduler scheduler(index, options);

  std::vector<float> q0 = Query(0);
  scheduler.Submit(q0, Exact(1));
  index.AwaitStarted(1);

  SearchParams doomed = Exact(1);
  doomed.deadline_ms = 1;  // will expire while parked behind query 0
  std::vector<float> q1 = Query(1);
  scheduler.Submit(q1, doomed);
  for (int i = 2; i < 4; ++i) {
    std::vector<float> q = Query(i);
    scheduler.Submit(q, Exact(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  index.Release(0);
  scheduler.Finish();

  std::optional<ServedQuery> first = scheduler.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->answer.ok());

  std::optional<ServedQuery> expired = scheduler.Next();
  ASSERT_TRUE(expired.has_value());
  EXPECT_EQ(expired->ticket.id(), 1u);
  ASSERT_FALSE(expired->answer.ok());
  EXPECT_EQ(expired->answer.status().code(), StatusCode::kDeadlineExceeded);

  for (int i = 2; i < 4; ++i) {
    std::optional<ServedQuery> served = scheduler.Next();
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(served->ticket.id(), static_cast<uint64_t>(i));
    ASSERT_TRUE(served->answer.ok());
    EXPECT_EQ(served->answer.value().ids[0], i);
  }
  EXPECT_FALSE(scheduler.Next().has_value());

  // The expired member never reached the index: the one batch the index
  // saw carried only the two live members.
  const std::vector<size_t> expected_sizes = {2};
  EXPECT_EQ(index.batch_sizes(), expected_sizes);
}

// --- Priority classes, per-tenant admission, typed tickets ---

// Queued queries dispatch strictly by priority class (interactive >
// normal > background), FIFO within a class; the completion stream stays
// in submission order regardless.
TEST(ServingTenants, PriorityClassesDispatchInOrder) {
  GatedIndex index;
  ThreadPool pool(2);
  ServingOptions options;
  options.concurrency = 1;
  options.queue_capacity = 8;
  options.pool = &pool;
  QueryScheduler scheduler(index, options);

  // Query 0 occupies the single slot; 1..3 queue in mixed classes.
  std::vector<float> q0 = Query(0);
  scheduler.Submit(q0, Exact(1));
  index.AwaitStarted(1);

  SubmitOptions background;
  background.priority = QueryPriority::kBackground;
  SubmitOptions interactive;
  interactive.priority = QueryPriority::kInteractive;
  std::vector<float> q1 = Query(1);
  scheduler.Submit(q1, Exact(1), background);
  std::vector<float> q2 = Query(2);
  scheduler.Submit(q2, Exact(1));  // normal
  std::vector<float> q3 = Query(3);
  scheduler.Submit(q3, Exact(1), interactive);

  // Each release frees the slot for the next dispatch decision.
  index.Release(0);
  index.AwaitStarted(2);
  index.Release(3);
  index.AwaitStarted(3);
  index.Release(2);
  index.AwaitStarted(4);
  index.Release(1);
  scheduler.Finish();

  // Dispatch order: the interactive latecomer jumped the queue, the
  // background query ran last.
  const std::vector<int> expected = {0, 3, 2, 1};
  EXPECT_EQ(index.started_order(), expected);

  // Completion stream: still submission order, with the ticket carrying
  // each query's class.
  for (int i = 0; i < 4; ++i) {
    std::optional<ServedQuery> served = scheduler.Next();
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(served->ticket.id(), static_cast<uint64_t>(i));
    ASSERT_TRUE(served->answer.ok());
    EXPECT_EQ(served->answer.value().ids[0], i);
  }
  EXPECT_FALSE(scheduler.Next().has_value());
  EXPECT_EQ(scheduler.Next(), std::nullopt);
}

// A tenant at its per-tenant queue cap blocks in Submit while other
// tenants keep flowing through the shared queue.
TEST(ServingTenants, TenantCapBlocksOnlyThatTenant) {
  GatedIndex index;
  ThreadPool pool(2);
  ServingOptions options;
  options.concurrency = 1;
  options.queue_capacity = 8;
  options.tenant_queue_capacity = 1;
  options.pool = &pool;
  QueryScheduler scheduler(index, options);

  SubmitOptions tenant_a;
  tenant_a.tenant = "a";
  SubmitOptions tenant_b;
  tenant_b.tenant = "b";

  std::vector<float> q0 = Query(0);
  scheduler.Submit(q0, Exact(1), tenant_a);  // admitted (in flight)
  index.AwaitStarted(1);
  std::vector<float> q1 = Query(1);
  scheduler.Submit(q1, Exact(1), tenant_a);  // fills tenant a's queue slot

  // Tenant a's next submission must park on ITS cap...
  std::atomic<bool> submitted{false};
  std::thread submitter([&] {
    std::vector<float> q = Query(2);
    scheduler.Submit(q, Exact(1), tenant_a);
    submitted.store(true);
  });
  while (scheduler.blocked_submitters() == 0 && !submitted.load()) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(submitted.load());
  EXPECT_EQ(scheduler.blocked_submitters(), 1u);

  // ...while tenant b sails through the shared queue unimpeded.
  std::vector<float> q3 = Query(3);
  QueryTicket b_ticket = scheduler.Submit(q3, Exact(1), tenant_b);
  EXPECT_TRUE(b_ticket.valid());
  EXPECT_EQ(b_ticket.tenant(), "b");
  EXPECT_EQ(scheduler.blocked_submitters(), 1u);

  // Query 0 completing dispatches query 1, freeing tenant a's slot: the
  // parked submitter gets through.
  index.Release(0);
  submitter.join();
  EXPECT_TRUE(submitted.load());

  index.ReleaseAll(4);
  scheduler.Finish();
  int consumed = 0;
  while (scheduler.Next().has_value()) ++consumed;
  EXPECT_EQ(consumed, 4);
}

// The typed ticket: identity at submit time, a pending placeholder while
// queued, the query's real terminal Status once served — readable even
// after the scheduler itself is gone.
TEST(ServingTenants, TicketCarriesIdentityAndTerminalStatus) {
  GatedIndex index;
  ThreadPool pool(2);
  QueryTicket ok_ticket;
  QueryTicket doomed_ticket;
  {
    ServingOptions options;
    options.concurrency = 1;
    options.queue_capacity = 4;
    options.pool = &pool;
    QueryScheduler scheduler(index, options);

    SubmitOptions submit;
    submit.tenant = "alice";
    submit.priority = QueryPriority::kInteractive;
    std::vector<float> q0 = Query(0);
    ok_ticket = scheduler.Submit(q0, Exact(1), submit);
    ASSERT_TRUE(ok_ticket.valid());
    EXPECT_EQ(ok_ticket.id(), 0u);
    EXPECT_EQ(ok_ticket.tenant(), "alice");
    EXPECT_EQ(ok_ticket.priority(), QueryPriority::kInteractive);
    index.AwaitStarted(1);

    // Parked behind query 0 with a deadline the queue will consume.
    SearchParams doomed = Exact(1);
    doomed.deadline_ms = 1;
    std::vector<float> q1 = Query(1);
    doomed_ticket = scheduler.Submit(q1, doomed);
    ASSERT_TRUE(doomed_ticket.valid());
    EXPECT_FALSE(doomed_ticket.done());
    EXPECT_EQ(doomed_ticket.status().code(), StatusCode::kUnavailable);

    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    index.Release(0);
    scheduler.Finish();
    while (scheduler.Next().has_value()) {
    }
  }
  // The scheduler is destroyed; the tickets remain truthful.
  EXPECT_TRUE(ok_ticket.done());
  EXPECT_TRUE(ok_ticket.status().ok());
  EXPECT_TRUE(doomed_ticket.done());
  EXPECT_EQ(doomed_ticket.status().code(), StatusCode::kDeadlineExceeded);
}

// --- Regression (net front-end groundwork): Submit after Finish must
// return an invalid ticket with a typed kUnavailable immediately — it
// must never block on the (closed) queue and never hand back a ticket
// that no result will ever resolve. ---

TEST(Serving, SubmitAfterFinishRefusedTypedNeverBlocks) {
  Workload w(/*n=*/500, /*len=*/32, /*num_queries=*/4);
  LinearScanIndex index(&w.provider);
  ServingOptions options;
  options.concurrency = 2;
  QueryScheduler scheduler(index, options);
  scheduler.Finish();
  QueryTicket late = scheduler.Submit(w.queries.series(0), Exact(5));
  EXPECT_FALSE(late.valid());
  EXPECT_FALSE(late.done());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(scheduler.Next().has_value());
}

// The racing flavor: submitters hammering a tiny bounded queue while
// Finish lands. Every Submit returns promptly — either a real ticket
// whose result is drainable, or an invalid one with the typed refusal.
// Accepted count must equal drained count exactly: no accepted query
// vanishes, no refused query produces a result.
TEST(Serving, FinishRacingSubmittersStayTypedAndAccountable) {
  Workload w(/*n=*/500, /*len=*/32, /*num_queries=*/8);
  LinearScanIndex index(&w.provider);
  ServingOptions options;
  options.concurrency = 2;
  options.queue_capacity = 2;
  QueryScheduler scheduler(index, options);
  std::atomic<size_t> accepted{0};
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = 0; i < 8; ++i) {
        QueryTicket ticket = scheduler.Submit(
            w.queries.series((t + i) % w.queries.size()), Exact(5));
        if (ticket.valid()) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else {
          EXPECT_EQ(ticket.status().code(), StatusCode::kUnavailable);
        }
      }
    });
  }
  scheduler.Finish();  // races the submitters
  for (std::thread& th : submitters) th.join();
  size_t drained = 0;
  while (scheduler.Next().has_value()) ++drained;
  EXPECT_EQ(drained, accepted.load());
}

// Destroying the scheduler with queries still parked in the admission
// queue resolves their tickets to a TERMINAL typed kUnavailable — a
// front-end polling ticket.done() sees every accepted query reach a
// final state even when the stream dies under it.
TEST(Serving, DestructorResolvesUndrainedTicketsTyped) {
  GatedIndex index;
  ThreadPool pool(2);
  QueryTicket queued;
  std::thread releaser;
  {
    ServingOptions options;
    options.concurrency = 1;
    options.queue_capacity = 2;
    options.pool = &pool;
    QueryScheduler scheduler(index, options);
    std::vector<float> q0 = Query(0);
    std::vector<float> q1 = Query(1);
    scheduler.Submit(q0, Exact(1));  // admitted, parked in the gate
    queued = scheduler.Submit(q1, Exact(1));  // waiting for admission
    ASSERT_TRUE(queued.valid());
    EXPECT_FALSE(queued.done());
    index.AwaitStarted(1);
    // The gate stays closed until the destructor has discarded the
    // queued submission (it marks that ticket done before it waits for
    // in-flight work); only then does query 0 get to finish and let the
    // destructor's in-flight wait return. The wait is bounded, so a
    // destructor that never resolves the ticket fails below, not hangs.
    releaser = std::thread([&index, &queued] {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!queued.done() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      index.ReleaseAll(2);
    });
    // Destructor: discards the never-admitted query, resolves its
    // ticket terminal-typed, sees the in-flight one out.
  }
  releaser.join();
  EXPECT_TRUE(queued.done());
  EXPECT_EQ(queued.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace hydra
