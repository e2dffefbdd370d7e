// Determinism and failure-isolation contract of scatter-gather serving
// (index/sharded/sharded_index.h): a dataset partitioned across S shards
// must answer every exact query bit-identically to one unsharded index —
// same ids, same distances — for both partitioning schemes, at every
// shard count x serving concurrency, in memory and on disk; the merge
// must survive the degenerate topologies (k larger than any shard's
// population, shards with no series at all); and a failing shard must
// degrade its query to a typed error without poisoning sibling shards or
// later queries. The CI shard lane runs this suite under TSan and with
// chaos fault rates layered on top.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/rng.h"
#include "core/generators.h"
#include "exec/query_scheduler.h"
#include "index/factory.h"
#include "index/sharded/sharded_index.h"
#include "storage/buffer_manager.h"
#include "storage/fault_injector.h"
#include "storage/series_file.h"
#include "transform/znorm.h"

namespace hydra {
namespace {

constexpr size_t kShardCounts[] = {1, 2, 4, 8};

std::vector<size_t> ConcurrencyLevels() {
  std::vector<size_t> levels = {1, 4, 8};
  for (size_t extra : ParseCountList(std::getenv("HYDRA_CONCURRENCY"), {})) {
    if (extra > 0 &&
        std::find(levels.begin(), levels.end(), extra) == levels.end()) {
      levels.push_back(extra);
    }
  }
  return levels;
}

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

// A scratch directory for disk-resident shard files, removed on exit.
struct ShardDir {
  std::filesystem::path dir;
  ShardDir() {
    static std::atomic<int> counter{0};
    dir = std::filesystem::temp_directory_path() /
          ("hydra_sharded_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(dir);
  }
  ~ShardDir() { std::filesystem::remove_all(dir); }
};

SearchParams Exact(size_t k = 10) {
  SearchParams p;
  p.mode = SearchMode::kExact;
  p.k = k;
  return p;
}

void ExpectIdentical(const KnnAnswer& expected, const KnnAnswer& actual,
                     const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected.ids[i], actual.ids[i]) << label << " rank " << i;
    EXPECT_EQ(expected.distances[i], actual.distances[i])
        << label << " rank " << i;
  }
}

// The unsharded reference: one index over the whole collection, queried
// one at a time — the repo's ground-truth serving protocol.
std::vector<KnnAnswer> UnshardedReference(const Workload& w,
                                          const BuildOptions& build,
                                          const SearchParams& params) {
  InMemoryProvider provider(&w.data);
  auto index = BuildIndex(w.data, &provider, build);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  std::vector<KnnAnswer> answers;
  for (size_t q = 0; q < w.queries.size(); ++q) {
    QueryCounters counters;
    auto ans =
        index.value()->Search(w.queries.series(q), params, &counters);
    EXPECT_TRUE(ans.ok()) << ans.status().ToString();
    answers.push_back(ans.ok() ? std::move(ans).value() : KnnAnswer{});
  }
  return answers;
}

// Serves the workload through a ServingSession at `concurrency` and
// returns the ordered completion stream's answers.
std::vector<KnnAnswer> Serve(const Index& index, const Dataset& queries,
                             const SearchParams& params, size_t concurrency) {
  ServingOptions options;
  options.concurrency = concurrency;
  ServingSession session(index, /*provider=*/nullptr, options);
  for (size_t q = 0; q < queries.size(); ++q) {
    session.Submit(queries.series(q), params);
  }
  session.Finish();
  std::vector<KnnAnswer> answers;
  while (std::optional<ServedQuery> served = session.Next()) {
    EXPECT_TRUE(served->answer.ok())
        << index.name() << ": " << served->answer.status().ToString();
    answers.push_back(served->answer.ok() ? std::move(served->answer).value()
                                          : KnnAnswer{});
  }
  EXPECT_EQ(answers.size(), queries.size());
  return answers;
}

// --- Partitioning algebra ---

TEST(ShardPartitioning, RoundTripBothSchemes) {
  for (PartitionScheme scheme :
       {PartitionScheme::kRoundRobin, PartitionScheme::kRange}) {
    for (size_t n : {0u, 1u, 5u, 40u, 1000u, 1003u}) {
      for (size_t s : {1u, 2u, 3u, 8u, 13u}) {
        ShardPartitioning parts(scheme, n, s);
        // Sizes cover the collection exactly, balanced to within one
        // (round-robin) or the range split's floor arithmetic.
        size_t total = 0;
        for (size_t shard = 0; shard < s; ++shard) {
          total += parts.ShardSize(shard);
        }
        EXPECT_EQ(total, n) << "scheme=" << static_cast<int>(scheme)
                            << " n=" << n << " s=" << s;
        // Every global id survives the shard/local round trip, and local
        // ids are dense [0, ShardSize) per shard.
        std::vector<size_t> next_local(s, 0);
        for (size_t g = 0; g < n; ++g) {
          const size_t shard = parts.ShardOf(static_cast<int64_t>(g));
          ASSERT_LT(shard, s);
          const int64_t local = parts.LocalId(static_cast<int64_t>(g));
          EXPECT_EQ(parts.GlobalId(shard, local), static_cast<int64_t>(g));
          if (scheme == PartitionScheme::kRange) {
            // Range shards see their ids in increasing, dense order.
            EXPECT_EQ(static_cast<size_t>(local), next_local[shard]);
          }
          ++next_local[shard];
          ASSERT_LE(next_local[shard], parts.ShardSize(shard));
        }
      }
    }
  }
}

TEST(ShardPartitioning, PartitionCopiesBitsVerbatim) {
  Workload w(/*n=*/103, /*len=*/32, /*num_queries=*/1);
  for (PartitionScheme scheme :
       {PartitionScheme::kRoundRobin, PartitionScheme::kRange}) {
    ShardPartitioning parts(scheme, w.data.size(), 4);
    std::vector<Dataset> shards = PartitionDataset(w.data, parts);
    ASSERT_EQ(shards.size(), 4u);
    for (size_t s = 0; s < shards.size(); ++s) {
      ASSERT_EQ(shards[s].size(), parts.ShardSize(s));
      for (size_t l = 0; l < shards[s].size(); ++l) {
        std::span<const float> local = shards[s].series(l);
        std::span<const float> global =
            w.data.series(static_cast<size_t>(parts.GlobalId(s, l)));
        ASSERT_EQ(local.size(), global.size());
        for (size_t i = 0; i < local.size(); ++i) {
          EXPECT_EQ(local[i], global[i]) << "shard " << s << " local " << l;
        }
      }
    }
  }
}

// --- Bit-identical answers across topologies ---

// One shard IS the unsharded index plus a pass-through merge: the
// answers must match bitwise, which pins the merge path itself (not just
// the multi-shard algebra) to the serial protocol.
TEST(ShardedDeterminism, OneShardMatchesUnsharded) {
  Workload w;
  BuildOptions build;
  build.method = "scan";
  const SearchParams params = Exact(10);
  std::vector<KnnAnswer> reference = UnshardedReference(w, build, params);

  ShardedIndexOptions topo;
  topo.num_shards = 1;
  topo.build = build;
  auto sharded = ShardedIndex::Build(w.data, topo);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  for (size_t q = 0; q < w.queries.size(); ++q) {
    QueryCounters counters;
    auto ans =
        sharded.value()->Search(w.queries.series(q), params, &counters);
    ASSERT_TRUE(ans.ok()) << ans.status().ToString();
    ExpectIdentical(reference[q], ans.value(),
                    "1 shard, query " + std::to_string(q));
  }
}

// Shard counts {1,2,4,8} x concurrency {1,4,8}, both schemes, in memory:
// every served answer must be bit-identical to the unsharded serial
// reference.
TEST(ShardedDeterminism, InMemoryAcrossTopologiesAndConcurrency) {
  Workload w;
  BuildOptions build;
  build.method = "scan";
  const SearchParams params = Exact(10);
  std::vector<KnnAnswer> reference = UnshardedReference(w, build, params);

  for (PartitionScheme scheme :
       {PartitionScheme::kRoundRobin, PartitionScheme::kRange}) {
    for (size_t shards : kShardCounts) {
      ShardedIndexOptions topo;
      topo.num_shards = shards;
      topo.scheme = scheme;
      topo.build = build;
      auto sharded = ShardedIndex::Build(w.data, topo);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      for (size_t concurrency : ConcurrencyLevels()) {
        std::vector<KnnAnswer> served =
            Serve(*sharded.value(), w.queries, params, concurrency);
        ASSERT_EQ(served.size(), reference.size());
        for (size_t q = 0; q < reference.size(); ++q) {
          ExpectIdentical(
              reference[q], served[q],
              sharded.value()->name() + " scheme=" +
                  (scheme == PartitionScheme::kRange ? "range" : "rr") +
                  " concurrency=" + std::to_string(concurrency) + " query " +
                  std::to_string(q));
        }
      }
    }
  }
}

// Disk-resident shards (per-shard files + pools) through the serving
// session: the scatter adds per-shard page pools and real I/O to the
// interleaving, and the answers still cannot move.
TEST(ShardedDeterminism, OnDiskAcrossTopologiesAndConcurrency) {
  Workload w;
  ShardDir scratch;
  BuildOptions build;
  build.method = "scan";
  const SearchParams params = Exact(10);
  std::vector<KnnAnswer> reference = UnshardedReference(w, build, params);

  for (size_t shards : kShardCounts) {
    ShardedIndexOptions topo;
    topo.num_shards = shards;
    topo.build = build;
    topo.storage_dir =
        (scratch.dir / ("x" + std::to_string(shards))).string();
    std::filesystem::create_directories(topo.storage_dir);
    auto sharded = ShardedIndex::Build(w.data, topo);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    for (size_t concurrency : ConcurrencyLevels()) {
      std::vector<KnnAnswer> served =
          Serve(*sharded.value(), w.queries, params, concurrency);
      ASSERT_EQ(served.size(), reference.size());
      for (size_t q = 0; q < reference.size(); ++q) {
        ExpectIdentical(reference[q], served[q],
                        sharded.value()->name() + " disk concurrency=" +
                            std::to_string(concurrency) + " query " +
                            std::to_string(q));
      }
    }
  }
}

// A tree method through the same scatter: the per-shard indexes prune
// differently than one global tree would, but exact answers may not.
TEST(ShardedDeterminism, DstreeShardsMatchUnsharded) {
  Workload w;
  BuildOptions build;
  build.method = "dstree";
  build.leaf_capacity = 256;
  build.histogram_pairs = 2000;
  const SearchParams params = Exact(10);
  std::vector<KnnAnswer> reference = UnshardedReference(w, build, params);

  ShardedIndexOptions topo;
  topo.num_shards = 4;
  topo.build = build;
  auto sharded = ShardedIndex::Build(w.data, topo);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  for (size_t q = 0; q < w.queries.size(); ++q) {
    auto ans = sharded.value()->Search(w.queries.series(q), params, nullptr);
    ASSERT_TRUE(ans.ok()) << ans.status().ToString();
    ExpectIdentical(reference[q], ans.value(),
                    "dstree x4, query " + std::to_string(q));
  }
}

// --- Merge edges ---

// k larger than ANY shard's population: every shard contributes its
// whole partition and the merge still assembles the exact global top-k.
TEST(ShardedMergeEdges, KLargerThanShardPopulation) {
  Workload w(/*n=*/40, /*len=*/32, /*num_queries=*/6);
  BuildOptions build;
  build.method = "scan";
  const SearchParams params = Exact(/*k=*/20);  // shards hold 5 series each
  std::vector<KnnAnswer> reference = UnshardedReference(w, build, params);

  ShardedIndexOptions topo;
  topo.num_shards = 8;
  topo.build = build;
  auto sharded = ShardedIndex::Build(w.data, topo);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  for (size_t q = 0; q < w.queries.size(); ++q) {
    auto ans = sharded.value()->Search(w.queries.series(q), params, nullptr);
    ASSERT_TRUE(ans.ok()) << ans.status().ToString();
    ASSERT_EQ(ans.value().size(), 20u);
    ExpectIdentical(reference[q], ans.value(),
                    "k=20 over 8x5, query " + std::to_string(q));
  }
}

// More shards than series: the surplus shards are empty (no index at
// all) and must be invisible — the scatter skips them, the merge sees
// zero candidates, and the k > N answer is the whole collection.
TEST(ShardedMergeEdges, EmptyShards) {
  Workload w(/*n=*/5, /*len=*/32, /*num_queries=*/4);
  BuildOptions build;
  build.method = "scan";
  const SearchParams params = Exact(/*k=*/10);
  std::vector<KnnAnswer> reference = UnshardedReference(w, build, params);

  ShardedIndexOptions topo;
  topo.num_shards = 8;
  topo.build = build;
  auto sharded = ShardedIndex::Build(w.data, topo);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded.value()->num_shards(), 8u);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    auto ans = sharded.value()->Search(w.queries.series(q), params, nullptr);
    ASSERT_TRUE(ans.ok()) << ans.status().ToString();
    ASSERT_EQ(ans.value().size(), 5u);  // every series the collection has
    ExpectIdentical(reference[q], ans.value(),
                    "5 series over 8 shards, query " + std::to_string(q));
  }
}

// Zero series at all: an empty answer, not an error.
TEST(ShardedMergeEdges, EmptyCollection) {
  Dataset empty(0, 32);
  BuildOptions build;
  build.method = "scan";
  ShardedIndexOptions topo;
  topo.num_shards = 4;
  topo.build = build;
  auto sharded = ShardedIndex::Build(empty, topo);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  std::vector<float> query(32, 0.0f);
  auto ans = sharded.value()->Search(query, Exact(3), nullptr);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_EQ(ans.value().size(), 0u);
}

// --- Batched scatter-gather ---

TEST(ShardedBatch, BatchedMatchesPerQuery) {
  Workload w;
  BuildOptions build;
  build.method = "scan";
  const SearchParams params = Exact(10);
  std::vector<KnnAnswer> reference = UnshardedReference(w, build, params);

  ShardedIndexOptions topo;
  topo.num_shards = 4;
  topo.build = build;
  auto sharded = ShardedIndex::Build(w.data, topo);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  std::vector<QueryCounters> counters(w.queries.size());
  std::vector<BatchQuery> batch(w.queries.size());
  for (size_t q = 0; q < w.queries.size(); ++q) {
    batch[q].query = w.queries.series(q);
    batch[q].params = params;
    batch[q].counters = &counters[q];
  }
  std::vector<Result<KnnAnswer>> answers =
      sharded.value()->BatchSearch(batch);
  ASSERT_EQ(answers.size(), w.queries.size());
  QueryCounters summed;
  for (size_t q = 0; q < answers.size(); ++q) {
    ASSERT_TRUE(answers[q].ok()) << answers[q].status().ToString();
    ExpectIdentical(reference[q], answers[q].value(),
                    "batched x4, query " + std::to_string(q));
    summed += counters[q];
  }
  // The scatter charged the batch's real work through the members'
  // sinks (a shared scan may attribute its one pass batch-wide rather
  // than per member, so the sum is the stable contract).
  EXPECT_GT(summed.series_accessed, 0u);
}

// --- Failure isolation ---

// A permanently failing shard degrades the query to its typed Status —
// never a silently partial answer — while sibling shards stay healthy:
// healing the failed shard's pool makes the SAME index serve
// bit-identical exact answers again.
TEST(ShardedFailures, FailedShardDegradesQueryThenHeals) {
  Workload w;
  ShardDir scratch;
  BuildOptions build;
  build.method = "scan";
  const SearchParams params = Exact(10);
  std::vector<KnnAnswer> reference = UnshardedReference(w, build, params);

  ShardedIndexOptions topo;
  topo.num_shards = 4;
  topo.build = build;
  // A pool smaller than the shard (500 series / 16 per page = 32 pages
  // vs 8 frames): every query must actually read through the injector —
  // a comfortable pool would cache the whole shard during the sanity
  // pass and never see the armed faults.
  topo.build.capacity_pages = 8;
  topo.storage_dir = scratch.dir.string();
  auto sharded = ShardedIndex::Build(w.data, topo);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  // Sanity: healthy fleet serves the reference.
  for (size_t q = 0; q < w.queries.size(); ++q) {
    auto ans = sharded.value()->Search(w.queries.series(q), params, nullptr);
    ASSERT_TRUE(ans.ok());
    ExpectIdentical(reference[q], ans.value(),
                    "pre-fault query " + std::to_string(q));
  }

  // Kill shard 2's storage: every read from its pool fails permanently.
  FaultConfig faults;
  faults.seed = 42;
  faults.permanent_rate = 1.0;
  ASSERT_NE(sharded.value()->shard_pool(2), nullptr);
  sharded.value()->shard_pool(2)->set_fault_config(faults);

  for (size_t q = 0; q < w.queries.size(); ++q) {
    auto ans = sharded.value()->Search(w.queries.series(q), params, nullptr);
    // Typed degradation: an error Status, not a partial top-k.
    ASSERT_FALSE(ans.ok()) << "query " << q
                           << " silently served without shard 2";
    EXPECT_NE(ans.status().code(), StatusCode::kOk);
  }

  // Heal the shard; the same index must serve exact answers again — the
  // failure left no poisoned state in the sibling shards or the merge.
  sharded.value()->shard_pool(2)->set_fault_config(FaultConfig{});
  for (size_t q = 0; q < w.queries.size(); ++q) {
    auto ans = sharded.value()->Search(w.queries.series(q), params, nullptr);
    ASSERT_TRUE(ans.ok()) << ans.status().ToString();
    ExpectIdentical(reference[q], ans.value(),
                    "post-heal query " + std::to_string(q));
  }
}

// Mid-stream failure under concurrent serving: queries racing with the
// fault see a typed error or a correct answer — nothing in between —
// and the serving session survives to drain every ticket.
TEST(ShardedFailures, MidStreamFailureUnderConcurrency) {
  Workload w;
  ShardDir scratch;
  BuildOptions build;
  build.method = "scan";
  const SearchParams params = Exact(10);
  std::vector<KnnAnswer> reference = UnshardedReference(w, build, params);

  ShardedIndexOptions topo;
  topo.num_shards = 4;
  topo.build = build;
  topo.build.capacity_pages = 8;  // smaller than the shard: reads stay real
  topo.storage_dir = scratch.dir.string();
  auto sharded = ShardedIndex::Build(w.data, topo);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  FaultConfig faults;
  faults.seed = 7;
  faults.permanent_rate = 1.0;

  ServingOptions options;
  options.concurrency = 4;
  ServingSession session(*sharded.value(), /*provider=*/nullptr, options);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    if (q == w.queries.size() / 2) {
      sharded.value()->shard_pool(1)->set_fault_config(faults);
    }
    session.Submit(w.queries.series(q % w.queries.size()), params);
  }
  session.Finish();
  size_t drained = 0;
  while (std::optional<ServedQuery> served = session.Next()) {
    const size_t q = drained++;
    if (served->answer.ok()) {
      ExpectIdentical(reference[q % reference.size()],
                      served->answer.value(),
                      "racing query " + std::to_string(q));
    } else {
      EXPECT_NE(served->answer.status().code(), StatusCode::kOk);
    }
  }
  EXPECT_EQ(drained, w.queries.size());
}

}  // namespace
}  // namespace hydra
