#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include "common/rng.h"
#include "core/generators.h"
#include "core/ground_truth.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "index/dstree/dstree.h"
#include "index/scan/linear_scan.h"
#include "storage/buffer_manager.h"
#include "storage/series_file.h"

namespace hydra {
namespace {

TEST(Table, AlignedTextHasHeaderRuleRows) {
  Table t({"method", "MAP"});
  t.AddRow({"dstree", "0.95"});
  t.AddRow({"isax2plus", "0.90"});
  std::string text = t.ToAlignedText();
  EXPECT_NE(text.find("method"), std::string::npos);
  EXPECT_NE(text.find("------"), std::string::npos);
  EXPECT_NE(text.find("isax2plus"), std::string::npos);
  // Four lines: header, rule, two rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(Table, CsvIsCommaSeparated) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatPercent(0.5, 1), "50.0%");
}

TEST(Harness, RunWorkloadScoresExactScanPerfectly) {
  Rng rng(1);
  Dataset data = MakeRandomWalk(200, 32, rng);
  Dataset queries = MakeNoiseQueries(data, 10, 0.2, rng);
  auto truth = ExactKnnWorkload(data, queries, 5);

  InMemoryProvider provider(&data);
  LinearScanIndex scan(&provider);
  SearchParams params;
  params.mode = SearchMode::kExact;
  params.k = 5;
  RunResult r = RunWorkload(scan, queries, truth, params, "exact");
  EXPECT_EQ(r.method, "scan");
  EXPECT_EQ(r.setting, "exact");
  EXPECT_EQ(r.num_queries, 10u);
  EXPECT_DOUBLE_EQ(r.accuracy.avg_recall, 1.0);
  EXPECT_DOUBLE_EQ(r.accuracy.map, 1.0);
  EXPECT_NEAR(r.accuracy.mre, 0.0, 1e-12);
  // A scan touches every series for every query.
  EXPECT_DOUBLE_EQ(r.DataAccessedFraction(data.size()), 1.0);
}

TEST(Harness, SweepProducesOnePointPerSetting) {
  Rng rng(2);
  Dataset data = MakeRandomWalk(300, 32, rng);
  Dataset queries = MakeNoiseQueries(data, 5, 0.2, rng);
  auto truth = ExactKnnWorkload(data, queries, 10);

  InMemoryProvider provider(&data);
  DSTreeOptions opts;
  opts.histogram_pairs = 200;
  auto index = DSTreeIndex::Build(data, &provider, opts);
  ASSERT_TRUE(index.ok());

  auto points = NgSweep(10, {1, 2, 4});
  auto results = RunSweep(*index.value(), queries, truth, points);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].setting, "nprobe=1");
  EXPECT_EQ(results[2].setting, "nprobe=4");
  // Accuracy is monotone (within tolerance) along the nprobe sweep.
  EXPECT_LE(results[0].accuracy.map, results[2].accuracy.map + 0.05);
}

TEST(Harness, EpsilonSweepSettingsEncodeParameters) {
  auto points = EpsilonSweep(1, {0.0, 2.0}, 0.9);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].params.mode, SearchMode::kDeltaEpsilon);
  EXPECT_DOUBLE_EQ(points[1].params.epsilon, 2.0);
  EXPECT_DOUBLE_EQ(points[0].params.delta, 0.9);
  EXPECT_NE(points[1].setting.find("eps=2.00"), std::string::npos);
}

TEST(Harness, RandomIosPerQueryAveragesCounters) {
  RunResult r;
  r.num_queries = 4;
  r.counters.random_ios = 12;
  EXPECT_DOUBLE_EQ(r.RandomIosPerQuery(), 3.0);
  RunResult empty;
  EXPECT_DOUBLE_EQ(empty.RandomIosPerQuery(), 0.0);
}

TEST(Harness, ThreadAndDepthPointsLabelTheirKnob) {
  SearchParams base;
  base.k = 3;
  auto threads = ThreadSweep(base, {1, 4});
  ASSERT_EQ(threads.size(), 2u);
  EXPECT_EQ(threads[1].setting, "threads=4");
  EXPECT_EQ(threads[1].params.num_threads, 4u);
  EXPECT_EQ(threads[1].params.k, 3u);
  auto depths = DepthSweep(base, {0, 16});
  ASSERT_EQ(depths.size(), 2u);
  EXPECT_EQ(depths[0].setting, "depth=0");
  // Depth 0 is forced off, not left unset: HYDRA_PREFETCH cannot leak
  // into the baseline.
  EXPECT_EQ(depths[0].params.prefetch_depth, SearchParams::kPrefetchOff);
  EXPECT_EQ(depths[1].params.prefetch_depth, 16u);
}

// An exact in-memory scan: the workload every runner test below serves.
struct ScanWorkload {
  Dataset data;
  Dataset queries;
  std::vector<KnnAnswer> truth;
  InMemoryProvider provider;
  LinearScanIndex scan;
  SearchParams params;

  ScanWorkload()
      : data([] {
          Rng rng(3);
          return MakeRandomWalk(240, 32, rng);  // 15 pages of 16
        }()),
        queries([this] {
          Rng rng(4);
          return MakeNoiseQueries(data, 8, 0.2, rng);
        }()),
        truth(ExactKnnWorkload(data, queries, 5)),
        provider(&data),
        scan(&provider) {
    params.mode = SearchMode::kExact;
    params.k = 5;
  }
};

TEST(Harness, SweepComparesEveryRowAgainstTheFirst) {
  ScanWorkload w;
  auto rows = RunSweep(w.scan, w.queries, w.truth,
                       ThreadSweep(w.params, {1, 2, 4}));
  ASSERT_EQ(rows.size(), 3u);
  for (const RunResult& r : rows) {
    EXPECT_TRUE(r.matches_serial) << r.setting;
    EXPECT_DOUBLE_EQ(r.accuracy.avg_recall, 1.0) << r.setting;
    EXPECT_EQ(r.answers.size(), w.queries.size());
  }
  if (rows[0].timing.total_seconds > 0.0) {
    EXPECT_DOUBLE_EQ(rows[0].speedup, 1.0);
  }
  // A row whose answers differ from the baseline's reads NO.
  RunResult changed = rows[1];
  changed.answers[0].distances[0] += 1.0;
  CompareToBaseline(rows[0], &changed);
  EXPECT_FALSE(changed.matches_serial);
  Table table = SerialTable(rows, w.data.size());
  EXPECT_NE(table.ToCsv().find(",threads=4,"), std::string::npos);
}

TEST(Harness, ClosedAndOpenLoopServeEveryQueryExactly) {
  ScanWorkload w;
  const std::vector<KnnAnswer> reference =
      SerialAnswers(w.scan, w.queries, w.params);
  const ServingBackendFactory factory =
      LocalBackendFactory(w.scan, &w.provider);
  const size_t n = w.queries.size();

  LoadResult base =
      RunLoad(factory, w.queries, w.truth, w.params, reference, {});
  LoadResult four = RunLoad(factory, w.queries, w.truth, w.params, reference,
                            {.concurrency = 4});
  CompareToBaseline(base, &four);
  // The open loop cycles the workload twice at a fixed arrival rate.
  LoadResult open = RunLoad(factory, w.queries, w.truth, w.params, reference,
                            {.concurrency = 2, .rate = 400.0, .total = 2 * n});
  for (const LoadResult* r : {&base, &four, &open}) {
    SCOPED_TRACE(r->setting);
    EXPECT_EQ(r->completions, r->num_queries);
    EXPECT_EQ(r->ok, r->num_queries);
    EXPECT_EQ(r->errors + r->timeouts, 0u);
    EXPECT_DOUBLE_EQ(r->accuracy.avg_recall, 1.0);
    EXPECT_TRUE(r->matches_serial);
    EXPECT_DOUBLE_EQ(r->availability, 1.0);
  }
  EXPECT_EQ(base.num_queries, n);
  EXPECT_EQ(four.setting, "concurrency=4");
  EXPECT_EQ(open.num_queries, 2 * n);
  EXPECT_DOUBLE_EQ(open.offered_qps, 400.0);
  // 16 arrivals 2.5 ms apart: the run spans at least the schedule.
  EXPECT_GE(open.wall_seconds, 15 * 0.0025);
  Table table = LoadTable({base, four, open});
  EXPECT_EQ(table.ToCsv().find("NO"), std::string::npos);
}

TEST(Harness, NullFactoryGivesAnAllErrorRow) {
  ScanWorkload w;
  const ServingBackendFactory refused =
      [](const ServingOptions&) -> std::unique_ptr<ServingBackend> {
    return nullptr;
  };
  LoadResult r = RunLoad(refused, w.queries, w.truth, w.params,
                         SerialAnswers(w.scan, w.queries, w.params),
                         {.concurrency = 2});
  EXPECT_EQ(r.num_queries, w.queries.size());
  EXPECT_EQ(r.errors, w.queries.size());
  EXPECT_EQ(r.completions, 0u);
  EXPECT_FALSE(r.matches_serial);
  EXPECT_NE(LoadTable({r}).ToCsv().find(",NO\n"), std::string::npos);
}

// Forwards to a real backend but moves the first OK answer's nearest
// distance by one ULP — the smallest change the determinism column must
// still catch.
class OneUlpBackend : public ServingBackend {
 public:
  explicit OneUlpBackend(std::unique_ptr<ServingBackend> inner)
      : inner_(std::move(inner)) {}
  QueryTicket Submit(std::span<const float> query,
                     const SearchParams& params) override {
    return inner_->Submit(query, params);
  }
  std::optional<ServedQuery> Next() override {
    std::optional<ServedQuery> served = inner_->Next();
    if (served.has_value() && served->answer.ok() && !changed_) {
      double& d = served->answer.value().distances[0];
      d = std::nextafter(d, INFINITY);
      changed_ = true;
    }
    return served;
  }
  void Finish() override { inner_->Finish(); }
  ServingStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<ServingBackend> inner_;
  bool changed_ = false;
};

TEST(Harness, OneUlpDifferenceFailsMatchSerial) {
  ScanWorkload w;
  const ServingBackendFactory local = LocalBackendFactory(w.scan, &w.provider);
  const ServingBackendFactory perturbed = [&](const ServingOptions& options)
      -> std::unique_ptr<ServingBackend> {
    return std::make_unique<OneUlpBackend>(local(options));
  };
  LoadResult r = RunLoad(perturbed, w.queries, w.truth, w.params,
                         SerialAnswers(w.scan, w.queries, w.params), {});
  EXPECT_EQ(r.ok, w.queries.size());
  // Recall only compares ids; the determinism column sees the bits.
  EXPECT_DOUBLE_EQ(r.accuracy.avg_recall, 1.0);
  EXPECT_FALSE(r.matches_serial);
}

// A cold serial row drops the pool before every query, so each query
// pays the same misses as one query against an empty pool; without the
// drop the pool (which holds the whole file) serves them from memory.
TEST(Harness, ColdRowDropsThePoolBeforeEachQuery) {
  ScanWorkload w;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("hydra_harness_cold_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "data.hsf").string();
  ASSERT_TRUE(WriteSeriesFile(path, w.data).ok());
  auto opened = BufferManager::Open(path, /*page_series=*/16,
                                    /*capacity_pages=*/16);
  ASSERT_TRUE(opened.ok());
  BufferManager* pool = opened.value().get();
  LinearScanIndex scan(pool);
  SearchParams params = w.params;
  params.prefetch_depth = SearchParams::kPrefetchOff;

  pool->DropCache();
  QueryCounters one;
  ASSERT_TRUE(scan.Search(w.queries.series(0), params, &one).ok());
  ASSERT_GT(one.cache_misses, 0u);

  RunResult cold = RunWorkload(scan, w.queries, w.truth, params, "cold", pool);
  EXPECT_EQ(cold.counters.cache_misses,
            w.queries.size() * one.cache_misses);
  EXPECT_DOUBLE_EQ(cold.accuracy.avg_recall, 1.0);
  RunResult warm = RunWorkload(scan, w.queries, w.truth, params, "warm");
  EXPECT_EQ(warm.counters.cache_misses, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hydra
