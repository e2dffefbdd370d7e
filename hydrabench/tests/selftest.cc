// Self-test of the benchmark's own helpers and decorators:
//   - the percentile helper withholds p99 without ten samples beyond it;
//   - the recall helper matches hand-worked cases;
//   - the early-abandoning reference k-NN equals a full brute force;
//   - a run through both decorators returns the same answers and the
//     same QueryCounters as an undecorated run, in memory and on disk.
// The workloads themselves are exercised end to end, through the
// benchmark binary and its printed result, by tests/test_output.py.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "index/factory.h"
#include "inputs.h"
#include "stats.h"
#include "storage/buffer_manager.h"
#include "storage/series_file.h"
#include "trace.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                 \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,   \
                   __LINE__, #cond);                                \
      ++failures;                                                   \
    }                                                               \
  } while (0)

using hydrabench::LogHistogram;
using hydrabench::Percentile;
using hydrabench::RecallAt;

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentile() {
  // 1000 samples: rank 990, and 991..1000 are ten samples beyond it.
  std::vector<double> thousand = OneTo(1000);
  auto p99 = Percentile(thousand, 0.99);
  CHECK(p99.has_value() && *p99 == 990.0);
  // 999 samples: rank ceil(989.01) = 990, only nine beyond: withheld.
  std::vector<double> short_of = OneTo(999);
  CHECK(!Percentile(short_of, 0.99).has_value());
  std::vector<double> five = OneTo(5);
  CHECK(!Percentile(five, 0.50).has_value());  // two beyond, not ten
  auto p50 = Percentile(five, 0.50, 2);
  CHECK(p50.has_value() && *p50 == 3.0);
  std::vector<double> empty;
  CHECK(!Percentile(empty, 0.50).has_value());

  LogHistogram h;
  for (uint64_t ns = 1; ns <= 100000; ++ns) h.Add(ns);
  auto q99 = h.Quantile(0.99);
  CHECK(q99.has_value() && std::fabs(*q99 - 99000.0) / 99000.0 < 0.02);
  auto q50 = h.Quantile(0.50);
  CHECK(q50.has_value() && std::fabs(*q50 - 50000.0) / 50000.0 < 0.02);
  LogHistogram few;
  for (uint64_t ns = 1; ns <= 999; ++ns) few.Add(ns);
  CHECK(!few.Quantile(0.99).has_value());
  LogHistogram exact;
  for (uint64_t ns = 0; ns < 1000; ++ns) exact.Add(7);
  CHECK(exact.Quantile(0.99) == 7.0);  // values below 32 are exact
}

void TestRecall() {
  CHECK(RecallAt({1, 2, 3, 4}, {1, 2, 3, 4}, 4) == 1.0);
  CHECK(RecallAt({1, 2, 3, 4}, {4, 3, 2, 1}, 4) == 1.0);  // order-free
  CHECK(RecallAt({1, 2, 3, 4}, {1, 2, 5, 6}, 4) == 0.5);
  CHECK(RecallAt({1, 2, 3, 4}, {1}, 4) == 0.25);          // short answer
  CHECK(RecallAt({1, 2, 3, 4}, {1, 1, 1, 1}, 4) == 0.25);  // duplicates
  CHECK(RecallAt({1, 2}, {3, 1, 2}, 2) == 0.5);  // only the first k count
  CHECK(RecallAt({1, 2, 3}, {}, 3) == 0.0);
}

void TestReference() {
  const size_t n = 500;
  const size_t length = 70;  // not a multiple of 4 or of 32
  const size_t k = 5;
  const std::vector<float> data = hydrabench::RandomWalks(n, length, 3, 1);
  const std::vector<float> queries = hydrabench::RandomWalks(7, length, 3, 2);
  const std::vector<hydrabench::Neighbors> got =
      hydrabench::ReferenceKnn(data, queries, length, k, 2);
  CHECK(got.size() == 7);
  for (size_t q = 0; q < got.size(); ++q) {
    std::vector<std::pair<double, int64_t>> all;
    for (size_t i = 0; i < n; ++i) {
      double sum = 0.0;
      for (size_t j = 0; j < length; ++j) {
        const double d = static_cast<double>(queries[q * length + j]) -
                         static_cast<double>(data[i * length + j]);
        sum += d * d;
      }
      all.emplace_back(sum, static_cast<int64_t>(i));
    }
    std::sort(all.begin(), all.end());
    CHECK(got[q].ids.size() == k);
    for (size_t r = 0; r < k && r < got[q].ids.size(); ++r) {
      CHECK(got[q].ids[r] == all[r].second);
      CHECK(std::fabs(got[q].distances[r] - std::sqrt(all[r].first)) <=
            1e-12 * std::sqrt(all[r].first));
    }
  }
}

bool SameCounters(const hydra::QueryCounters& a,
                  const hydra::QueryCounters& b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool SameAnswer(const hydra::Result<hydra::KnnAnswer>& a,
                const hydra::Result<hydra::KnnAnswer>& b) {
  if (!a.ok() || !b.ok()) return false;
  const hydra::KnnAnswer& x = a.value();
  const hydra::KnnAnswer& y = b.value();
  return x.ids == y.ids && x.distances.size() == y.distances.size() &&
         std::memcmp(x.distances.data(), y.distances.data(),
                     x.distances.size() * sizeof(double)) == 0;
}

// Builds DSTree over `provider` plainly and through both decorators,
// and requires identical answers and counters for every query in exact
// and ng-approximate mode.
void CheckDecorators(const hydra::Dataset& data,
                     hydra::SeriesProvider* plain_provider,
                     hydra::SeriesProvider* decorated_inner,
                     const std::vector<float>& queries, size_t length) {
  hydra::BuildOptions options;
  options.method = "dstree";
  auto plain = hydra::BuildIndex(data, plain_provider, options);
  CHECK(plain.ok());
  hydrabench::Tracer tracer(1 << 16, queries.size() / length);
  hydrabench::QueryLookup lookup(queries, length);
  hydrabench::TracingProvider traced_provider(decorated_inner, &tracer);
  auto inner = hydra::BuildIndex(data, &traced_provider, options);
  CHECK(inner.ok());
  if (!plain.ok() || !inner.ok()) return;
  hydrabench::TracingIndex traced(inner.value().get(), &tracer, &lookup);
  CHECK(traced.name() == plain.value()->name());
  CHECK(traced.MemoryBytes() == plain.value()->MemoryBytes());

  const size_t nq = queries.size() / length;
  size_t searches = 0;
  for (int mode = 0; mode < 2; ++mode) {
    hydra::SearchParams params;
    params.k = 5;
    if (mode == 1) {
      params.mode = hydra::SearchMode::kNgApproximate;
      params.nprobe = 2;
    }
    for (size_t q = 0; q < nq; ++q) {
      std::span<const float> query(queries.data() + q * length, length);
      hydra::QueryCounters a;
      hydra::QueryCounters b;
      auto want = plain.value()->Search(query, params, &a);
      auto got = traced.Search(query, params, &b);
      ++searches;
      CHECK(SameAnswer(want, got));
      CHECK(SameCounters(a, b));
    }
  }
  const std::vector<hydrabench::SearchRecord> records = tracer.searches();
  CHECK(records.size() == searches);
  for (size_t i = 0; i < records.size(); ++i) {
    CHECK(records[i].query == i % nq);  // the lookup named every query
    CHECK(records[i].fetches > 0);
    CHECK(records[i].fetch_ns <= records[i].ns);  // fetches nest inside
  }
}

void TestDecorators() {
  const size_t n = 2000;
  const size_t length = 64;
  std::vector<float> values = hydrabench::RandomWalks(n, length, 7, 1);
  const std::vector<float> queries =
      hydrabench::RandomWalks(12, length, 7, 2);
  auto data = hydra::Dataset::FromValues(n, length, std::move(values));
  CHECK(data.ok());
  if (!data.ok()) return;

  hydra::InMemoryProvider memory(&data.value());
  hydra::InMemoryProvider memory_inner(&data.value());
  CheckDecorators(data.value(), &memory, &memory_inner, queries, length);

  const std::string dir = "hydrabench-selftest";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/decorators.hsf";
  CHECK(hydra::WriteSeriesFile(path, data.value()).ok());
  auto pool = hydra::BufferManager::Open(path, 16, 8);
  auto pool_inner = hydra::BufferManager::Open(path, 16, 8);
  CHECK(pool.ok() && pool_inner.ok());
  if (pool.ok() && pool_inner.ok()) {
    CheckDecorators(data.value(), pool.value().get(),
                    pool_inner.value().get(), queries, length);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace

int main() {
  TestPercentile();
  TestRecall();
  TestReference();
  TestDecorators();
  if (failures != 0) {
    std::fprintf(stderr, "hydrabench_selftest: %d check(s) failed\n",
                 failures);
    return 1;
  }
  std::printf("hydrabench_selftest: all checks passed\n");
  return 0;
}
