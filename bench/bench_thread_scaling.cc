// Thread-scaling speedup report for the query-parallel execution engine
// (src/exec/): sweeps SearchParams::num_threads over the exact linear
// scan — the paper's wall-clock yardstick and the workload with the most
// exposed parallelism — in both regimes: in-memory, and disk-resident
// through the page-pinning buffer pool under a bounded memory budget
// (the paper's out-of-core setting; parallel scans no longer fall back
// to serial there). Then the prefetch-depth rows on the same on-disk
// scan, cold and warm. Prints the serial runner's tables
// (harness/experiment.h) plus their CSV form; the rows carry the
// early-abandon rate and the paper's %-data-accessed measure. Unlike the
// figure benches this is a plain binary (no google-benchmark fixture):
// the harness IS the measurement protocol.
//
// The sizes below are fixed; HYDRA_PREFETCH (the engine's default
// readahead depth) still applies to the thread rows (prefetch_hit
// column; unset = off).
//
// Pass/fail: every row is exact search, so the binary exits 1 when any
// row's avg_recall is below 1 or its match_serial is NO — the engine
// guarantees bit-identical exact results at every thread count and
// prefetch depth, in-memory and on-disk alike. At 8 threads on >= 8 idle
// cores the in-memory scan speedup should exceed 3x.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "storage/series_file.h"

namespace {

constexpr size_t kSeries = 100000;
constexpr size_t kLength = 128;
constexpr size_t kQueries = 20;
constexpr size_t kK = 10;
constexpr size_t kPageSeries = 16;
const std::vector<size_t> kThreads = {1, 2, 4, 8};
// ~2% of the data, floored at the largest thread count so every worker
// can hold its pin.
constexpr size_t kCapacity = std::max<size_t>(8, kSeries / kPageSeries / 50);

// Prints one table and its CSV form; false when a row breaks the
// exactness contract.
bool Report(const std::string& title,
            const std::vector<hydra::RunResult>& rows, size_t n) {
  hydra::Table table = hydra::SerialTable(rows, n);
  std::printf("\n## %s\n%s\n", title.c_str(), table.ToAlignedText().c_str());
  std::printf("# csv\n%s", table.ToCsv().c_str());
  bool ok = true;
  for (const hydra::RunResult& r : rows) {
    if (!r.matches_serial || r.accuracy.avg_recall < 1.0) {
      std::fprintf(stderr, "DETERMINISM VIOLATION: %s %s\n", title.c_str(),
                   r.setting.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main() {
  std::printf("# thread scaling: exact linear scan, n=%zu len=%zu "
              "queries=%zu k=%zu\n",
              kSeries, kLength, kQueries, kK);

  hydra::Rng rng(20260729);
  hydra::Dataset data = hydra::MakeRandomWalk(kSeries, kLength, rng);
  hydra::Dataset queries = hydra::MakeNoiseQueries(data, kQueries, 0.1, rng);

  // The serial scan is exact, so it doubles as its own ground truth; the
  // avg_recall column must then read 1.000 at every thread count — any
  // other value means the parallel engine diverged from serial answers.
  std::vector<hydra::KnnAnswer> ground_truth =
      hydra::ExactKnnWorkload(data, queries, kK);

  hydra::SearchParams params;
  params.mode = hydra::SearchMode::kExact;
  params.k = kK;
  const std::vector<hydra::SweepPoint> points =
      hydra::ThreadSweep(params, kThreads);

  bool ok = true;
  {
    hydra::InMemoryProvider provider(&data);
    hydra::LinearScanIndex scan(&provider);
    ok &= Report("in-memory",
                 hydra::RunSweep(scan, queries, ground_truth, points),
                 data.size());
  }

  // On-disk: the same scan against the page-pinning buffer pool with a
  // deliberately small budget, so refinement pays real (counted) I/O.
  namespace fs = std::filesystem;
  const hydra::bench::ScratchDir scratch("thread_scaling");
  const fs::path& dir = scratch.path();
  std::string path = (dir / "data.hsf").string();
  if (!hydra::WriteSeriesFile(path, data).ok()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  {
    auto bm = hydra::BufferManager::Open(path, kPageSeries, kCapacity);
    if (!bm.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   bm.status().ToString().c_str());
      return 1;
    }
    hydra::LinearScanIndex scan(bm.value().get());
    ok &= Report("on-disk (buffer pool: " + std::to_string(kCapacity) +
                     " pages x " + std::to_string(kPageSeries) + " series)",
                 hydra::RunSweep(scan, queries, ground_truth, points),
                 data.size());
    std::printf("# pool: hits=%llu misses=%llu\n",
                static_cast<unsigned long long>(bm.value()->cache_hits()),
                static_cast<unsigned long long>(bm.value()->cache_misses()));
  }

  // Prefetch pipeline on the same scan: cold (pool dropped before every
  // query) and warm rows per readahead depth — the overlap-I/O-with-
  // compute win, with match_serial proving bit-identical answers.
  {
    auto bm = hydra::BufferManager::Open(path, kPageSeries, kCapacity);
    if (!bm.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   bm.status().ToString().c_str());
      return 1;
    }
    hydra::LinearScanIndex scan(bm.value().get());
    ok &= Report("on-disk prefetch sweep (pool: " +
                     std::to_string(kCapacity) + " pages x " +
                     std::to_string(kPageSeries) + " series)",
                 hydra::bench::PrefetchRows(scan, queries, ground_truth,
                                            params, bm.value().get()),
                 data.size());
    std::printf(
        "# pool: prefetch_issued=%llu prefetch_useful=%llu\n",
        static_cast<unsigned long long>(bm.value()->prefetch_issued()),
        static_cast<unsigned long long>(bm.value()->prefetch_useful()));
  }
  return ok ? 0 : 1;
}
