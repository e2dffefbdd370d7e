// Figure 4 — On-disk efficiency vs accuracy (100-NN): the disk-resident
// methods (DSTree, iSAX2+, VA+file, IMI, SRS) on Rand/Sift/Deep analogs
// served through the LRU buffer manager with a deliberately small memory
// budget, so raw-series refinement pays real (counted) I/O. HNSW, QALSH
// and Flann are excluded, as in the paper (in-memory only).

#include <cstdlib>
#include <filesystem>

#include "bench/bench_common.h"
#include "storage/series_file.h"

namespace hydra::bench {
namespace {

void RunDataset(const std::string& kind, size_t n, size_t len,
                const std::filesystem::path& dir, Table* table) {
  NamedDataset ds = MakeBenchDataset(kind, n, len, /*num_queries=*/20);
  const size_t k = 100 <= ds.data.size() ? 100 : ds.data.size();
  auto truth = ExactKnnWorkload(ds.data, ds.queries, k);

  std::string path = (dir / (kind + ".hsf")).string();
  if (!WriteSeriesFile(path, ds.data).ok()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  // Memory budget ~2% of the data: queries must hit the "disk".
  auto bm = BufferManager::Open(path, /*page_series=*/16,
                                /*capacity_pages=*/
                                std::max<uint64_t>(2, n / 16 / 50));
  if (!bm.ok()) return;
  SeriesProvider* provider = bm.value().get();

  struct Entry {
    const char* method;
    std::vector<size_t> ng_knob;
    bool delta_eps;
  };
  const std::vector<Entry> entries = {{"dstree", {1, 4, 16, 64}, true},
                                      {"isax", {1, 4, 16, 64}, true},
                                      {"vafile", {100, 400, 1600}, true},
                                      {"imi", {1, 8, 64}, false},
                                      {"srs", {}, true}};
  for (const Entry& e : entries) {
    const BuiltIndex b = BuildBenchIndex(e.method, ds.data, provider);
    if (!e.ng_knob.empty()) {
      for (RunResult& r :
           RunSweep(*b.index, ds.queries, truth, NgSweep(k, e.ng_knob))) {
        r.setting = "ng," + r.setting;
        AddResultRow(table, ds.name, r, b.build_seconds, ds.data.size());
      }
    }
    if (e.delta_eps) {
      double delta = b.index->name() == "srs" ? 0.99 : 1.0;
      for (RunResult& r : RunSweep(*b.index, ds.queries, truth,
                                   EpsilonSweep(k, {0.0, 1.0, 2.0}, delta))) {
        r.setting = "de," + r.setting;
        AddResultRow(table, ds.name, r, b.build_seconds, ds.data.size());
      }
    }
  }
}

// On-disk thread scaling: the page-pinning buffer pool lets parallel
// scans run out of core, so the thread knob now composes with the memory
// budget. Reports speedup, abandon rate, and %-data-accessed per thread
// count for the two frontier methods.
void RunThreadScaling(const std::filesystem::path& dir) {
  NamedDataset ds = MakeBenchDataset("rand", 8000, 128, /*num_queries=*/10);
  const size_t k = 100;
  auto truth = ExactKnnWorkload(ds.data, ds.queries, k);
  std::string path = (dir / "rand_threads.hsf").string();
  if (!WriteSeriesFile(path, ds.data).ok()) return;
  // Budget ~2% of the data, floored at the largest thread count so every
  // worker can always hold its one pinned page.
  auto bm = BufferManager::Open(
      path, /*page_series=*/16,
      /*capacity_pages=*/std::max<uint64_t>(8, 8000 / 16 / 50));
  if (!bm.ok()) return;
  SeriesProvider* provider = bm.value().get();

  SearchParams params;
  params.mode = SearchMode::kExact;
  params.k = k;
  for (const char* method : {"dstree", "isax"}) {
    const BuiltIndex built = BuildBenchIndex(method, ds.data, provider);
    Table table = SerialTable(RunSweep(*built.index, ds.queries, truth,
                                       ThreadSweep(params, {1, 2, 4, 8})),
                              ds.data.size());
    std::printf("\n%s\n", table.ToAlignedText().c_str());
  }
}

// Prefetch-depth sweep: the asynchronous readahead pipeline against a
// deliberately tiny, COLD pool (16 pages, dropped before every query),
// the regime where scans block on disk and overlapping the next page's
// read with the current page's kernels pays directly. Cold and warm rows
// both print; match_serial must read "yes" at every depth (readahead is
// a cache hint, answers are bit-identical).
//
// On dev/CI machines the bench file sits in the page cache, where a
// "read" costs nanoseconds and there is no latency to hide — so this
// section emulates device latency with the fault injector's latency
// channel (storage/fault_injector.h): every read of a pool opened from
// here on sleeps 150us, unless the caller exported its own
// HYDRA_FAULT_LATENCY_RATE / HYDRA_FAULT_LATENCY_US (export
// HYDRA_FAULT_LATENCY_RATE=0 to measure raw page-cache behavior). The
// depth>=4 rows beating depth=0 is the pipeline's acceptance bar.
void RunPrefetchPipeline(const std::filesystem::path& dir) {
  ::setenv("HYDRA_FAULT_LATENCY_RATE", "1", /*overwrite=*/0);
  ::setenv("HYDRA_FAULT_LATENCY_US", "150", /*overwrite=*/0);
  std::printf("# HYDRA_FAULT_LATENCY_RATE=%s HYDRA_FAULT_LATENCY_US=%s "
              "(emulated per-read latency)\n",
              std::getenv("HYDRA_FAULT_LATENCY_RATE"),
              std::getenv("HYDRA_FAULT_LATENCY_US"));
  const size_t n = 8000;
  NamedDataset ds = MakeBenchDataset("rand", n, 128, /*num_queries=*/10);
  const size_t k = 100;
  auto truth = ExactKnnWorkload(ds.data, ds.queries, k);
  std::string path = (dir / "rand_prefetch.hsf").string();
  if (!WriteSeriesFile(path, ds.data).ok()) return;
  auto bm = BufferManager::Open(path, /*page_series=*/16,
                                /*capacity_pages=*/16);
  if (!bm.ok()) return;
  BufferManager* pool = bm.value().get();

  SearchParams params;
  params.mode = SearchMode::kExact;
  params.k = k;
  auto print = [&](const Index& index) {
    Table table = SerialTable(
        PrefetchRows(index, ds.queries, truth, params, pool), ds.data.size());
    std::printf("\n%s\n", table.ToAlignedText().c_str());
    std::printf("# csv\n%s", table.ToCsv().c_str());
  };
  print(LinearScanIndex(pool));
  for (const char* method : {"dstree", "isax"}) {
    print(*BuildBenchIndex(method, ds.data, pool).index);
  }
  std::printf(
      "# pool: prefetch_issued=%llu prefetch_useful=%llu\n",
      static_cast<unsigned long long>(pool->prefetch_issued()),
      static_cast<unsigned long long>(pool->prefetch_useful()));
}

void Run() {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "hydra_bench_fig4";
  fs::create_directories(dir);

  Table table(ResultHeaders());
  RunDataset("rand", 8000, 128, dir, &table);
  RunDataset("sift", 8000, 128, dir, &table);
  RunDataset("deep", 8000, 96, dir, &table);
  PrintFigure("Figure 4: on-disk efficiency vs accuracy (100-NN)", table);
  std::printf(
      "\nPaper shape check: DSTree and iSAX2+ dominate both frontiers;\n"
      "IMI is fast but accuracy collapses (MAP << 1); SRS degrades\n"
      "on-disk.\n");

  std::printf("\n# on-disk thread scaling (exact 100-NN, rand)\n");
  RunThreadScaling(dir);

  std::printf(
      "\n# prefetch pipeline (exact 100-NN, rand, cold 16-page pool)\n");
  RunPrefetchPipeline(dir);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hydra::bench

int main() {
  hydra::bench::Run();
  return 0;
}
