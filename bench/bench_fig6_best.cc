// Figure 6 — Best performing methods (ε-approximate DSTree vs iSAX2+) on
// all five dataset families: throughput vs MAP (top row), % of data
// accessed (middle row), and number of random I/Os (bottom row), with
// data served from disk through the buffer manager so the counters are
// meaningful.

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
  if (!WriteSeriesFile(path, ds.data).ok()) return;
  auto bm = BufferManager::Open(path, 16,
                                std::max<uint64_t>(2, n / 16 / 50));
  if (!bm.ok()) return;

  for (const char* method : {"dstree", "isax"}) {
    const BuiltIndex b = BuildBenchIndex(method, ds.data, bm.value().get());
    for (const RunResult& r :
         RunSweep(*b.index, ds.queries, truth,
                  EpsilonSweep(k, {0.0, 0.25, 0.5, 1.0, 2.0, 4.0}))) {
      table->AddRow({kind, r.method, r.setting, FormatDouble(r.accuracy.map),
                     FormatDouble(r.timing.throughput_per_min, 1),
                     FormatPercent(r.DataAccessedFraction(ds.data.size())),
                     FormatDouble(r.RandomIosPerQuery(), 1)});
    }
  }
}

void Run() {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "hydra_bench_fig6";
  fs::create_directories(dir);

  Table table({"dataset", "method", "setting", "MAP", "qrs_per_min",
               "data_accessed", "rand_io_per_q"});
  RunDataset("rand", 8000, 128, dir, &table);
  RunDataset("sift", 8000, 128, dir, &table);
  RunDataset("deep", 8000, 96, dir, &table);
  RunDataset("sald", 8000, 128, dir, &table);
  RunDataset("seismic", 8000, 128, dir, &table);
  PrintFigure(
      "Figure 6: best methods, eps-approximate (throughput, % data, "
      "random I/O)",
      table);
  std::printf(
      "\nPaper shape check: data accessed and random I/O grow as MAP→1;\n"
      "iSAX2+ incurs more random I/O (more, emptier leaves); SALD-like\n"
      "data reaches high MAP with minimal data access.\n");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hydra::bench

int main() {
  hydra::bench::Run();
  return 0;
}
