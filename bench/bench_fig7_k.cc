// Figure 7 — Effect of k: total workload time for k ∈ {1, 10, 100}
// (ε-approximate DSTree and iSAX2+, in memory and on disk). The paper's
// observation: the first neighbor dominates the cost; additional
// neighbors are nearly free.

#include <filesystem>

#include "bench/bench_common.h"
#include "storage/series_file.h"

namespace hydra::bench {
namespace {

void RunRegime(const std::string& regime, const std::string& kind, size_t n,
               size_t len, SeriesProvider* provider, const Dataset& data,
               const Dataset& queries, Table* table) {
  for (const char* method : {"dstree", "isax"}) {
    const BuiltIndex b = BuildBenchIndex(method, data, provider);
    for (size_t k : {1, 10, 100}) {
      auto truth = ExactKnnWorkload(data, queries, k);
      auto results = RunSweep(*b.index, queries, truth,
                              EpsilonSweep(k, {1.0}));
      const RunResult& r = results.front();
      table->AddRow({regime, kind, b.index->name(), std::to_string(k),
                     FormatDouble(r.timing.total_seconds, 4),
                     FormatDouble(r.accuracy.map)});
    }
  }
  (void)n;
  (void)len;
}

void Run() {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "hydra_bench_fig7";
  fs::create_directories(dir);

  Table table(
      {"regime", "dataset", "method", "k", "total_seconds", "MAP"});

  for (const std::string& kind : {"rand", "sift", "deep"}) {
    size_t len = kind == "deep" ? 96 : 128;
    NamedDataset ds = MakeBenchDataset(kind, 6000, len, 20);

    InMemoryProvider mem(&ds.data);
    RunRegime("in-memory", kind, ds.data.size(), len, &mem, ds.data,
              ds.queries, &table);

    std::string path = (dir / (kind + ".hsf")).string();
    if (WriteSeriesFile(path, ds.data).ok()) {
      auto bm = BufferManager::Open(path, 16, 8);
      if (bm.ok()) {
        RunRegime("on-disk", kind, ds.data.size(), len, bm.value().get(),
                  ds.data, ds.queries, &table);
      }
    }
  }
  PrintFigure("Figure 7: total workload time vs k (eps-approximate)", table);
  std::printf(
      "\nPaper shape check: time grows sub-linearly in k — finding the\n"
      "first neighbor costs the most, the rest are nearly free.\n");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hydra::bench

int main() {
  hydra::bench::Run();
  return 0;
}
