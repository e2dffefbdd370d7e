// Figure 2 — Indexing scalability: build time (2a) and index memory
// footprint (2b) as the synthetic dataset grows. The paper sweeps
// 25→250 GB; we sweep dataset cardinality ×10 at bench scale and report
// the same two columns for all eight methods.

#include "bench/bench_common.h"

namespace hydra::bench {
namespace {

void Run() {
  const size_t kLength = 128;
  const std::vector<size_t> sizes = {2000, 4000, 8000, 16000};

  Table table({"dataset_size", "method", "build_seconds", "index_MB"});
  for (size_t n : sizes) {
    Rng rng(500 + n);
    Dataset data = MakeRandomWalk(n, kLength, rng);
    InMemoryProvider provider(&data);

    for (const char* method : {"isax", "vafile", "srs", "dstree", "flann",
                               "qalsh", "imi", "hnsw"}) {
      const BuiltIndex b = BuildBenchIndex(method, data, &provider);
      table.AddRow({std::to_string(n), b.index->name(),
                    FormatDouble(b.build_seconds, 3),
                    FormatDouble(static_cast<double>(b.index->MemoryBytes()) /
                                     (1024.0 * 1024.0),
                                 3)});
    }
  }
  PrintFigure(
      "Figure 2: indexing scalability (build time, memory footprint)",
      table);
  std::printf(
      "\nPaper shape check: iSAX2+ fastest build; IMI/HNSW slowest;\n"
      "DSTree/iSAX2+ smallest footprint, QALSH/HNSW largest.\n");
}

}  // namespace
}  // namespace hydra::bench

int main() {
  hydra::bench::Run();
  return 0;
}
