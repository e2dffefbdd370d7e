// Figure 3 — In-memory efficiency vs accuracy (100-NN queries): for each
// dataset (Rand short series, Rand long series, Sift analog, Deep analog)
// we print the throughput-vs-MAP frontier of every method under both
// ng-approximate and δ-ε-approximate search, plus the combined
// index+workload costs the paper uses for its 100-query and 10K-query
// scenarios (Figs. 3a–3x).

#include "bench/bench_common.h"

namespace hydra::bench {
namespace {

void RunDataset(const std::string& kind, size_t n, size_t len, Table* table) {
  NamedDataset ds = MakeBenchDataset(kind, n, len, /*num_queries=*/30);
  const size_t k = 100 <= ds.data.size() ? 100 : ds.data.size();
  auto truth = ExactKnnWorkload(ds.data, ds.queries, k);
  InMemoryProvider provider(&ds.data);

  auto add = [&](const char* method, const std::vector<SweepPoint>& points,
                 const std::string& prefix) {
    const BuiltIndex b = BuildBenchIndex(method, ds.data, &provider);
    for (RunResult& r : RunSweep(*b.index, ds.queries, truth, points)) {
      r.setting = prefix + r.setting;
      AddResultRow(table, ds.name, r, b.build_seconds, ds.data.size());
    }
  };

  // ng-approximate methods: trees + HNSW + IMI + Flann + VA+file.
  add("dstree", NgSweep(k, {1, 4, 16, 64}), "ng,");
  add("isax", NgSweep(k, {1, 4, 16, 64}), "ng,");
  add("vafile", NgSweep(k, {100, 400, 1600}), "ng,");
  add("hnsw", NgSweep(k, {100, 200, 400}), "ng,");
  add("imi", NgSweep(k, {1, 8, 64, 256}), "ng,");
  add("flann", NgSweep(k, {64, 256, 1024}), "ng,");

  // δ-ε methods: extended trees + VA+file (ε sweep) and SRS/QALSH.
  for (const char* method : {"dstree", "isax", "vafile"}) {
    add(method, EpsilonSweep(k, {0.0, 0.5, 1.0, 2.0}), "de,");
  }
  add("srs", EpsilonSweep(k, {0.0, 1.0, 2.0}, /*delta=*/0.99), "de,");
  add("qalsh", EpsilonSweep(k, {1.0, 2.0}, /*delta=*/0.9), "de,");
}

void Run(bool longs, bool sift, bool deep) {
  Table table(ResultHeaders());
  RunDataset("rand", 4000, 128, &table);
  if (longs) RunDataset("rand", 1000, 1024, &table);  // long-series variant
  if (sift) RunDataset("sift", 4000, 128, &table);
  if (deep) RunDataset("deep", 4000, 96, &table);
  PrintFigure("Figure 3: in-memory efficiency vs accuracy (100-NN)", table);
  std::printf(
      "\nPaper shape check: HNSW best ng throughput at fixed MAP but never\n"
      "reaches MAP=1; DSTree/iSAX2+ reach MAP=1; SRS/QALSH dominated on\n"
      "the de frontier; with indexing cost included iSAX2+ wins small\n"
      "workloads and DSTree large ones.\n");
}

}  // namespace
}  // namespace hydra::bench

int main(int argc, char** argv) {
  bool longs = false, sift = true, deep = true;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--long") longs = true;
    if (arg == "--quick") {
      sift = false;
      deep = false;
    }
  }
  hydra::bench::Run(longs, sift, deep);
  return 0;
}
