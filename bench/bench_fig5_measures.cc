// Figure 5 — Comparison of accuracy measures on the Sift analog:
// (5a) Avg Recall vs MAP per method — equal for every method that
// re-ranks on raw distances, lower MAP for IMI which ranks on compressed
// codes; (5b) MRE vs MAP — small relative errors can coexist with very
// low MAP, the paper's argument for preferring MAP.

#include "bench/bench_common.h"

namespace hydra::bench {
namespace {

void Run() {
  NamedDataset ds = MakeBenchDataset("sift", 6000, 128, /*num_queries=*/30);
  const size_t k = 100;
  auto truth = ExactKnnWorkload(ds.data, ds.queries, k);
  InMemoryProvider provider(&ds.data);

  Table table({"method", "setting", "MAP", "avg_recall", "MRE",
               "recall_minus_map"});

  auto add = [&](const char* method, const std::vector<SweepPoint>& points) {
    const BuiltIndex built = BuildBenchIndex(method, ds.data, &provider);
    for (const RunResult& r :
         RunSweep(*built.index, ds.queries, truth, points)) {
      table.AddRow({r.method, r.setting, FormatDouble(r.accuracy.map),
                    FormatDouble(r.accuracy.avg_recall),
                    FormatDouble(r.accuracy.mre, 4),
                    FormatDouble(r.accuracy.avg_recall - r.accuracy.map)});
    }
  };

  add("dstree", NgSweep(k, {1, 8, 64}));
  add("isax", NgSweep(k, {1, 8, 64}));
  add("vafile", NgSweep(k, {100, 800}));
  add("hnsw", NgSweep(k, {100, 400}));
  add("imi", NgSweep(k, {4, 32, 256}));
  add("srs", EpsilonSweep(k, {0.0, 2.0}, 0.99));

  PrintFigure("Figure 5: accuracy measures compared (Sift analog, 100-NN)",
              table);
  std::printf(
      "\nPaper shape check: recall == MAP for all methods except IMI\n"
      "(positive recall_minus_map: its ranking uses compressed codes);\n"
      "low MRE values coexist with much lower MAP.\n");
}

}  // namespace
}  // namespace hydra::bench

int main() {
  hydra::bench::Run();
  return 0;
}
