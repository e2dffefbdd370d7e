// Figure 8 — Effect of ε and δ on DSTree and iSAX2+ (1-NN):
//  (8a–8c) sweep ε at δ = 1: throughput rises steeply with ε while MAP
//  stays high for small ε and the measured MRE stays far below the
//  user-tolerated bound;
//  (8d–8e) sweep δ at ε = 0: throughput is flat until δ = 1 (exact)
//  because the histogram-estimated r_δ is conservative — the paper's
//  "δ was ineffective" finding.

#include "bench/bench_common.h"

namespace hydra::bench {
namespace {

void Run() {
  NamedDataset ds = MakeBenchDataset("rand", 8000, 128, /*num_queries=*/30);
  const size_t k = 1;
  auto truth = ExactKnnWorkload(ds.data, ds.queries, k);
  InMemoryProvider provider(&ds.data);

  std::vector<BuiltIndex> builds;
  for (const char* method : {"dstree", "isax"}) {
    builds.push_back(BuildBenchIndex(method, ds.data, &provider));
  }

  Table eps_table({"method", "epsilon", "qrs_per_min", "MAP", "MRE",
                   "full_dists_per_q"});
  for (const BuiltIndex& b : builds) {
    for (double eps : {0.0, 0.5, 1.0, 2.0, 4.0, 6.0}) {
      auto results =
          RunSweep(*b.index, ds.queries, truth, EpsilonSweep(k, {eps}));
      const RunResult& r = results.front();
      eps_table.AddRow(
          {b.index->name(), FormatDouble(eps, 2),
           FormatDouble(r.timing.throughput_per_min, 1),
           FormatDouble(r.accuracy.map), FormatDouble(r.accuracy.mre, 4),
           FormatDouble(static_cast<double>(r.counters.full_distances) /
                            static_cast<double>(r.num_queries),
                        1)});
    }
  }
  PrintFigure("Figure 8a-8c: effect of epsilon (delta=1, 1-NN)", eps_table);

  Table delta_table({"method", "delta", "qrs_per_min", "MAP",
                     "full_dists_per_q"});
  for (const BuiltIndex& b : builds) {
    for (double delta : {0.2, 0.4, 0.6, 0.8, 0.99, 1.0}) {
      auto results = RunSweep(*b.index, ds.queries, truth,
                              EpsilonSweep(k, {0.0}, delta));
      const RunResult& r = results.front();
      delta_table.AddRow(
          {b.index->name(), FormatDouble(delta, 2),
           FormatDouble(r.timing.throughput_per_min, 1),
           FormatDouble(r.accuracy.map),
           FormatDouble(static_cast<double>(r.counters.full_distances) /
                            static_cast<double>(r.num_queries),
                        1)});
    }
  }
  PrintFigure("Figure 8d-8e: effect of delta (epsilon=0, 1-NN)", delta_table);
  std::printf(
      "\nPaper shape check: throughput rises orders of magnitude with\n"
      "epsilon while MAP stays near 1 for eps<=2 and MRE << eps; the\n"
      "delta sweep barely moves until delta=1 (exact).\n");
}

}  // namespace
}  // namespace hydra::bench

int main() {
  hydra::bench::Run();
  return 0;
}
