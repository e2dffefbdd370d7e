// Ablation — VA+file design choices: Lloyd-Max vs uniform-width scalar
// cells (the "+" of VA+file) and variance-driven vs flat bit allocation.
// Measured as pruning power: raw series fetched per exact 1-NN query.

#include <numeric>

#include "bench/bench_common.h"
#include "index/vafile/vafile.h"

namespace hydra::bench {
namespace {

void Run() {
  NamedDataset ds = MakeBenchDataset("rand", 8000, 128, /*num_queries=*/20);
  const size_t k = 1;
  auto truth = ExactKnnWorkload(ds.data, ds.queries, k);
  InMemoryProvider provider(&ds.data);

  Table table({"variant", "MAP", "raw_series_per_q", "lb_per_q",
               "index_KB"});

  auto run_variant = [&](const std::string& name, VaFileOptions opts) {
    const auto idx =
        BuiltOrExit("vafile", VaFileIndex::Build(ds.data, &provider, opts));
    SearchParams params;
    params.mode = SearchMode::kExact;
    params.k = k;
    RunResult r = RunWorkload(*idx, ds.queries, truth, params, "exact");
    table.AddRow(
        {name, FormatDouble(r.accuracy.map),
         FormatDouble(static_cast<double>(r.counters.series_accessed) /
                          static_cast<double>(r.num_queries),
                      1),
         FormatDouble(static_cast<double>(r.counters.lb_distances) /
                          static_cast<double>(r.num_queries),
                      1),
         FormatDouble(static_cast<double>(idx->MemoryBytes()) / 1024.0, 1)});
  };

  // The bench preset: 16 DFT features and 64 bits are the defaults.
  VaFileOptions adaptive;
  adaptive.histogram_pairs = kBenchHistogramPairs;
  run_variant("lloyd+var-bits(16 dft)", adaptive);

  VaFileOptions flat_bits = adaptive;
  flat_bits.max_bits_per_dim = 4;  // forces 4 bits everywhere (64/16)
  run_variant("lloyd+flat-bits", flat_bits);

  VaFileOptions few_features = adaptive;
  few_features.num_features = 8;
  run_variant("lloyd+var-bits(8 dft)", few_features);

  VaFileOptions more_bits = adaptive;
  more_bits.total_bits = 128;
  run_variant("lloyd+var-bits,128b", more_bits);

  PrintFigure("Ablation: VA+file quantizer design", table);
  std::printf(
      "\nExpectation: variance-driven allocation fetches fewer raw series\n"
      "than flat allocation at equal budget; more bits prune better at\n"
      "a higher footprint.\n");
}

}  // namespace
}  // namespace hydra::bench

int main() {
  hydra::bench::Run();
  return 0;
}
