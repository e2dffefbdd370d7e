// Ablation — DSTree split policy: the hybrid vertical+horizontal QoS
// splitting (the paper credits DSTree's adaptive segmentation for its
// lead) vs. a horizontal-only variant approximated by forbidding segment
// subdivision (min_segment_length = series length). We compare pruning
// power at equal ε.

#include "bench/bench_common.h"
#include "index/dstree/dstree.h"

namespace hydra::bench {
namespace {

void Run() {
  NamedDataset ds = MakeBenchDataset("rand", 6000, 128, /*num_queries=*/20);
  const size_t k = 10;
  auto truth = ExactKnnWorkload(ds.data, ds.queries, k);
  InMemoryProvider provider(&ds.data);

  Table table({"variant", "epsilon", "MAP", "qrs_per_min",
               "full_dists_per_q", "leaves", "max_depth"});

  auto run_variant = [&](const std::string& name, DSTreeOptions opts) {
    const auto idx =
        BuiltOrExit("dstree", DSTreeIndex::Build(ds.data, &provider, opts));
    for (double eps : {0.0, 1.0, 2.0}) {
      auto results = RunSweep(*idx, ds.queries, truth, EpsilonSweep(k, {eps}));
      const RunResult& r = results.front();
      table.AddRow(
          {name, FormatDouble(eps, 1), FormatDouble(r.accuracy.map),
           FormatDouble(r.timing.throughput_per_min, 1),
           FormatDouble(static_cast<double>(r.counters.full_distances) /
                            static_cast<double>(r.num_queries),
                        1),
           std::to_string(idx->num_leaves()),
           std::to_string(idx->max_depth())});
    }
  };

  DSTreeOptions hybrid;
  hybrid.leaf_capacity = kBenchLeafCapacity;
  hybrid.histogram_pairs = kBenchHistogramPairs;
  run_variant("hybrid(v+h)", hybrid);

  DSTreeOptions horizontal = hybrid;
  horizontal.min_segment_length = 1 << 20;  // vertical splits impossible
  run_variant("horizontal-only", horizontal);

  DSTreeOptions coarse = hybrid;
  coarse.initial_segments = 1;  // fully adaptive segmentation from scratch
  run_variant("hybrid-from-1seg", coarse);

  PrintFigure("Ablation: DSTree split policies", table);
  std::printf(
      "\nExpectation: the hybrid policy prunes more (fewer raw distances\n"
      "per query at equal epsilon/MAP) than horizontal-only.\n");
}

}  // namespace
}  // namespace hydra::bench

int main() {
  hydra::bench::Run();
  return 0;
}
