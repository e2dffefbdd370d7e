// Table 1 / Figure 1 — taxonomy of the evaluated methods, generated from
// code introspection (IndexCapabilities) rather than hand-written, so it
// cannot drift from the implementations.

#include "bench/bench_common.h"

namespace hydra::bench {
namespace {

void Run() {
  Rng rng(1);
  Dataset data = MakeRandomWalk(300, 64, rng);
  InMemoryProvider provider(&data);

  Table table({"method", "exact", "ng-approx", "eps-approx",
               "delta-eps-approx", "disk-resident", "summarization"});
  auto mark = [](bool b) { return b ? std::string("x") : std::string(""); };
  for (const char* method : {"dstree", "isax", "adsplus", "sfa", "vafile",
                             "mtree", "hnsw", "imi", "srs", "qalsh", "flann",
                             "scan"}) {
    const BuiltIndex built = BuildBenchIndex(method, data, &provider);
    IndexCapabilities c = built.index->capabilities();
    table.AddRow({built.index->name(), mark(c.exact), mark(c.ng_approximate),
                  mark(c.epsilon_approximate),
                  mark(c.delta_epsilon_approximate),
                  mark(c.disk_resident), c.summarization});
  }
  PrintFigure("Table 1 / Figure 1: taxonomy of similarity search methods",
              table);
}

}  // namespace
}  // namespace hydra::bench

int main() {
  hydra::bench::Run();
  return 0;
}
