#ifndef HYDRA_BENCH_BENCH_COMMON_H_
#define HYDRA_BENCH_BENCH_COMMON_H_

// Shared setup for the figure benches: dataset construction at bench
// scale, index construction by method name with the paper's tuning
// (§4.2.1) scaled down, and printing conventions. Every bench binary prints the rows/series of one
// paper figure; absolute numbers differ from the paper (simulated scale)
// but the shapes are comparable — see EXPERIMENTS.md.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/generators.h"
#include "core/ground_truth.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "index/factory.h"
#include "index/scan/linear_scan.h"
#include "storage/buffer_manager.h"

namespace hydra::bench {

// Bench-scale stand-ins for the paper's datasets (see DESIGN.md §3).
struct NamedDataset {
  std::string name;
  Dataset data;
  Dataset queries;
};

inline NamedDataset MakeBenchDataset(const std::string& kind, size_t n,
                                     size_t len, size_t num_queries,
                                     uint64_t seed = 1234) {
  Rng rng(seed);
  NamedDataset out;
  out.name = kind;
  if (kind == "rand") {
    out.data = MakeRandomWalk(n, len, rng);
    Rng qrng(seed + 1);  // paper: same generator, different seed
    out.queries = MakeRandomWalk(num_queries, len, qrng);
  } else if (kind == "sift") {
    out.data = MakeSiftAnalog(n, len, rng);
    out.queries = MakeNoiseQueries(out.data, num_queries, 0.3, rng);
  } else if (kind == "deep") {
    out.data = MakeDeepAnalog(n, len, rng);
    out.queries = MakeNoiseQueries(out.data, num_queries, 0.3, rng);
  } else if (kind == "seismic") {
    out.data = MakeSeismicAnalog(n, len, rng);
    out.queries = MakeNoiseQueries(out.data, num_queries, 0.3, rng);
  } else if (kind == "sald") {
    out.data = MakeSaldAnalog(n, len, rng);
    out.queries = MakeNoiseQueries(out.data, num_queries, 0.3, rng);
  } else {
    std::fprintf(stderr, "unknown dataset kind: %s\n", kind.c_str());
  }
  return out;
}

// The paper's tuning (§4.2.1) scaled down to bench size: 32-series
// leaves (DSTree, iSAX2+, SFA, ADS+'s query-time leaves, M-tree nodes),
// 5,000 histogram pairs and 32 IMI codewords per half. Every other value
// is the method's own default. The ablations start their typed options
// from the same constants.
constexpr size_t kBenchLeafCapacity = 32;
constexpr size_t kBenchHistogramPairs = 5000;
constexpr size_t kBenchImiCoarseK = 32;

// A failed build ends the bench: a method missing from its figure would
// otherwise pass unnoticed. Prints the method and its typed status and
// exits 1.
template <typename T>
T BuiltOrExit(const std::string& method, Result<T> built) {
  if (!built.ok()) {
    std::fprintf(stderr, "%s: build failed: %s\n", method.c_str(),
                 built.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(built).value();
}

struct BuiltIndex {
  std::unique_ptr<Index> index;
  double build_seconds = 0.0;
};

// Builds `method` (a BuildIndex name, index/factory.h) over `data` with
// the bench preset; raw series come from `provider`, which the in-memory
// methods ignore.
inline BuiltIndex BuildBenchIndex(const std::string& method,
                                  const Dataset& data,
                                  SeriesProvider* provider) {
  BuildOptions options;
  options.method = method;
  options.leaf_capacity = kBenchLeafCapacity;
  options.histogram_pairs = kBenchHistogramPairs;
  options.imi_coarse_k = kBenchImiCoarseK;
  Timer t;
  BuiltIndex out;
  out.index = BuiltOrExit(method, BuildIndex(data, provider, options));
  out.build_seconds = t.ElapsedSeconds();
  return out;
}

// The prefetch-depth rows of one disk-resident index (bench_fig4_ondisk
// and bench_thread_scaling), each depth once per pool temperature: cold
// rows drop `pool` before every query, warm rows follow one untimed
// pass. Each temperature's depth-0 row (readahead forced off) is the
// baseline of its speedup and match_serial columns.
inline std::vector<RunResult> PrefetchRows(const Index& index,
                                           const Dataset& queries,
                                           const std::vector<KnnAnswer>& truth,
                                           const SearchParams& params,
                                           BufferManager* pool) {
  const std::vector<SweepPoint> points = DepthSweep(params, {0, 4, 16});
  std::vector<RunResult> rows = RunSweep(index, queries, truth, points, pool);
  for (RunResult& r : rows) r.setting += ";cold";
  SerialAnswers(index, queries, points.front().params);
  for (RunResult& r : RunSweep(index, queries, truth, points)) {
    r.setting += ";warm";
    rows.push_back(std::move(r));
  }
  return rows;
}

inline void PrintFigure(const std::string& title, const Table& table) {
  std::printf("\n=== %s ===\n%s", title.c_str(),
              table.ToAlignedText().c_str());
}

// Standard result row used by the accuracy/efficiency figures.
// abandon_rate is the early-abandoning yield per method (share of raw
// evaluations cut off by the running k-th bound) — the counter has been
// split since the SIMD kernel work; the figures now report it.
inline void AddResultRow(Table* table, const std::string& dataset,
                         const RunResult& r, double build_seconds,
                         size_t collection_size) {
  table->AddRow({dataset, r.method, r.setting, FormatDouble(r.accuracy.map),
                 FormatDouble(r.accuracy.avg_recall),
                 FormatDouble(r.accuracy.mre, 4),
                 FormatDouble(r.timing.throughput_per_min, 1),
                 FormatDouble(build_seconds + r.timing.total_seconds, 2),
                 FormatDouble(build_seconds + r.timing.extrapolated_10k_sec,
                              1),
                 FormatPercent(r.DataAccessedFraction(collection_size)),
                 FormatDouble(r.RandomIosPerQuery(), 1),
                 FormatDouble(r.AbandonRate(), 4)});
}

inline std::vector<std::string> ResultHeaders() {
  return {"dataset",     "method",        "setting",       "MAP",
          "recall",      "MRE",           "qrs_per_min",   "idx+100q_s",
          "idx+10Kq_s",  "data_accessed", "rand_io_per_q",
          "abandon_rate"};
}

}  // namespace hydra::bench

#endif  // HYDRA_BENCH_BENCH_COMMON_H_
