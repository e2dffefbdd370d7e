#ifndef HYDRA_BENCH_BENCH_COMMON_H_
#define HYDRA_BENCH_BENCH_COMMON_H_

// Shared setup for the figure benches: dataset construction at bench
// scale, index builders with the paper's tuning (§4.2.1) scaled down, and
// printing conventions. Every bench binary prints the rows/series of one
// paper figure; absolute numbers differ from the paper (simulated scale)
// but the shapes are comparable — see EXPERIMENTS.md.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/generators.h"
#include "core/ground_truth.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "index/adsplus/adsplus.h"
#include "index/dstree/dstree.h"
#include "index/flann/flann.h"
#include "index/mtree/mtree.h"
#include "index/hnsw/hnsw.h"
#include "index/imi/imi.h"
#include "index/isax/isax_index.h"
#include "index/qalsh/qalsh.h"
#include "index/scan/linear_scan.h"
#include "index/sfa/sfa.h"
#include "index/srs/srs.h"
#include "index/vafile/vafile.h"
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

// Index builders with bench-scale defaults (leaf sizes etc. scaled from
// the paper's 100K-leaf / 16-segment configuration).
struct BuiltIndex {
  std::string name;
  std::unique_ptr<Index> index;
  double build_seconds = 0.0;
};

inline DSTreeOptions BenchDSTreeOptions() {
  DSTreeOptions o;
  o.leaf_capacity = 32;
  o.histogram_pairs = 5000;
  return o;
}

inline IsaxOptions BenchIsaxOptions() {
  IsaxOptions o;
  o.segments = 16;
  o.leaf_capacity = 32;
  o.histogram_pairs = 5000;
  return o;
}

inline VaFileOptions BenchVaFileOptions() {
  VaFileOptions o;
  o.num_features = 16;
  o.total_bits = 64;
  o.histogram_pairs = 5000;
  return o;
}

inline BuiltIndex BuildDSTree(const Dataset& data, SeriesProvider* provider) {
  Timer t;
  auto idx = DSTreeIndex::Build(data, provider, BenchDSTreeOptions());
  return {"dstree", idx.ok() ? std::move(idx).value() : nullptr,
          t.ElapsedSeconds()};
}

inline BuiltIndex BuildIsax(const Dataset& data, SeriesProvider* provider) {
  Timer t;
  auto idx = IsaxIndex::Build(data, provider, BenchIsaxOptions());
  return {"isax2plus", idx.ok() ? std::move(idx).value() : nullptr,
          t.ElapsedSeconds()};
}

inline BuiltIndex BuildVaFile(const Dataset& data, SeriesProvider* provider) {
  Timer t;
  auto idx = VaFileIndex::Build(data, provider, BenchVaFileOptions());
  return {"vafile", idx.ok() ? std::move(idx).value() : nullptr,
          t.ElapsedSeconds()};
}

inline BuiltIndex BuildHnsw(const Dataset& data) {
  Timer t;
  HnswOptions o;
  o.M = 16;
  o.ef_construction = 200;
  auto idx = HnswIndex::Build(data, o);
  return {"hnsw", idx.ok() ? std::move(idx).value() : nullptr,
          t.ElapsedSeconds()};
}

inline BuiltIndex BuildImi(const Dataset& data) {
  Timer t;
  ImiOptions o;
  o.coarse_k = 32;
  o.train_sample = 2048;
  auto idx = ImiIndex::Build(data, o);
  return {"imi", idx.ok() ? std::move(idx).value() : nullptr,
          t.ElapsedSeconds()};
}

inline BuiltIndex BuildSrs(const Dataset& data, SeriesProvider* provider) {
  Timer t;
  auto idx = SrsIndex::Build(data, provider, SrsOptions{});
  return {"srs", idx.ok() ? std::move(idx).value() : nullptr,
          t.ElapsedSeconds()};
}

inline BuiltIndex BuildQalsh(const Dataset& data, SeriesProvider* provider) {
  Timer t;
  auto idx = QalshIndex::Build(data, provider, QalshOptions{});
  return {"qalsh", idx.ok() ? std::move(idx).value() : nullptr,
          t.ElapsedSeconds()};
}

inline BuiltIndex BuildAdsPlus(const Dataset& data,
                               SeriesProvider* provider) {
  Timer t;
  AdsPlusOptions o;
  o.segments = 16;
  o.build_leaf_capacity = 512;
  o.query_leaf_capacity = 32;
  o.histogram_pairs = 5000;
  auto idx = AdsPlusIndex::Build(data, provider, o);
  return {"adsplus", idx.ok() ? std::move(idx).value() : nullptr,
          t.ElapsedSeconds()};
}

inline BuiltIndex BuildSfa(const Dataset& data, SeriesProvider* provider) {
  Timer t;
  SfaOptions o;
  o.num_features = 16;
  o.leaf_capacity = 32;
  o.histogram_pairs = 5000;
  auto idx = SfaIndex::Build(data, provider, o);
  return {"sfa", idx.ok() ? std::move(idx).value() : nullptr,
          t.ElapsedSeconds()};
}

inline BuiltIndex BuildMTree(const Dataset& data, SeriesProvider* provider) {
  Timer t;
  MTreeOptions o;
  o.node_capacity = 16;
  o.histogram_pairs = 5000;
  auto idx = MTreeIndex::Build(data, provider, o);
  return {"mtree", idx.ok() ? std::move(idx).value() : nullptr,
          t.ElapsedSeconds()};
}

inline BuiltIndex BuildFlann(const Dataset& data) {
  Timer t;
  auto idx = FlannIndex::Build(data, FlannOptions{});
  return {"flann", idx.ok() ? std::move(idx).value() : nullptr,
          t.ElapsedSeconds()};
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
