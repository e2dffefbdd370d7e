// Micro-benchmarks of the hot kernels (google-benchmark): distance
// computations, summarization transforms, lower-bound evaluations (the
// tree search's member sieve among them), the CRC-32C that verifies
// every page read, and one DSTree build. These are the inner loops
// whose cost the figure benches aggregate.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/generators.h"
#include "distance/euclidean.h"
#include "distance/simd_dispatch.h"
#include "index/dstree/dstree.h"
#include "storage/buffer_manager.h"
#include "transform/dft.h"
#include "transform/eapca.h"
#include "transform/paa.h"
#include "transform/sax.h"

namespace hydra {
namespace {

Dataset BenchData(size_t n, size_t len) {
  Rng rng(42);
  return MakeRandomWalk(n, len, rng);
}

// Dispatched path (whatever target HYDRA_SIMD / auto-detection picked).
void BM_SquaredEuclidean(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  Dataset ds = BenchData(2, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredEuclidean(ds.series(0), ds.series(1)));
  }
  state.SetItemsProcessed(state.iterations() * len);
  state.SetLabel(SimdTargetName(ActiveSimdTarget()));
}
BENCHMARK(BM_SquaredEuclidean)->Arg(64)->Arg(256)->Arg(1024);

// Per-target sweeps, registered at startup for every dispatch target the
// machine supports (see main below): pinned-target point kernel and the
// batched kernel across batch sizes.
void BM_SquaredEuclideanTarget(benchmark::State& state, SimdTarget target) {
  const size_t len = static_cast<size_t>(state.range(0));
  Dataset ds = BenchData(2, len);
  const DistanceKernels& k = KernelsFor(target);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        k.squared_euclidean(ds.series(0).data(), ds.series(1).data(), len));
  }
  state.SetItemsProcessed(state.iterations() * len);
}

void BM_SquaredEuclideanBatch(benchmark::State& state, SimdTarget target) {
  const size_t batch = static_cast<size_t>(state.range(0));
  const size_t len = 256;
  Dataset ds = BenchData(batch + 1, len);
  const DistanceKernels& k = KernelsFor(target);
  std::vector<double> out(batch);
  const double inf = std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    // Infinite threshold: measures raw batched throughput, no abandoning.
    benchmark::DoNotOptimize(k.squared_euclidean_batch(
        ds.series(batch).data(), len, ds.data(), batch, len, inf,
        out.data()));
  }
  state.SetItemsProcessed(state.iterations() * batch * len);
}

}  // namespace

// Called from main, so it lives outside the anonymous namespace.
void RegisterTargetSweeps() {
  for (int t = 0; t < kNumSimdTargets; ++t) {
    SimdTarget target = static_cast<SimdTarget>(t);
    if (!SimdTargetSupported(target)) continue;
    std::string suffix = std::string("<") + SimdTargetName(target) + ">";
    benchmark::RegisterBenchmark(
        ("BM_SquaredEuclidean" + suffix).c_str(),
        [target](benchmark::State& s) { BM_SquaredEuclideanTarget(s, target); })
        ->Arg(64)
        ->Arg(256)
        ->Arg(1024);
    benchmark::RegisterBenchmark(
        ("BM_SquaredEuclideanBatch" + suffix).c_str(),
        [target](benchmark::State& s) { BM_SquaredEuclideanBatch(s, target); })
        ->Arg(8)
        ->Arg(64)
        ->Arg(512);
  }
}

namespace {

void BM_EuclideanEarlyAbandon(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  Dataset ds = BenchData(2, len);
  // A tight threshold forces abandonment almost immediately.
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SquaredEuclideanEarlyAbandon(ds.series(0), ds.series(1), 1.0));
  }
}
BENCHMARK(BM_EuclideanEarlyAbandon)->Arg(256)->Arg(1024);

void BM_PaaTransform(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  Dataset ds = BenchData(1, len);
  Paa paa(len, 16);
  std::vector<double> out(16);
  for (auto _ : state) {
    paa.Transform(ds.series(0), out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_PaaTransform)->Arg(256)->Arg(1024);

void BM_SaxEncode(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  Dataset ds = BenchData(1, len);
  SaxEncoder enc(len, 16, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.Encode(ds.series(0)));
  }
}
BENCHMARK(BM_SaxEncode)->Arg(256)->Arg(1024);

void BM_SaxMinDist(benchmark::State& state) {
  const size_t len = 256;
  Dataset ds = BenchData(2, len);
  SaxEncoder enc(len, 16, 8);
  auto paa = enc.paa().Transform(ds.series(0));
  auto word = enc.Encode(ds.series(1));
  std::vector<uint8_t> bits(16, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.MinDistSqPaaToSax(paa, word, bits));
  }
}
BENCHMARK(BM_SaxMinDist);

// The member sieve's two kernels at the shapes its trees run over a
// 256-point series: DSTree's words (64 segments of 8-bit symbols) and
// iSAX2+'s (16 segments of 16-bit symbols, at the default 8-bit
// cardinality). Encoding one word from a PAA image, and bounding one
// leaf's members (46, a DSTree leaf's typical fill at the default
// capacity) against a query's PAA, dispatched and pinned to the scalar
// reference; the argument is the cutoff, 0 for none or the rank of the
// member bound it is set to (10: a k-th distance at k = 10).
struct WordShape {
  size_t segments;
  size_t symbol_bytes;
};
constexpr WordShape kDSTreeWords{64, 1};
constexpr WordShape kIsaxWords{16, 2};

void BM_SaxWordEncode(benchmark::State& state, WordShape shape) {
  const size_t len = 256;
  Dataset ds = BenchData(1, len);
  SaxEncoder enc(len, shape.segments, 8);
  const std::vector<double> paa = enc.paa().Transform(ds.series(0));
  std::vector<uint8_t> narrow(shape.segments);
  std::vector<uint16_t> wide(shape.segments);
  for (auto _ : state) {
    if (shape.symbol_bytes == 1) {
      for (size_t s = 0; s < shape.segments; ++s) {
        narrow[s] = static_cast<uint8_t>(enc.Symbol(paa[s]));
      }
      benchmark::DoNotOptimize(narrow.data());
    } else {
      for (size_t s = 0; s < shape.segments; ++s) wide[s] = enc.Symbol(paa[s]);
      benchmark::DoNotOptimize(wide.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(shape.segments));
}
BENCHMARK_CAPTURE(BM_SaxWordEncode, dstree_64x8, kDSTreeWords);
BENCHMARK_CAPTURE(BM_SaxWordEncode, isax_16x16, kIsaxWords);

void BM_MemberBounds(benchmark::State& state, WordShape shape,
                     SimdTarget target) {
  if (!SimdTargetSupported(target)) {
    state.SkipWithError("target not supported on this CPU");
    return;
  }
  const size_t len = 256;
  const size_t members = 46;
  Dataset ds = BenchData(members + 1, len);
  SaxEncoder enc(len, shape.segments, 8);
  std::vector<uint8_t> narrow;
  std::vector<uint16_t> wide;
  for (size_t i = 1; i <= members; ++i) {
    for (uint16_t symbol : enc.Encode(ds.series(i))) {
      narrow.push_back(static_cast<uint8_t>(symbol));
      wide.push_back(symbol);
    }
  }
  const void* words = shape.symbol_bytes == 1
                          ? static_cast<const void*>(narrow.data())
                          : static_cast<const void*>(wide.data());
  // The encoder's tables: segment weights, and the breakpoints between
  // -inf and +inf.
  std::vector<double> w(shape.segments);
  for (size_t s = 0; s < shape.segments; ++s) {
    w[s] = static_cast<double>(enc.paa().SegmentLength(s));
  }
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> edges = {-inf};
  for (double b : SaxBreakpoints(256)) edges.push_back(b);
  edges.push_back(inf);
  const std::vector<double> paa = enc.paa().Transform(ds.series(0));
  const DistanceKernels& k = KernelsFor(target);
  std::vector<double> bounds(members);
  double cutoff = inf;
  if (state.range(0) > 0) {
    k.sax_word_bounds_sq(paa.data(), w.data(), edges.data(), shape.segments,
                         words, shape.symbol_bytes, members, inf,
                         bounds.data());
    std::sort(bounds.begin(), bounds.end());
    cutoff = bounds[static_cast<size_t>(state.range(0)) - 1];
  }
  for (auto _ : state) {
    k.sax_word_bounds_sq(paa.data(), w.data(), edges.data(), shape.segments,
                         words, shape.symbol_bytes, members, cutoff,
                         bounds.data());
    benchmark::DoNotOptimize(bounds.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(members));
  state.SetLabel(SimdTargetName(target));
}
BENCHMARK_CAPTURE(BM_MemberBounds, dstree_64x8_dispatched, kDSTreeWords,
                  ActiveSimdTarget())
    ->Arg(0)
    ->Arg(10);
BENCHMARK_CAPTURE(BM_MemberBounds, dstree_64x8_scalar, kDSTreeWords,
                  SimdTarget::kScalar)
    ->Arg(0)
    ->Arg(10);
BENCHMARK_CAPTURE(BM_MemberBounds, isax_16x16_dispatched, kIsaxWords,
                  ActiveSimdTarget())
    ->Arg(0);
BENCHMARK_CAPTURE(BM_MemberBounds, isax_16x16_scalar, kIsaxWords,
                  SimdTarget::kScalar)
    ->Arg(0);

void BM_EapcaTransform(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  Dataset ds = BenchData(1, len);
  Segmentation seg = UniformSegmentation(len, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EapcaTransform(ds.series(0), seg));
  }
}
BENCHMARK(BM_EapcaTransform)->Arg(256)->Arg(1024);

void BM_DftTransform(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  Dataset ds = BenchData(1, len);
  DftFeatures dft(len, 16);
  std::vector<double> out(16);
  for (auto _ : state) {
    dft.Transform(ds.series(0), out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DftTransform)->Arg(256)->Arg(1024);

// CRC-32C over the bytes of one 16-series page of 256-float series:
// the single-buffer Crc32c over all 16 KB, and the block kernel over its
// 16 series of 1 KB, as a verified page read runs it. Each is timed as
// dispatched (SSE4.2 where the CPU has it) and pinned to the table.
constexpr size_t kCrcBlocks = 16;
constexpr size_t kCrcBlockBytes = 1024;

std::vector<uint8_t> CrcPage() {
  Rng rng(42);
  std::vector<uint8_t> page(kCrcBlocks * kCrcBlockBytes);
  for (uint8_t& b : page) b = static_cast<uint8_t>(rng.NextUint64(256));
  return page;
}

void BM_Crc32c(benchmark::State& state, Crc32cFn crc) {
  const std::vector<uint8_t> page = CrcPage();
  uint32_t sum = 0;
  for (auto _ : state) {
    // Each call extends the last checksum, so none can be elided.
    sum = crc(page.data(), page.size(), sum);
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page.size()));
}
BENCHMARK_CAPTURE(BM_Crc32c, dispatched, &Crc32c);
BENCHMARK_CAPTURE(BM_Crc32c, table, &Crc32cTable);

void BM_Crc32cBlocks(benchmark::State& state, Crc32cBlocksFn crc) {
  const std::vector<uint8_t> page = CrcPage();
  uint32_t out[kCrcBlocks];
  for (auto _ : state) {
    crc(page.data(), kCrcBlocks, kCrcBlockBytes, out);
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page.size()));
}
BENCHMARK_CAPTURE(BM_Crc32cBlocks, dispatched, &Crc32cBlocks);
BENCHMARK_CAPTURE(BM_Crc32cBlocks, table, &Crc32cBlocksTable);

// One DSTree build over 20,000 random walks of 256 points with the
// default options: the inserts, every split's candidate scoring, and the
// δ-histogram. Items are series.
void BM_DSTreeBuild(benchmark::State& state) {
  const Dataset ds = BenchData(20000, 256);
  InMemoryProvider provider(&ds);
  for (auto _ : state) {
    auto built = DSTreeIndex::Build(ds, &provider);
    if (!built.ok()) {
      state.SkipWithError(built.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(built.value()->num_nodes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.size()));
}
BENCHMARK(BM_DSTreeBuild)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hydra

int main(int argc, char** argv) {
  hydra::RegisterTargetSweeps();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
