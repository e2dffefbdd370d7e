#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/generators.h"
#include "distance/euclidean.h"
#include "distance/simd_dispatch.h"
#include "index/answer_set.h"
#include "index/leaf_scanner.h"
#include "storage/buffer_manager.h"

namespace hydra {
namespace {

std::vector<SimdTarget> SupportedTargets() {
  std::vector<SimdTarget> targets;
  for (int t = 0; t < kNumSimdTargets; ++t) {
    if (SimdTargetSupported(static_cast<SimdTarget>(t))) {
      targets.push_back(static_cast<SimdTarget>(t));
    }
  }
  return targets;
}

double RelDiff(double a, double b) {
  double scale = std::max({std::abs(a), std::abs(b), 1e-30});
  return std::abs(a - b) / scale;
}

TEST(SimdDispatch, ScalarAlwaysSupported) {
  EXPECT_TRUE(SimdTargetSupported(SimdTarget::kScalar));
  // The active table is one of the supported ones.
  bool found = false;
  for (SimdTarget t : SupportedTargets()) {
    if (t == ActiveSimdTarget()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SimdDispatch, ParseTargetNames) {
  SimdTarget t = SimdTarget::kScalar;
  EXPECT_TRUE(ParseSimdTarget("avx2", &t));
  EXPECT_EQ(t, SimdTarget::kAvx2);
  EXPECT_TRUE(ParseSimdTarget("SSE2", &t));
  EXPECT_EQ(t, SimdTarget::kSse2);
  EXPECT_TRUE(ParseSimdTarget("Scalar", &t));
  EXPECT_EQ(t, SimdTarget::kScalar);
  EXPECT_FALSE(ParseSimdTarget("avx512", &t));
  EXPECT_FALSE(ParseSimdTarget("", &t));
  EXPECT_EQ(t, SimdTarget::kScalar);  // untouched on failure
}

// Every dispatch target available on the build machine must agree with
// the scalar reference on every length from 1 to 1024: odd lengths, the
// 16/32-wide main loops, and the remainder loops all get exercised.
TEST(KernelEquivalence, SquaredEuclideanMatchesScalarAllLengths) {
  Rng rng(7);
  Dataset ds = MakeRandomWalk(2, 1024, rng);
  const DistanceKernels& ref = KernelsFor(SimdTarget::kScalar);
  for (SimdTarget target : SupportedTargets()) {
    const DistanceKernels& k = KernelsFor(target);
    for (size_t n = 1; n <= 1024; ++n) {
      double expected =
          ref.squared_euclidean(ds.series(0).data(), ds.series(1).data(), n);
      double got =
          k.squared_euclidean(ds.series(0).data(), ds.series(1).data(), n);
      ASSERT_LT(RelDiff(expected, got), 1e-6)
          << SimdTargetName(target) << " n=" << n << " expected=" << expected
          << " got=" << got;
    }
  }
}

TEST(KernelEquivalence, EarlyAbandonAgreesWithScalar) {
  Rng rng(11);
  Dataset ds = MakeRandomWalk(2, 1024, rng);
  const DistanceKernels& ref = KernelsFor(SimdTarget::kScalar);
  for (SimdTarget target : SupportedTargets()) {
    const DistanceKernels& k = KernelsFor(target);
    for (size_t n : {1u, 5u, 31u, 32u, 33u, 64u, 100u, 255u, 512u, 1024u}) {
      double full =
          ref.squared_euclidean(ds.series(0).data(), ds.series(1).data(), n);
      // frac == 1.0 exactly is excluded: targets accumulate block sums in
      // different orders, so at a threshold within one ULP of the true
      // distance the abandon decision can legitimately differ.
      for (double frac : {0.0, 0.25, 0.5, 0.99, 1.01, 2.0}) {
        double threshold = full * frac;
        bool ref_abandoned = false;
        double ref_d = ref.squared_euclidean_ea(ds.series(0).data(),
                                                ds.series(1).data(), n,
                                                threshold, &ref_abandoned);
        bool got_abandoned = false;
        double got_d = k.squared_euclidean_ea(ds.series(0).data(),
                                              ds.series(1).data(), n,
                                              threshold, &got_abandoned);
        // Contract: whenever the scalar reference reports > threshold, so
        // does the SIMD target (both abandon at 32-value granularity).
        if (ref_d > threshold) {
          EXPECT_GT(got_d, threshold)
              << SimdTargetName(target) << " n=" << n << " frac=" << frac;
        }
        EXPECT_EQ(ref_abandoned, got_abandoned)
            << SimdTargetName(target) << " n=" << n << " frac=" << frac;
        if (!ref_abandoned) {
          // Completed evaluations must equal the exact distance.
          EXPECT_LT(RelDiff(ref_d, got_d), 1e-6)
              << SimdTargetName(target) << " n=" << n << " frac=" << frac;
        }
      }
    }
  }
}

TEST(KernelEquivalence, EarlyAbandonNeverUnderestimatesAtInfiniteThreshold) {
  Rng rng(13);
  Dataset ds = MakeRandomWalk(2, 333, rng);
  const double inf = std::numeric_limits<double>::infinity();
  for (SimdTarget target : SupportedTargets()) {
    const DistanceKernels& k = KernelsFor(target);
    bool abandoned = true;
    double d = k.squared_euclidean_ea(ds.series(0).data(),
                                      ds.series(1).data(), 333, inf,
                                      &abandoned);
    EXPECT_FALSE(abandoned);
    double full = k.squared_euclidean(ds.series(0).data(),
                                      ds.series(1).data(), 333);
    EXPECT_LT(RelDiff(d, full), 1e-9) << SimdTargetName(target);
  }
}

TEST(KernelEquivalence, BatchMatchesSingleKernel) {
  Rng rng(17);
  // n deliberately not a multiple of the 32-value abandon block, so the
  // threshold candidate's own evaluation cannot tie against itself at the
  // final block check.
  const size_t n = 100;
  const size_t count = 37;  // not a multiple of any unroll width
  Dataset ds = MakeRandomWalk(count + 1, n, rng);
  const float* query = ds.series(count).data();
  for (SimdTarget target : SupportedTargets()) {
    const DistanceKernels& k = KernelsFor(target);
    // Tight threshold so some candidates abandon and some complete.
    double threshold =
        k.squared_euclidean(query, ds.series(count / 2).data(), n);
    std::vector<double> out(count);
    size_t completed = k.squared_euclidean_batch(
        query, n, ds.data(), count, n, threshold, out.data());
    size_t expect_completed = 0;
    for (size_t c = 0; c < count; ++c) {
      bool abandoned = false;
      double single = k.squared_euclidean_ea(query, ds.series(c).data(), n,
                                             threshold, &abandoned);
      EXPECT_EQ(single, out[c]) << SimdTargetName(target) << " c=" << c;
      expect_completed += abandoned ? 0 : 1;
    }
    EXPECT_EQ(completed, expect_completed) << SimdTargetName(target);
    EXPECT_GT(completed, 0u);
    EXPECT_LT(completed, count);
  }
}

// The multi-query kernel (query-batched execution) must produce, for
// every (query, candidate) pair, EXACTLY the single-query early-abandon
// kernel's value at that query's own threshold — same distance, same
// abandon verdict — on every dispatch target, including ragged candidate
// counts that leave partial chunks.
TEST(KernelEquivalence, MultiQueryMatchesPerPairSingleKernel) {
  Rng rng(41);
  const size_t n = 100;  // not a multiple of the 32-value abandon block
  const size_t max_count = 65;
  const size_t nq = 4;
  Dataset ds = MakeRandomWalk(max_count + nq, n, rng);
  std::vector<const float*> queries(nq);
  for (size_t q = 0; q < nq; ++q) {
    queries[q] = ds.series(max_count + q).data();
  }
  for (SimdTarget target : SupportedTargets()) {
    const DistanceKernels& k = KernelsFor(target);
    // Mixed per-query thresholds: one tight (abandons most), one exactly
    // at a mid candidate's distance, one loose, one infinite.
    std::vector<double> thresholds(nq);
    thresholds[0] = 0.25 * k.squared_euclidean(queries[0],
                                               ds.series(0).data(), n);
    thresholds[1] =
        k.squared_euclidean(queries[1], ds.series(max_count / 2).data(), n);
    thresholds[2] =
        4.0 * k.squared_euclidean(queries[2], ds.series(1).data(), n);
    thresholds[3] = std::numeric_limits<double>::infinity();
    // Ragged tails: counts around and below the chunk/unroll widths.
    for (size_t count : {size_t{1}, size_t{7}, size_t{37}, size_t{64},
                         size_t{65}}) {
      std::vector<double> out(nq * count);
      std::vector<uint8_t> abandoned(nq * count);
      size_t completed = k.squared_euclidean_multi(
          queries.data(), nq, n, ds.data(), count, n, thresholds.data(),
          out.data(), abandoned.data());
      size_t expect_completed = 0;
      for (size_t q = 0; q < nq; ++q) {
        for (size_t c = 0; c < count; ++c) {
          bool solo_abandoned = false;
          double solo = k.squared_euclidean_ea(queries[q],
                                               ds.series(c).data(), n,
                                               thresholds[q],
                                               &solo_abandoned);
          ASSERT_EQ(solo, out[q * count + c])
              << SimdTargetName(target) << " q=" << q << " c=" << c
              << " count=" << count;
          ASSERT_EQ(solo_abandoned, abandoned[q * count + c] != 0)
              << SimdTargetName(target) << " q=" << q << " c=" << c
              << " count=" << count;
          expect_completed += solo_abandoned ? 0 : 1;
        }
      }
      EXPECT_EQ(completed, expect_completed)
          << SimdTargetName(target) << " count=" << count;
    }
    // The infinite-threshold query never abandons; the tight one must
    // abandon at least once over the full block (sanity that the mixed
    // thresholds actually exercised both paths).
    std::vector<double> out(nq * max_count);
    std::vector<uint8_t> abandoned(nq * max_count);
    k.squared_euclidean_multi(queries.data(), nq, n, ds.data(), max_count,
                              n, thresholds.data(), out.data(),
                              abandoned.data());
    size_t tight_abandons = 0, inf_abandons = 0;
    for (size_t c = 0; c < max_count; ++c) {
      tight_abandons += abandoned[0 * max_count + c] != 0 ? 1 : 0;
      inf_abandons += abandoned[3 * max_count + c] != 0 ? 1 : 0;
    }
    EXPECT_GT(tight_abandons, 0u) << SimdTargetName(target);
    EXPECT_EQ(inf_abandons, 0u) << SimdTargetName(target);
  }
}

// Cross-target agreement: every supported target's multi kernel agrees
// with the scalar reference pair-for-pair (completed distances within
// rounding, abandon verdicts identical — thresholds away from exact
// distances, as in EarlyAbandonAgreesWithScalar).
TEST(KernelEquivalence, MultiQueryAgreesAcrossTargets) {
  Rng rng(43);
  const size_t n = 96;
  const size_t count = 50;
  const size_t nq = 3;
  Dataset ds = MakeRandomWalk(count + nq, n, rng);
  std::vector<const float*> queries(nq);
  for (size_t q = 0; q < nq; ++q) queries[q] = ds.series(count + q).data();
  const DistanceKernels& ref = KernelsFor(SimdTarget::kScalar);
  std::vector<double> thresholds(nq);
  for (size_t q = 0; q < nq; ++q) {
    thresholds[q] =
        0.5 * ref.squared_euclidean(queries[q], ds.series(0).data(), n);
  }
  std::vector<double> expected(nq * count);
  std::vector<uint8_t> expected_abandoned(nq * count);
  ref.squared_euclidean_multi(queries.data(), nq, n, ds.data(), count, n,
                              thresholds.data(), expected.data(),
                              expected_abandoned.data());
  for (SimdTarget target : SupportedTargets()) {
    const DistanceKernels& k = KernelsFor(target);
    std::vector<double> got(nq * count);
    // Null abandoned pointer is part of the contract (callers that only
    // need distances).
    size_t completed = k.squared_euclidean_multi(
        queries.data(), nq, n, ds.data(), count, n, thresholds.data(),
        got.data(), nullptr);
    std::vector<uint8_t> got_abandoned(nq * count);
    k.squared_euclidean_multi(queries.data(), nq, n, ds.data(), count, n,
                              thresholds.data(), got.data(),
                              got_abandoned.data());
    size_t expect_completed = 0;
    for (size_t i = 0; i < nq * count; ++i) {
      ASSERT_EQ(expected_abandoned[i], got_abandoned[i])
          << SimdTargetName(target) << " pair " << i;
      if (!expected_abandoned[i]) {
        ASSERT_LT(RelDiff(expected[i], got[i]), 1e-6)
            << SimdTargetName(target) << " pair " << i;
        ++expect_completed;
      }
    }
    EXPECT_EQ(completed, expect_completed) << SimdTargetName(target);
  }
}

TEST(KernelEquivalence, WeightedClampedDistSqMatchesScalar) {
  Rng rng(19);
  const size_t n = 67;
  std::vector<double> x(n), lo(n), hi(n), w(n);
  const double inf = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.NextGaussian();
    double a = rng.NextGaussian();
    double b = rng.NextGaussian();
    lo[i] = std::min(a, b);
    hi[i] = std::max(a, b);
    w[i] = 1.0 + static_cast<double>(i % 7);
  }
  // Unbounded sides must behave (SAX segments with few bits).
  lo[0] = -inf;
  hi[1] = inf;
  lo[2] = -inf;
  hi[2] = inf;
  const DistanceKernels& ref = KernelsFor(SimdTarget::kScalar);
  double expected =
      ref.weighted_clamped_dist_sq(x.data(), lo.data(), hi.data(), w.data(), n);
  for (SimdTarget target : SupportedTargets()) {
    const DistanceKernels& k = KernelsFor(target);
    double got = k.weighted_clamped_dist_sq(x.data(), lo.data(), hi.data(),
                                            w.data(), n);
    EXPECT_LT(RelDiff(expected, got), 1e-9) << SimdTargetName(target);
  }
}

// The member bound row, for DSTree's 8-bit and iSAX2+'s 16-bit words, at
// word lengths with and without a tail of fewer than four segments:
// every target equals the scalar reference, with or without a cutoff;
// a result the cutoff stopped is above it and at most the full bound.
TEST(KernelEquivalence, SaxWordBoundsMatchScalar) {
  const double inf = std::numeric_limits<double>::infinity();
  auto edges_for = [inf](size_t cardinality) {
    std::vector<double> edges = {-inf};
    for (size_t i = 1; i < cardinality; ++i) {
      // Standard-normal-like spacing; only the order matters here.
      const double p = static_cast<double>(i) / cardinality;
      edges.push_back(std::log(p / (1.0 - p)));
    }
    edges.push_back(inf);
    return edges;
  };
  const std::vector<double> edges8 = edges_for(256);
  const std::vector<double> edges16 = edges_for(1024);
  const DistanceKernels& ref = KernelsFor(SimdTarget::kScalar);
  Rng rng(29);
  size_t stopped = 0;
  for (size_t segments : {size_t{3}, size_t{16}, size_t{20}, size_t{64},
                          size_t{67}}) {
    const size_t count = 37;
    std::vector<double> paa(segments), w(segments);
    for (size_t s = 0; s < segments; ++s) {
      // Some segment means lie beyond the outermost edges.
      paa[s] = (s % 5 == 0 ? 4.0 : 1.5) * rng.NextGaussian();
      w[s] = 1.0 + static_cast<double>(s % 5);
    }
    std::vector<uint8_t> narrow(count * segments);
    std::vector<uint16_t> wide(count * segments);
    for (size_t i = 0; i < narrow.size(); ++i) {
      narrow[i] = static_cast<uint8_t>(rng.NextUint64(256));
      wide[i] = static_cast<uint16_t>(rng.NextUint64(1024));
    }
    // Symbols whose region is unbounded on one side (an edge at ±inf).
    narrow[0] = 0;
    narrow[1] = 255;
    wide[0] = 0;
    wide[1] = 1023;
    struct Words {
      const void* data;
      size_t bytes;
      const std::vector<double>& edges;
    };
    for (const Words& words : {Words{narrow.data(), 1, edges8},
                               Words{wide.data(), 2, edges16}}) {
      std::vector<double> full(count);
      ref.sax_word_bounds_sq(paa.data(), w.data(), words.edges.data(),
                             segments, words.data, words.bytes, count, inf,
                             full.data());
      for (double b : full) ASSERT_GE(b, 0.0);
      const double median = [&] {
        std::vector<double> sorted = full;
        std::sort(sorted.begin(), sorted.end());
        return sorted[count / 2];
      }();
      for (double cutoff : {inf, median, 0.25 * median, 0.0, -1.0}) {
        std::vector<double> expected(count);
        ref.sax_word_bounds_sq(paa.data(), w.data(), words.edges.data(),
                               segments, words.data, words.bytes, count,
                               cutoff, expected.data());
        for (SimdTarget target : SupportedTargets()) {
          std::vector<double> got(count, -1.0);
          KernelsFor(target).sax_word_bounds_sq(
              paa.data(), w.data(), words.edges.data(), segments,
              words.data, words.bytes, count, cutoff, got.data());
          for (size_t m = 0; m < count; ++m) {
            const std::string what = std::string(SimdTargetName(target)) +
                                     " segments " + std::to_string(segments) +
                                     " bytes " + std::to_string(words.bytes) +
                                     " cutoff " + std::to_string(cutoff) +
                                     " member " + std::to_string(m);
            ASSERT_LT(RelDiff(expected[m], got[m]), 1e-9) << what;
            if (RelDiff(got[m], full[m]) >= 1e-9) {
              // Stopped early: past the cutoff, never past the full bound.
              ASSERT_GT(got[m], cutoff) << what;
              ASSERT_LE(got[m], full[m]) << what;
              stopped += target == SimdTarget::kScalar ? 1 : 0;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(stopped, 0u);
}

TEST(KernelEquivalence, LutAccumulateMatchesScalar) {
  Rng rng(23);
  const size_t count = 101;
  const size_t stride = 5;
  std::vector<double> lut(64);
  for (double& v : lut) v = std::abs(rng.NextGaussian());
  std::vector<uint32_t> cells(count * stride);
  for (uint32_t& c : cells) {
    c = static_cast<uint32_t>(rng.NextUint64(lut.size()));
  }
  std::vector<double> expected(count, 0.5);
  KernelsFor(SimdTarget::kScalar)
      .lut_accumulate(lut.data(), cells.data(), count, stride,
                      expected.data());
  for (SimdTarget target : SupportedTargets()) {
    std::vector<double> got(count, 0.5);
    KernelsFor(target).lut_accumulate(lut.data(), cells.data(), count, stride,
                                      got.data());
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(expected[i], got[i])
          << SimdTargetName(target) << " i=" << i;
    }
  }
}

// The public span API must route through the active table.
TEST(KernelEquivalence, PublicApiMatchesActiveKernels) {
  Rng rng(29);
  Dataset ds = MakeRandomWalk(2, 160, rng);
  double via_api = SquaredEuclidean(ds.series(0), ds.series(1));
  double via_table = ActiveKernels().squared_euclidean(
      ds.series(0).data(), ds.series(1).data(), 160);
  EXPECT_EQ(via_api, via_table);
  EXPECT_EQ(Euclidean(ds.series(0), ds.series(1)), std::sqrt(via_table));
}

// LeafScanner: same answers as a hand-rolled scan, and the counter split
// full + abandoned == candidates evaluated.
TEST(LeafScanner, CountsFullAndAbandonedSeparately) {
  Rng rng(31);
  Dataset ds = MakeRandomWalk(200, 128, rng);
  InMemoryProvider provider(&ds);
  Dataset qs = MakeRandomWalk(1, 128, rng);

  std::vector<int64_t> ids(ds.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);

  AnswerSet answers(5);
  QueryCounters c;
  LeafScanner scanner(qs.series(0), &answers, &c);
  Result<size_t> scanned = scanner.ScanIds(&provider, ids);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned.value(), ds.size());
  EXPECT_EQ(c.full_distances + c.abandoned_distances, ds.size());
  EXPECT_GT(c.abandoned_distances, 0u);  // k=5 over 200 walks must abandon
  EXPECT_EQ(c.series_accessed, ds.size());

  // Same ids as brute force.
  KnnAnswer got = answers.Finish();
  std::priority_queue<std::pair<double, int64_t>> heap;
  for (size_t i = 0; i < ds.size(); ++i) {
    heap.emplace(SquaredEuclidean(qs.series(0), ds.series(i)),
                 static_cast<int64_t>(i));
    if (heap.size() > 5) heap.pop();
  }
  std::vector<int64_t> expected;
  while (!heap.empty()) {
    expected.push_back(heap.top().second);
    heap.pop();
  }
  std::reverse(expected.begin(), expected.end());
  EXPECT_EQ(got.ids, expected);
}

// Batched contiguous scanning returns the same answers as one-by-one
// scanning (the chunked threshold is only ever looser, never wrong).
TEST(LeafScanner, ContiguousMatchesPerIdScan) {
  Rng rng(37);
  Dataset ds = MakeRandomWalk(300, 96, rng);
  InMemoryProvider provider(&ds);
  Dataset qs = MakeRandomWalk(3, 96, rng);

  for (size_t q = 0; q < qs.size(); ++q) {
    AnswerSet batched(7);
    QueryCounters cb;
    LeafScanner bs(qs.series(q), &batched, &cb);
    Result<size_t> scanned = bs.ScanRange(&provider, 0, ds.size());
    ASSERT_TRUE(scanned.ok());
    EXPECT_EQ(scanned.value(), ds.size());

    AnswerSet single(7);
    QueryCounters cs;
    LeafScanner ss(qs.series(q), &single, &cs);
    for (size_t i = 0; i < ds.size(); ++i) {
      ss.ScanContiguous(ds.series(i).data(), 1, ds.length(),
                        static_cast<int64_t>(i));
    }

    KnnAnswer a = batched.Finish();
    KnnAnswer b = single.Finish();
    EXPECT_EQ(a.ids, b.ids);
    EXPECT_EQ(a.distances, b.distances);
    EXPECT_EQ(cb.full_distances + cb.abandoned_distances, ds.size());
  }
}

}  // namespace
}  // namespace hydra
