#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/rng.h"
#include "core/generators.h"
#include "distance/euclidean.h"
#include "transform/apca.h"
#include "transform/dft.h"
#include "transform/eapca.h"
#include "transform/fft.h"
#include "transform/paa.h"
#include "transform/sax.h"
#include "transform/znorm.h"

namespace hydra {
namespace {

TEST(ZNorm, NormalizesMeanAndVariance) {
  Rng rng(1);
  std::vector<float> s(100);
  for (float& v : s) v = static_cast<float>(3.0 + 2.0 * rng.NextGaussian());
  ZNormalize(s);
  MeanStd ms = ComputeMeanStd(s);
  EXPECT_NEAR(ms.mean, 0.0, 1e-5);
  EXPECT_NEAR(ms.std, 1.0, 1e-5);
}

TEST(ZNorm, ConstantSeriesBecomesZero) {
  std::vector<float> s(16, 7.0f);
  ZNormalize(s);
  for (float v : s) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(ZNorm, DatasetNormalization) {
  Rng rng(2);
  Dataset ds = MakeRandomWalk(10, 64, rng);
  ZNormalizeDataset(ds);
  for (size_t i = 0; i < ds.size(); ++i) {
    MeanStd ms = ComputeMeanStd(ds.series(i));
    EXPECT_NEAR(ms.mean, 0.0, 1e-4);
  }
}

TEST(Paa, SegmentBoundariesCoverSeries) {
  Paa paa(100, 16);
  EXPECT_EQ(paa.segments(), 16u);
  size_t total = 0;
  for (size_t s = 0; s < paa.segments(); ++s) {
    total += paa.SegmentLength(s);
    EXPECT_GE(paa.SegmentLength(s), 100u / 16u);
    EXPECT_LE(paa.SegmentLength(s), 100u / 16u + 1u);
  }
  EXPECT_EQ(total, 100u);
}

TEST(Paa, TransformComputesSegmentMeans) {
  // 8 points, 2 segments: means of halves.
  std::vector<float> s = {1, 1, 1, 1, 3, 3, 3, 3};
  Paa paa(8, 2);
  auto out = paa.Transform(s);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], 3.0);
}

TEST(Paa, MoreSegmentsThanPointsClamps) {
  Paa paa(4, 9);
  EXPECT_EQ(paa.segments(), 4u);
}

TEST(Paa, LowerBoundIsAdmissible) {
  Rng rng(3);
  Paa paa(64, 8);
  for (int trial = 0; trial < 50; ++trial) {
    Dataset ds = MakeRandomWalk(2, 64, rng);
    auto pa = paa.Transform(ds.series(0));
    auto pb = paa.Transform(ds.series(1));
    double lb = paa.LowerBoundDistance(pa, pb);
    double true_d = Euclidean(ds.series(0), ds.series(1));
    EXPECT_LE(lb, true_d + 1e-9);
  }
}

TEST(Paa, LowerBoundIsExactForPiecewiseConstantSeries) {
  // When both series are constant within each segment, PAA loses nothing.
  std::vector<float> a = {1, 1, 5, 5}, b = {2, 2, 9, 9};
  Paa paa(4, 2);
  auto pa = paa.Transform(a);
  auto pb = paa.Transform(b);
  EXPECT_NEAR(paa.LowerBoundDistance(pa, pb), Euclidean(a, b), 1e-12);
}

TEST(Apca, SegmentsPartitionSeries) {
  Rng rng(4);
  Dataset ds = MakeRandomWalk(1, 64, rng);
  auto apca = ApcaTransform(ds.series(0), 8);
  ASSERT_EQ(apca.size(), 8u);
  EXPECT_EQ(apca.back().end, 64u);
  for (size_t i = 1; i < apca.size(); ++i) {
    EXPECT_GT(apca[i].end, apca[i - 1].end);
  }
}

TEST(Apca, AdaptsBoundariesToStepChange) {
  // A series with one sharp level change: APCA with 2 segments should put
  // the boundary exactly at the change point, unlike fixed PAA.
  std::vector<float> s(40, 0.0f);
  for (size_t t = 25; t < 40; ++t) s[t] = 10.0f;
  auto apca = ApcaTransform(s, 2);
  ASSERT_EQ(apca.size(), 2u);
  EXPECT_EQ(apca[0].end, 25u);
  EXPECT_NEAR(apca[0].value, 0.0, 1e-9);
  EXPECT_NEAR(apca[1].value, 10.0, 1e-9);
}

TEST(Apca, ReconstructionErrorAtMostPaaForStepSeries) {
  std::vector<float> s(32, 1.0f);
  for (size_t t = 13; t < 32; ++t) s[t] = -2.0f;
  auto apca = ApcaTransform(s, 4);
  auto rec = ApcaReconstruct(apca, 32);
  double apca_err = SquaredEuclidean(s, rec);
  Paa paa(32, 4);
  auto pv = paa.Transform(s);
  std::vector<float> paa_rec(32);
  for (size_t seg = 0; seg < 4; ++seg) {
    for (size_t t = paa.SegmentStart(seg);
         t < paa.SegmentStart(seg) + paa.SegmentLength(seg); ++t) {
      paa_rec[t] = static_cast<float>(pv[seg]);
    }
  }
  double paa_err = SquaredEuclidean(s, paa_rec);
  EXPECT_LE(apca_err, paa_err + 1e-9);
}

TEST(Apca, DegenerateRequestsHandled) {
  std::vector<float> s = {1, 2, 3};
  auto full = ApcaTransform(s, 10);
  EXPECT_EQ(full.size(), 3u);
  auto one = ApcaTransform(s, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_NEAR(one[0].value, 2.0, 1e-12);
}

TEST(Eapca, SegmentFeatureMatchesDirectComputation) {
  std::vector<float> s = {1, 2, 3, 4, 5, 6};
  EapcaFeature f = ComputeSegmentFeature(s, 1, 4);  // {2,3,4}
  EXPECT_NEAR(f.mean, 3.0, 1e-12);
  EXPECT_NEAR(f.std, std::sqrt(2.0 / 3.0), 1e-12);
}

TEST(Eapca, UniformSegmentationCovers) {
  Segmentation seg = UniformSegmentation(10, 3);
  ASSERT_EQ(seg.size(), 3u);
  EXPECT_EQ(seg.back(), 10u);
}

TEST(Eapca, LowerAndUpperBoundsBracketTrueDistance) {
  Rng rng(5);
  Segmentation seg = UniformSegmentation(64, 8);
  for (int trial = 0; trial < 100; ++trial) {
    Dataset ds = MakeRandomWalk(2, 64, rng);
    auto fa = EapcaTransform(ds.series(0), seg);
    auto fb = EapcaTransform(ds.series(1), seg);
    double true_sq = SquaredEuclidean(ds.series(0), ds.series(1));
    EXPECT_LE(EapcaLowerBoundSq(fa, fb, seg), true_sq + 1e-6);
    EXPECT_GE(EapcaUpperBoundSq(fa, fb, seg), true_sq - 1e-6);
  }
}

TEST(Eapca, BoundsTightenWithMoreSegments) {
  Rng rng(6);
  Dataset ds = MakeRandomWalk(2, 128, rng);
  double lb_prev = -1.0;
  for (size_t segs : {2, 4, 8, 16}) {
    Segmentation seg = UniformSegmentation(128, segs);
    auto fa = EapcaTransform(ds.series(0), seg);
    auto fb = EapcaTransform(ds.series(1), seg);
    double lb = EapcaLowerBoundSq(fa, fb, seg);
    EXPECT_GE(lb, lb_prev - 1e-9);  // refinement cannot loosen the bound
    lb_prev = lb;
  }
}

TEST(InverseNormalCdf, MatchesKnownQuantiles) {
  EXPECT_NEAR(InverseNormalCdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(InverseNormalCdf(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(InverseNormalCdf(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(InverseNormalCdf(0.8413447), 1.0, 1e-4);
}

TEST(SaxBreakpoints, EquiprobableUnderGaussian) {
  auto beta = SaxBreakpoints(4);
  ASSERT_EQ(beta.size(), 3u);
  EXPECT_NEAR(beta[1], 0.0, 1e-12);       // median
  EXPECT_NEAR(beta[0], -beta[2], 1e-9);   // symmetric
  EXPECT_LT(beta[0], beta[1]);
  EXPECT_LT(beta[1], beta[2]);
}

TEST(SaxEncoder, SymbolsOrderedByValue) {
  SaxEncoder enc(16, 4, 8);
  std::vector<float> low(16, -3.0f), high(16, 3.0f), mid(16, 0.0f);
  auto wl = enc.Encode(low);
  auto wh = enc.Encode(high);
  auto wm = enc.Encode(mid);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_LT(wl[s], wm[s]);
    EXPECT_LT(wm[s], wh[s]);
  }
}

TEST(SaxEncoder, SymbolRegionContainsValue) {
  SaxEncoder enc(64, 8, 8);
  Rng rng(7);
  Dataset ds = MakeRandomWalk(1, 64, rng);
  ZNormalize(ds.mutable_series(0));
  auto paa = enc.paa().Transform(ds.series(0));
  auto word = enc.EncodePaa(paa);
  for (size_t s = 0; s < 8; ++s) {
    for (uint8_t bits = 1; bits <= 8; ++bits) {
      double lo, hi;
      enc.SymbolRegion(word[s], bits, &lo, &hi);
      EXPECT_GE(paa[s], lo);
      EXPECT_LE(paa[s], hi);
    }
  }
}

TEST(SaxEncoder, MinDistZeroForOwnWord) {
  SaxEncoder enc(64, 8, 8);
  Rng rng(8);
  Dataset ds = MakeRandomWalk(1, 64, rng);
  auto paa = enc.paa().Transform(ds.series(0));
  auto word = enc.EncodePaa(paa);
  std::vector<uint8_t> bits(8, 8);
  EXPECT_DOUBLE_EQ(enc.MinDistSqPaaToSax(paa, word, bits), 0.0);
}

TEST(SaxEncoder, MinDistLowerBoundsTrueDistance) {
  SaxEncoder enc(64, 8, 8);
  Rng rng(9);
  std::vector<uint8_t> full_bits(8, 8);
  for (int trial = 0; trial < 100; ++trial) {
    Dataset ds = MakeRandomWalk(2, 64, rng);
    ZNormalize(ds.mutable_series(0));
    ZNormalize(ds.mutable_series(1));
    auto q_paa = enc.paa().Transform(ds.series(0));
    auto word = enc.Encode(ds.series(1));
    double lb_sq = enc.MinDistSqPaaToSax(q_paa, word, full_bits);
    double true_sq = SquaredEuclidean(ds.series(0), ds.series(1));
    EXPECT_LE(lb_sq, true_sq + 1e-6);
  }
}

// Symbol's cell table returns what a binary search of the breakpoints
// returns, at every cardinality: at the breakpoints, one ULP either side
// of them, at random values inside and beyond the outermost ones, and at
// ±inf and NaN.
TEST(SaxEncoder, SymbolEqualsBinarySearch) {
  Rng rng(12);
  for (size_t bits = 1; bits <= 16; ++bits) {
    SaxEncoder enc(64, 8, bits);
    const std::vector<double> beta = SaxBreakpoints(size_t{1} << bits);
    std::vector<double> values = {
        0.0, -0.0, std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max()};
    for (size_t j = 0; j < beta.size(); j += 1 + beta.size() / 512) {
      values.push_back(beta[j]);
      values.push_back(std::nextafter(beta[j], -1e9));
      values.push_back(std::nextafter(beta[j], 1e9));
    }
    for (int i = 0; i < 2000; ++i) values.push_back(6.0 * rng.NextGaussian());
    for (double v : values) {
      const auto want =
          std::upper_bound(beta.begin(), beta.end(), v) - beta.begin();
      ASSERT_EQ(enc.Symbol(v), want) << bits << " bits, v = " << v;
    }
  }
}

// The full-cardinality word bound equals MinDistSqPaaToSax with every
// bit used, to rounding, for 8- and 16-bit words.
TEST(SaxEncoder, WordBoundEqualsFullBitsMinDist) {
  SaxEncoder enc(100, 16, 8);
  Rng rng(13);
  Dataset ds = MakeRandomWalk(40, 100, rng);
  const std::vector<uint8_t> full_bits(16, 8);
  const auto q_paa = enc.paa().Transform(ds.series(0));
  std::vector<uint16_t> words;
  std::vector<uint8_t> narrow;
  for (size_t i = 0; i < ds.size(); ++i) {
    const auto word = enc.Encode(ds.series(i));
    words.insert(words.end(), word.begin(), word.end());
    narrow.insert(narrow.end(), word.begin(), word.end());
  }
  std::vector<double> wide_out(ds.size());
  std::vector<double> narrow_out(ds.size());
  enc.MinDistSqPaaToWords(q_paa, words.data(), std::span<double>(wide_out));
  enc.MinDistSqPaaToWords(q_paa, narrow.data(),
                          std::span<double>(narrow_out));
  for (size_t i = 0; i < ds.size(); ++i) {
    const double want = enc.MinDistSqPaaToSax(
        q_paa, std::span<const uint16_t>(words).subspan(i * 16, 16),
        full_bits);
    EXPECT_NEAR(wide_out[i], want, 1e-9 * (1.0 + want)) << i;
    EXPECT_EQ(wide_out[i], narrow_out[i]) << i;
  }
  EXPECT_EQ(wide_out[0], 0.0);
}

TEST(SaxEncoder, CoarserCardinalityLoosensMinDist) {
  SaxEncoder enc(64, 8, 8);
  Rng rng(10);
  Dataset ds = MakeRandomWalk(2, 64, rng);
  ZNormalize(ds.mutable_series(0));
  ZNormalize(ds.mutable_series(1));
  auto q_paa = enc.paa().Transform(ds.series(0));
  auto word = enc.Encode(ds.series(1));
  double prev = 1e300;
  for (uint8_t b = 8; b >= 1; --b) {
    std::vector<uint8_t> bits(8, b);
    double lb = enc.MinDistSqPaaToSax(q_paa, word, bits);
    EXPECT_LE(lb, prev + 1e-12);  // fewer bits => weaker (smaller) bound
    prev = lb;
  }
}

TEST(Fft, MatchesNaiveDftPowerOfTwo) {
  Rng rng(11);
  const size_t n = 16;
  std::vector<std::complex<double>> a(n);
  for (auto& v : a) v = {rng.NextGaussian(), 0.0};
  auto naive = [&](size_t k) {
    std::complex<double> sum = 0.0;
    for (size_t t = 0; t < n; ++t) {
      double ang = -2.0 * std::numbers::pi * k * t / n;
      sum += a[t] * std::complex<double>(std::cos(ang), std::sin(ang));
    }
    return sum;
  };
  std::vector<std::complex<double>> expect(n);
  for (size_t k = 0; k < n; ++k) expect[k] = naive(k);
  Fft(a, false);
  for (size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(a[k].real(), expect[k].real(), 1e-9);
    EXPECT_NEAR(a[k].imag(), expect[k].imag(), 1e-9);
  }
}

TEST(Fft, BluesteinMatchesNaiveForArbitraryLength) {
  Rng rng(12);
  for (size_t n : {3, 7, 12, 25}) {
    std::vector<std::complex<double>> a(n);
    for (auto& v : a) v = {rng.NextGaussian(), rng.NextGaussian()};
    std::vector<std::complex<double>> naive(n);
    for (size_t k = 0; k < n; ++k) {
      std::complex<double> sum = 0.0;
      for (size_t t = 0; t < n; ++t) {
        double ang =
            -2.0 * std::numbers::pi * static_cast<double>(k * t) / n;
        sum += a[t] * std::complex<double>(std::cos(ang), std::sin(ang));
      }
      naive[k] = sum;
    }
    Fft(a, false);
    for (size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(a[k].real(), naive[k].real(), 1e-8) << "n=" << n;
      EXPECT_NEAR(a[k].imag(), naive[k].imag(), 1e-8) << "n=" << n;
    }
  }
}

TEST(Fft, RoundTripInverse) {
  Rng rng(13);
  for (size_t n : {8, 10}) {
    std::vector<std::complex<double>> a(n), orig;
    for (auto& v : a) v = {rng.NextGaussian(), rng.NextGaussian()};
    orig = a;
    Fft(a, false);
    Fft(a, true);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(a[i].real() / n, orig[i].real(), 1e-9);
      EXPECT_NEAR(a[i].imag() / n, orig[i].imag(), 1e-9);
    }
  }
}

TEST(Dft, FullFeatureDistanceEqualsRawDistance) {
  // With all coefficients retained the orthonormal DFT is an isometry.
  Rng rng(14);
  const size_t n = 32;
  DftFeatures dft(n, n);
  Dataset ds = MakeRandomWalk(2, n, rng);
  auto fa = dft.Transform(ds.series(0));
  auto fb = dft.Transform(ds.series(1));
  double feat_sq = 0.0;
  for (size_t d = 0; d < fa.size(); ++d) {
    double diff = fa[d] - fb[d];
    feat_sq += diff * diff;
  }
  EXPECT_NEAR(feat_sq, SquaredEuclidean(ds.series(0), ds.series(1)), 1e-6);
}

TEST(Dft, TruncatedFeatureDistanceLowerBounds) {
  Rng rng(15);
  const size_t n = 64;
  DftFeatures dft(n, 16);
  for (int trial = 0; trial < 50; ++trial) {
    Dataset ds = MakeRandomWalk(2, n, rng);
    auto fa = dft.Transform(ds.series(0));
    auto fb = dft.Transform(ds.series(1));
    double feat_sq = 0.0;
    for (size_t d = 0; d < fa.size(); ++d) {
      double diff = fa[d] - fb[d];
      feat_sq += diff * diff;
    }
    EXPECT_LE(feat_sq,
              SquaredEuclidean(ds.series(0), ds.series(1)) + 1e-6);
  }
}

TEST(Dft, SmoothSeriesEnergyConcentratesInLeadingCoefficients) {
  Rng rng(16);
  Dataset smooth = MakeSaldAnalog(20, 64, rng);
  DftFeatures few(64, 8), all(64, 64);
  for (size_t i = 0; i < smooth.size(); ++i) {
    auto f8 = few.Transform(smooth.series(i));
    auto f64 = all.Transform(smooth.series(i));
    double e8 = 0.0, e64 = 0.0;
    for (double v : f8) e8 += v * v;
    for (double v : f64) e64 += v * v;
    if (e64 > 1e-9) {
      EXPECT_GT(e8 / e64, 0.8);  // >80% of energy in first 8 features
    }
  }
}

}  // namespace
}  // namespace hydra
