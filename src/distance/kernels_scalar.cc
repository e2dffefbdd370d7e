#include "distance/kernel_tables.h"

#include <algorithm>
#include <cstdint>

namespace hydra {
namespace detail {

// Early-abandon checks happen once per this many values on every target,
// so abandonment decisions (and therefore counter values) agree between
// scalar, SSE2, and AVX2 builds.
inline constexpr size_t kAbandonBlock = 32;

double ScalarSquaredEuclidean(const float* a, const float* b, size_t n) {
  // Four independent accumulators let the compiler vectorize without
  // needing -ffast-math (FP addition is not associative).
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    double d0 = static_cast<double>(a[i]) - b[i];
    double d1 = static_cast<double>(a[i + 1]) - b[i + 1];
    double d2 = static_cast<double>(a[i + 2]) - b[i + 2];
    double d3 = static_cast<double>(a[i + 3]) - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  for (; i < n; ++i) {
    double d = static_cast<double>(a[i]) - b[i];
    s0 += d * d;
  }
  return (s0 + s1) + (s2 + s3);
}

double ScalarSquaredEuclideanEa(const float* a, const float* b, size_t n,
                                double threshold, bool* abandoned) {
  double sum = 0.0;
  size_t i = 0;
  for (; i + kAbandonBlock <= n; i += kAbandonBlock) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t j = i; j < i + kAbandonBlock; j += 4) {
      double d0 = static_cast<double>(a[j]) - b[j];
      double d1 = static_cast<double>(a[j + 1]) - b[j + 1];
      double d2 = static_cast<double>(a[j + 2]) - b[j + 2];
      double d3 = static_cast<double>(a[j + 3]) - b[j + 3];
      s0 += d0 * d0;
      s1 += d1 * d1;
      s2 += d2 * d2;
      s3 += d3 * d3;
    }
    sum += (s0 + s1) + (s2 + s3);
    if (sum > threshold) {
      if (abandoned != nullptr) *abandoned = true;
      return sum;
    }
  }
  for (; i < n; ++i) {
    double d = static_cast<double>(a[i]) - b[i];
    sum += d * d;
  }
  if (abandoned != nullptr) *abandoned = false;
  return sum;
}

size_t ScalarSquaredEuclideanBatch(const float* query, size_t n,
                                   const float* block, size_t count,
                                   size_t stride, double threshold,
                                   double* out) {
  return BatchLoop(ScalarSquaredEuclideanEa, query, n, block, count, stride,
                   threshold, out);
}

size_t ScalarSquaredEuclideanMulti(const float* const* queries,
                                   size_t num_queries, size_t n,
                                   const float* block, size_t count,
                                   size_t stride, const double* thresholds,
                                   double* out, uint8_t* abandoned) {
  return MultiLoop(ScalarSquaredEuclideanEa, queries, num_queries, n, block,
                   count, stride, thresholds, out, abandoned);
}

double ScalarWeightedClampedDistSq(const double* x, const double* lo,
                                   const double* hi, const double* w,
                                   size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    // At most one of (lo - x) and (x - hi) is positive; max against 0
    // covers the inside-the-interval case and unbounded (+-inf) sides.
    double below = lo[i] - x[i];
    double above = x[i] - hi[i];
    double d = below > above ? below : above;
    if (d < 0.0) d = 0.0;
    sum += w[i] * d * d;
  }
  return sum;
}

namespace {

template <typename Sym>
void SaxWordBounds(const double* q, const double* w, const double* e,
                   size_t n, const Sym* words, size_t count, double cutoff,
                   double* out) {
  // w·d² of segment s, d the distance from the query to its region.
  auto term = [&](const Sym* word, size_t s) {
    const double d = std::max(
        std::max(e[word[s]] - q[s], q[s] - e[word[s] + 1]), 0.0);
    return w[s] * d * d;
  };
  const size_t body = n & ~size_t{3};  // whole groups of four segments
  for (size_t m = 0; m < count; ++m, words += n) {
    // Four partial sums: one running sum would make every segment wait
    // on the previous one's addition.
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    size_t s = 0;
    bool passed = false;
    while (s < body && !passed) {
      const size_t stop = std::min(body, s + kSaxBoundBlock);
      for (; s < stop; s += 4) {
        s0 += term(words, s);
        s1 += term(words, s + 1);
        s2 += term(words, s + 2);
        s3 += term(words, s + 3);
      }
      passed = s < n && (s0 + s1) + (s2 + s3) > cutoff;
    }
    for (; s < n && !passed; ++s) s0 += term(words, s);
    out[m] = (s0 + s1) + (s2 + s3);
  }
}

}  // namespace

void ScalarSaxWordBoundsSq(const double* paa, const double* w,
                           const double* edges, size_t segments,
                           const void* words, size_t symbol_bytes,
                           size_t count, double cutoff, double* out) {
  if (symbol_bytes == 1) {
    SaxWordBounds(paa, w, edges, segments,
                  static_cast<const uint8_t*>(words), count, cutoff, out);
  } else {
    SaxWordBounds(paa, w, edges, segments,
                  static_cast<const uint16_t*>(words), count, cutoff, out);
  }
}

void ScalarLutAccumulate(const double* lut, const uint32_t* cells,
                         size_t count, size_t stride, double* acc) {
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    acc[i] += lut[cells[i * stride]];
    acc[i + 1] += lut[cells[(i + 1) * stride]];
    acc[i + 2] += lut[cells[(i + 2) * stride]];
    acc[i + 3] += lut[cells[(i + 3) * stride]];
  }
  for (; i < count; ++i) {
    acc[i] += lut[cells[i * stride]];
  }
}

const DistanceKernels kScalarKernels = {
    ScalarSquaredEuclidean,  ScalarSquaredEuclideanEa,
    ScalarSquaredEuclideanBatch, ScalarSquaredEuclideanMulti,
    ScalarWeightedClampedDistSq, ScalarSaxWordBoundsSq,
    ScalarLutAccumulate,     "scalar",
};

}  // namespace detail
}  // namespace hydra
