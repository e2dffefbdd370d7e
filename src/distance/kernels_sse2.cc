#include "distance/kernel_tables.h"

// SSE2 is the x86-64 baseline, so this translation unit mostly serves
// 32-bit builds and as the mid dispatch tier HYDRA_SIMD=sse2 pins for
// testing. Compiled with -msse2 where supported.
#if defined(__SSE2__) || (defined(_M_X64) && !defined(_M_ARM64EC))

#include <emmintrin.h>

namespace hydra {
namespace detail {
namespace {

// Operands widened to double before differencing — the same
// double-precision contract as the scalar reference and AVX2 kernels.
inline void Accumulate4(const float* a, const float* b, __m128d* acc_lo,
                        __m128d* acc_hi) {
  __m128 va = _mm_loadu_ps(a);
  __m128 vb = _mm_loadu_ps(b);
  __m128d d_lo = _mm_sub_pd(_mm_cvtps_pd(va), _mm_cvtps_pd(vb));
  __m128 va_hi = _mm_movehl_ps(va, va);
  __m128 vb_hi = _mm_movehl_ps(vb, vb);
  __m128d d_hi = _mm_sub_pd(_mm_cvtps_pd(va_hi), _mm_cvtps_pd(vb_hi));
  *acc_lo = _mm_add_pd(*acc_lo, _mm_mul_pd(d_lo, d_lo));
  *acc_hi = _mm_add_pd(*acc_hi, _mm_mul_pd(d_hi, d_hi));
}

inline double HorizontalSum(__m128d v) {
  return _mm_cvtsd_f64(_mm_add_sd(v, _mm_unpackhi_pd(v, v)));
}

double Sse2SquaredEuclidean(const float* a, const float* b, size_t n) {
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  __m128d acc2 = _mm_setzero_pd();
  __m128d acc3 = _mm_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    Accumulate4(a + i, b + i, &acc0, &acc1);
    Accumulate4(a + i + 4, b + i + 4, &acc2, &acc3);
  }
  double sum = HorizontalSum(
      _mm_add_pd(_mm_add_pd(acc0, acc1), _mm_add_pd(acc2, acc3)));
  for (; i < n; ++i) {
    double d = static_cast<double>(a[i]) - b[i];
    sum += d * d;
  }
  return sum;
}

double Sse2SquaredEuclideanEa(const float* a, const float* b, size_t n,
                              double threshold, bool* abandoned) {
  double sum = 0.0;
  size_t i = 0;
  // Same 32-value abandon granularity as every other target.
  for (; i + 32 <= n; i += 32) {
    __m128d acc0 = _mm_setzero_pd();
    __m128d acc1 = _mm_setzero_pd();
    __m128d acc2 = _mm_setzero_pd();
    __m128d acc3 = _mm_setzero_pd();
    for (size_t j = i; j < i + 32; j += 8) {
      Accumulate4(a + j, b + j, &acc0, &acc1);
      Accumulate4(a + j + 4, b + j + 4, &acc2, &acc3);
    }
    sum += HorizontalSum(
        _mm_add_pd(_mm_add_pd(acc0, acc1), _mm_add_pd(acc2, acc3)));
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

size_t Sse2SquaredEuclideanBatch(const float* query, size_t n,
                                 const float* block, size_t count,
                                 size_t stride, double threshold,
                                 double* out) {
  return BatchLoop(Sse2SquaredEuclideanEa, query, n, block, count, stride,
                   threshold, out);
}

size_t Sse2SquaredEuclideanMulti(const float* const* queries,
                                 size_t num_queries, size_t n,
                                 const float* block, size_t count,
                                 size_t stride, const double* thresholds,
                                 double* out, uint8_t* abandoned) {
  return MultiLoop(Sse2SquaredEuclideanEa, queries, num_queries, n, block,
                   count, stride, thresholds, out, abandoned);
}

double Sse2WeightedClampedDistSq(const double* x, const double* lo,
                                 const double* hi, const double* w,
                                 size_t n) {
  __m128d acc = _mm_setzero_pd();
  const __m128d zero = _mm_setzero_pd();
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128d vx = _mm_loadu_pd(x + i);
    __m128d below = _mm_sub_pd(_mm_loadu_pd(lo + i), vx);
    __m128d above = _mm_sub_pd(vx, _mm_loadu_pd(hi + i));
    __m128d d = _mm_max_pd(_mm_max_pd(below, above), zero);
    acc = _mm_add_pd(acc,
                     _mm_mul_pd(_mm_mul_pd(d, d), _mm_loadu_pd(w + i)));
  }
  double sum = HorizontalSum(acc);
  for (; i < n; ++i) {
    double below = lo[i] - x[i];
    double above = x[i] - hi[i];
    double d = below > above ? below : above;
    if (d < 0.0) d = 0.0;
    sum += w[i] * d * d;
  }
  return sum;
}

}  // namespace

const DistanceKernels kSse2Kernels = {
    Sse2SquaredEuclidean,  Sse2SquaredEuclideanEa, Sse2SquaredEuclideanBatch,
    Sse2SquaredEuclideanMulti,
    Sse2WeightedClampedDistSq,
    // No gather below AVX2: the bound and the table lookups run the
    // scalar loops, already bound by their symbol and cell-id loads.
    ScalarSaxWordBoundsSq,
    ScalarLutAccumulate,   "sse2",
};
const bool kSse2CompiledWithSimd = true;

}  // namespace detail
}  // namespace hydra

#else  // !__SSE2__

namespace hydra {
namespace detail {

const DistanceKernels kSse2Kernels = {
    ScalarSquaredEuclidean,  ScalarSquaredEuclideanEa,
    ScalarSquaredEuclideanBatch, ScalarSquaredEuclideanMulti,
    ScalarWeightedClampedDistSq, ScalarSaxWordBoundsSq,
    ScalarLutAccumulate,     "sse2-unavailable",
};
const bool kSse2CompiledWithSimd = false;

}  // namespace detail
}  // namespace hydra

#endif
