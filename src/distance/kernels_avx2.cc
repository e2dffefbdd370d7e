#include "distance/kernel_tables.h"

// Compiled with -mavx2 -mfma when the toolchain supports it (see
// CMakeLists.txt); otherwise the table below aliases the scalar kernels
// and the dispatcher reports the target as unavailable.
#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>

namespace hydra {
namespace detail {
namespace {

// Differences are formed in double (each operand widened first), exactly
// like the scalar reference, so the kernel keeps the seed's contract of
// double-precision-accurate distances (core_test pins it to 1e-9
// absolute). Each 8-float pair feeds two 4-lane double FMAs.
inline void Accumulate8(const float* a, const float* b, __m256d* acc_lo,
                        __m256d* acc_hi) {
  // 128-bit loads feed vcvtps2pd directly (no 256-bit load + lane
  // extract), which keeps the widen-then-subtract exactness cheap.
  __m256d d_lo = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a)),
                               _mm256_cvtps_pd(_mm_loadu_ps(b)));
  __m256d d_hi = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + 4)),
                               _mm256_cvtps_pd(_mm_loadu_ps(b + 4)));
  *acc_lo = _mm256_fmadd_pd(d_lo, d_lo, *acc_lo);
  *acc_hi = _mm256_fmadd_pd(d_hi, d_hi, *acc_hi);
}

inline double HorizontalSum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  __m128d sum2 = _mm_add_pd(lo, hi);
  __m128d sum1 = _mm_add_sd(sum2, _mm_unpackhi_pd(sum2, sum2));
  return _mm_cvtsd_f64(sum1);
}

double Avx2SquaredEuclidean(const float* a, const float* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    Accumulate8(a + i, b + i, &acc0, &acc1);
    Accumulate8(a + i + 8, b + i + 8, &acc2, &acc3);
  }
  double sum = HorizontalSum(
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) {
    double d = static_cast<double>(a[i]) - b[i];
    sum += d * d;
  }
  return sum;
}

double Avx2SquaredEuclideanEa(const float* a, const float* b, size_t n,
                              double threshold, bool* abandoned) {
  double sum = 0.0;
  size_t i = 0;
  // One abandon check per 32-value block (kernel contract shared with the
  // scalar reference): the block is reduced horizontally, added to the
  // running sum, and compared once.
  for (; i + 32 <= n; i += 32) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    Accumulate8(a + i, b + i, &acc0, &acc1);
    Accumulate8(a + i + 8, b + i + 8, &acc2, &acc3);
    Accumulate8(a + i + 16, b + i + 16, &acc0, &acc1);
    Accumulate8(a + i + 24, b + i + 24, &acc2, &acc3);
    sum += HorizontalSum(
        _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
    if (sum > threshold) {
      if (abandoned != nullptr) *abandoned = true;
      return sum;
    }
  }
  if (i + 16 <= n) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    Accumulate8(a + i, b + i, &acc0, &acc1);
    Accumulate8(a + i + 8, b + i + 8, &acc0, &acc1);
    sum += HorizontalSum(_mm256_add_pd(acc0, acc1));
    i += 16;
  }
  for (; i < n; ++i) {
    double d = static_cast<double>(a[i]) - b[i];
    sum += d * d;
  }
  if (abandoned != nullptr) *abandoned = false;
  return sum;
}

size_t Avx2SquaredEuclideanBatch(const float* query, size_t n,
                                 const float* block, size_t count,
                                 size_t stride, double threshold,
                                 double* out) {
  return BatchLoop(Avx2SquaredEuclideanEa, query, n, block, count, stride,
                   threshold, out);
}

size_t Avx2SquaredEuclideanMulti(const float* const* queries,
                                 size_t num_queries, size_t n,
                                 const float* block, size_t count,
                                 size_t stride, const double* thresholds,
                                 double* out, uint8_t* abandoned) {
  return MultiLoop(Avx2SquaredEuclideanEa, queries, num_queries, n, block,
                   count, stride, thresholds, out, abandoned);
}

double Avx2WeightedClampedDistSq(const double* x, const double* lo,
                                 const double* hi, const double* w,
                                 size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d vx = _mm256_loadu_pd(x + i);
    __m256d below = _mm256_sub_pd(_mm256_loadu_pd(lo + i), vx);
    __m256d above = _mm256_sub_pd(vx, _mm256_loadu_pd(hi + i));
    __m256d d = _mm256_max_pd(_mm256_max_pd(below, above), zero);
    acc = _mm256_fmadd_pd(_mm256_mul_pd(d, d), _mm256_loadu_pd(w + i), acc);
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

// A value the compiler must round on its own: fused with the addition
// that follows into one FMA, a product would round differently from the
// scalar reference's.
template <typename T>
inline T Rounded(T v) {
  __asm__("" : "+x"(v));
  return v;
}

// (l0 + l1) + (l2 + l3): the scalar reference's (s0 + s1) + (s2 + s3).
inline double PairwiseSum(__m256d v) {
  const __m128d h = _mm_hadd_pd(_mm256_castpd256_pd128(v),
                                _mm256_extractf128_pd(v, 1));
  return _mm_cvtsd_f64(_mm_add_sd(h, _mm_unpackhi_pd(h, h)));
}

// Four segments a step: lane j holds the scalar reference's partial sum
// s_j. Each segment's region is gathered by its symbol with one 16-byte
// load of its two adjacent edges, and four such pairs are transposed
// into a vector of lower and one of upper edges: vgatherdpd ran slower
// than the scalar loop on the Xeon this was tuned on.
template <typename Sym>
void Avx2SaxWordBounds(const double* q, const double* w, const double* e,
                       size_t n, const Sym* words, size_t count,
                       double cutoff, double* out) {
  const __m256d zero = _mm256_setzero_pd();
  const size_t body = n & ~size_t{3};
  for (size_t m = 0; m < count; ++m, words += n) {
    __m256d acc = zero;
    size_t s = 0;
    bool passed = false;
    while (s < body && !passed) {
      const size_t stop = std::min(body, s + kSaxBoundBlock);
      for (; s < stop; s += 4) {
        // (lo0, hi0, lo2, hi2) and (lo1, hi1, lo3, hi3).
        const __m256d even = _mm256_insertf128_pd(
            _mm256_castpd128_pd256(_mm_loadu_pd(e + words[s])),
            _mm_loadu_pd(e + words[s + 2]), 1);
        const __m256d odd = _mm256_insertf128_pd(
            _mm256_castpd128_pd256(_mm_loadu_pd(e + words[s + 1])),
            _mm_loadu_pd(e + words[s + 3]), 1);
        const __m256d lo = _mm256_unpacklo_pd(even, odd);
        const __m256d hi = _mm256_unpackhi_pd(even, odd);
        const __m256d vq = _mm256_loadu_pd(q + s);
        const __m256d d = _mm256_max_pd(
            _mm256_max_pd(_mm256_sub_pd(lo, vq), _mm256_sub_pd(vq, hi)),
            zero);
        acc = _mm256_add_pd(
            acc, Rounded(_mm256_mul_pd(
                     _mm256_mul_pd(_mm256_loadu_pd(w + s), d), d)));
      }
      passed = s < n && PairwiseSum(acc) > cutoff;
    }
    if (passed || s == n) {
      out[m] = PairwiseSum(acc);
      continue;
    }
    alignas(32) double sums[4];
    _mm256_store_pd(sums, acc);
    for (; s < n; ++s) {
      const double d = std::max(
          std::max(e[words[s]] - q[s], q[s] - e[words[s] + 1]), 0.0);
      sums[0] += Rounded(w[s] * d * d);
    }
    out[m] = (sums[0] + sums[1]) + (sums[2] + sums[3]);
  }
}

void Avx2SaxWordBoundsSq(const double* paa, const double* w,
                         const double* edges, size_t segments,
                         const void* words, size_t symbol_bytes,
                         size_t count, double cutoff, double* out) {
  if (symbol_bytes == 1) {
    Avx2SaxWordBounds(paa, w, edges, segments,
                      static_cast<const uint8_t*>(words), count, cutoff, out);
  } else {
    Avx2SaxWordBounds(paa, w, edges, segments,
                      static_cast<const uint16_t*>(words), count, cutoff,
                      out);
  }
}

void Avx2LutAccumulate(const double* lut, const uint32_t* cells, size_t count,
                       size_t stride, double* acc) {
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    // Cell ids sit `stride` apart (row-major approximation file); gather
    // the four table entries they select in one instruction.
    __m128i idx = _mm_set_epi32(static_cast<int>(cells[(i + 3) * stride]),
                                static_cast<int>(cells[(i + 2) * stride]),
                                static_cast<int>(cells[(i + 1) * stride]),
                                static_cast<int>(cells[i * stride]));
    // The masked gather with a zero source and every lane selected: the
    // same loads as the unmasked form, without its undefined source
    // operand (which gcc reports as maybe-uninitialized).
    __m256d vals = _mm256_mask_i32gather_pd(
        _mm256_setzero_pd(), lut, idx,
        _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), sizeof(double));
    _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i), vals));
  }
  for (; i < count; ++i) {
    acc[i] += lut[cells[i * stride]];
  }
}

}  // namespace

const DistanceKernels kAvx2Kernels = {
    Avx2SquaredEuclidean,  Avx2SquaredEuclideanEa, Avx2SquaredEuclideanBatch,
    Avx2SquaredEuclideanMulti,
    Avx2WeightedClampedDistSq, Avx2SaxWordBoundsSq,
    Avx2LutAccumulate,  "avx2",
};
const bool kAvx2CompiledWithSimd = true;

}  // namespace detail
}  // namespace hydra

#else  // !(__AVX2__ && __FMA__)

namespace hydra {
namespace detail {

const DistanceKernels kAvx2Kernels = {
    ScalarSquaredEuclidean,  ScalarSquaredEuclideanEa,
    ScalarSquaredEuclideanBatch, ScalarSquaredEuclideanMulti,
    ScalarWeightedClampedDistSq, ScalarSaxWordBoundsSq,
    ScalarLutAccumulate,     "avx2-unavailable",
};
const bool kAvx2CompiledWithSimd = false;

}  // namespace detail
}  // namespace hydra

#endif
