#ifndef HYDRA_DISTANCE_KERNEL_TABLES_H_
#define HYDRA_DISTANCE_KERNEL_TABLES_H_

// Internal to src/distance: the per-target kernel tables the dispatcher
// selects between, plus the scalar entry points that SIMD translation
// units fall back to when their instruction set was not enabled at
// compile time (so the tables always link, and support is decided at
// runtime by the dispatcher alone).

#include "distance/simd_dispatch.h"

namespace hydra {
namespace detail {

extern const DistanceKernels kScalarKernels;
extern const DistanceKernels kSse2Kernels;
extern const DistanceKernels kAvx2Kernels;

// True when the translation unit was actually compiled with the target's
// instruction set (CMake passes -msse2 / -mavx2 -mfma per file where the
// compiler supports them); false means the table aliases the scalar code.
extern const bool kSse2CompiledWithSimd;
extern const bool kAvx2CompiledWithSimd;

// One batch-loop shape shared by every target: per-candidate early
// abandoning at the caller's threshold plus a lookahead prefetch.
// `ea` is the target's early-abandon kernel so the call inlines inside
// each translation unit.
template <typename EaFn>
inline size_t BatchLoop(EaFn ea, const float* query, size_t n,
                        const float* block, size_t count, size_t stride,
                        double threshold, double* out) {
  size_t completed = 0;
  for (size_t c = 0; c < count; ++c) {
    if (c + 1 < count) {
      // Pull the head of the next candidate while this one is evaluated;
      // contiguous layouts make the rest of it a sequential stream.
      __builtin_prefetch(block + (c + 1) * stride, 0, 1);
    }
    bool abandoned = false;
    out[c] = ea(query, block + c * stride, n, threshold, &abandoned);
    completed += abandoned ? 0 : 1;
  }
  return completed;
}

// The multi-query batch-loop shape shared by every target: candidates in
// the outer loop (one pass over the pinned block serves every query while
// the candidate is cache-hot, with the same lookahead prefetch as
// BatchLoop), queries in the inner loop, each pair evaluated by the
// target's single-query early-abandon kernel at that query's own
// threshold. Per-pair results are therefore bit-identical to per-query
// execution by construction — the batched path shares I/O and cache
// locality, never arithmetic shortcuts.
template <typename EaFn>
inline size_t MultiLoop(EaFn ea, const float* const* queries,
                        size_t num_queries, size_t n, const float* block,
                        size_t count, size_t stride, const double* thresholds,
                        double* out, uint8_t* abandoned) {
  size_t completed = 0;
  for (size_t c = 0; c < count; ++c) {
    if (c + 1 < count) {
      __builtin_prefetch(block + (c + 1) * stride, 0, 1);
    }
    const float* candidate = block + c * stride;
    for (size_t q = 0; q < num_queries; ++q) {
      bool pair_abandoned = false;
      out[q * count + c] =
          ea(queries[q], candidate, n, thresholds[q], &pair_abandoned);
      if (abandoned != nullptr) {
        abandoned[q * count + c] = pair_abandoned ? 1 : 0;
      }
      completed += pair_abandoned ? 0 : 1;
    }
  }
  return completed;
}

// Scalar reference implementations (also the fallback bodies above).
double ScalarSquaredEuclidean(const float* a, const float* b, size_t n);
double ScalarSquaredEuclideanEa(const float* a, const float* b, size_t n,
                                double threshold, bool* abandoned);
size_t ScalarSquaredEuclideanBatch(const float* query, size_t n,
                                   const float* block, size_t count,
                                   size_t stride, double threshold,
                                   double* out);
size_t ScalarSquaredEuclideanMulti(const float* const* queries,
                                   size_t num_queries, size_t n,
                                   const float* block, size_t count,
                                   size_t stride, const double* thresholds,
                                   double* out, uint8_t* abandoned);
double ScalarWeightedClampedDistSq(const double* x, const double* lo,
                                   const double* hi, const double* w,
                                   size_t n);
void ScalarSaxWordBoundsSq(const double* paa, const double* w,
                           const double* edges, size_t segments,
                           const void* words, size_t symbol_bytes,
                           size_t count, double cutoff, double* out);
void ScalarLutAccumulate(const double* lut, const uint32_t* cells,
                         size_t count, size_t stride, double* acc);

}  // namespace detail
}  // namespace hydra

#endif  // HYDRA_DISTANCE_KERNEL_TABLES_H_
