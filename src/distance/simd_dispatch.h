#ifndef HYDRA_DISTANCE_SIMD_DISPATCH_H_
#define HYDRA_DISTANCE_SIMD_DISPATCH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hydra {

// Instruction-set targets of the distance kernel subsystem, ordered from
// least to most capable. The dispatcher picks the best target the build
// *and* the running CPU both support, once, at first use.
enum class SimdTarget : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,  // AVX2 + FMA
};

inline constexpr int kNumSimdTargets = 3;

// One table of distance kernels per target. All functions share exact
// semantics across targets up to floating-point rounding:
//
//  * squared_euclidean: sum over i of (a[i] - b[i])^2, accumulated in
//    double precision (differences are formed in double, so results agree
//    with the scalar reference to a few ULPs, not just to float epsilon).
//
//  * squared_euclidean_ea: early-abandoning variant. The running sum is
//    checked against `threshold` once per 32-value block; as soon as it
//    exceeds the threshold a partial sum (> threshold, not the exact
//    distance) is returned. `abandoned`, when non-null, is set to whether
//    the evaluation stopped early. Because partial sums of squares are
//    monotone, an abandoned return value never compares <= threshold.
//
//  * squared_euclidean_batch: evaluates `query` against `count` candidates
//    laid out at block + c * stride (contiguous when stride == n), each
//    with early abandoning at the shared `threshold`, writing per-candidate
//    results to out[0..count). Returns how many candidates ran to
//    completion (the rest abandoned; their out[] value is > threshold).
//
//  * weighted_clamped_dist_sq: sum over i of w[i] * d_i^2 where d_i is the
//    distance from x[i] to the interval [lo[i], hi[i]] (0 inside). The
//    shared inner loop of the SAX/EAPCA-style envelope lower bounds;
//    lo = -inf / hi = +inf encode unbounded sides.
//
//  * sax_word_bounds_sq: the tree search's member bound. For each of
//    `count` full-cardinality iSAX words stored back to back at `words`
//    (`segments` symbols each, `symbol_bytes` = 1 or 2 bytes a symbol),
//    out[m] = sum over s of w[s] * d_s^2, d_s the distance from paa[s]
//    to the symbol's region [edges[sym], edges[sym + 1]] (0 inside;
//    edges[0] = -inf and the last edge +inf). The sum runs as four
//    partial sums (segment s into sum s % 4) and is compared with
//    `cutoff` after every kSaxBoundBlock segments while segments remain;
//    once it exceeds it, out[m] is that partial sum: > cutoff and, the
//    terms being non-negative, still <= the full bound. Every target
//    rounds each term and sum as the scalar reference does, so results
//    and stopping points agree across targets and symbol widths.
//
//  * lut_accumulate: acc[i] += lut[cells[i * stride]] for i in [0, count).
//    The asymmetric-distance trick used by the VA+file phase-1 scan: per
//    query, per dimension, cell -> min-distance contributions are
//    tabulated once and the scan over all series becomes table lookups.
//
//  * squared_euclidean_multi: the query-batched row. Evaluates each of
//    `num_queries` queries (queries[q], each of length n) against `count`
//    candidates laid out at block + c * stride, carrying a PER-QUERY
//    early-abandon threshold (thresholds[q]). out[q * count + c] receives
//    EXACTLY the value squared_euclidean_ea(queries[q], candidate c, n,
//    thresholds[q]) would return — the batched kernel reuses the target's
//    single-query ea kernel per pair, so batched execution is bit-identical
//    to per-query execution by construction, on every target. `abandoned`,
//    when non-null, records the per-pair abandon flag in the same
//    q * count + c layout. Returns how many (query, candidate) pairs ran
//    to completion. Candidates are walked in the outer loop (one pass over
//    the pinned block serves every query while it is cache-hot), queries
//    in the inner loop.
struct DistanceKernels {
  double (*squared_euclidean)(const float* a, const float* b, size_t n);
  double (*squared_euclidean_ea)(const float* a, const float* b, size_t n,
                                 double threshold, bool* abandoned);
  size_t (*squared_euclidean_batch)(const float* query, size_t n,
                                    const float* block, size_t count,
                                    size_t stride, double threshold,
                                    double* out);
  size_t (*squared_euclidean_multi)(const float* const* queries,
                                    size_t num_queries, size_t n,
                                    const float* block, size_t count,
                                    size_t stride, const double* thresholds,
                                    double* out, uint8_t* abandoned);
  double (*weighted_clamped_dist_sq)(const double* x, const double* lo,
                                     const double* hi, const double* w,
                                     size_t n);
  void (*sax_word_bounds_sq)(const double* paa, const double* w,
                             const double* edges, size_t segments,
                             const void* words, size_t symbol_bytes,
                             size_t count, double cutoff, double* out);
  void (*lut_accumulate)(const double* lut, const uint32_t* cells,
                         size_t count, size_t stride, double* acc);
  const char* name;
};

// Segments between two of sax_word_bounds_sq's cutoff checks.
inline constexpr size_t kSaxBoundBlock = 16;

// The kernel table of the dispatched target. Selected on first call from
// the best supported target, overridable with HYDRA_SIMD=scalar|sse2|avx2
// (an unsupported or unparsable value falls back to auto-detection with a
// one-line warning on stderr). The reference never changes afterwards.
const DistanceKernels& ActiveKernels();

// Target the active table was selected for.
SimdTarget ActiveSimdTarget();

// True when `target` was compiled in and the running CPU can execute it.
// kScalar is always supported.
bool SimdTargetSupported(SimdTarget target);

// Kernel table for a specific target, for tests and benchmarks. Calling
// kernels of an unsupported target is undefined (illegal instruction);
// check SimdTargetSupported first.
const DistanceKernels& KernelsFor(SimdTarget target);

const char* SimdTargetName(SimdTarget target);

// Parses "scalar" / "sse2" / "avx2" (case-insensitive). Returns false and
// leaves `out` untouched on anything else.
bool ParseSimdTarget(std::string_view value, SimdTarget* out);

// CRC-32C implementations behind hydra::Crc32c and hydra::Crc32cBlocks
// (common/crc32.h), chosen here so that HYDRA_SIMD governs the checksum
// as it does the kernels.
using Crc32cFn = uint32_t (*)(const void* data, size_t bytes, uint32_t crc);
using Crc32cBlocksFn = void (*)(const void* data, size_t count,
                                size_t block_bytes, uint32_t* out);

// The SSE4.2 `crc32` implementations, or nullptr when the build's
// architecture or the running CPU lacks the instruction.
Crc32cFn Sse42Crc32c();
Crc32cBlocksFn Sse42Crc32cBlocks();

// What Crc32c and Crc32cBlocks run, fixed on first call: the SSE4.2
// implementation when it exists and the active target is not kScalar,
// otherwise Crc32cTable / Crc32cBlocksTable.
Crc32cFn ActiveCrc32c();
Crc32cBlocksFn ActiveCrc32cBlocks();

}  // namespace hydra

#endif  // HYDRA_DISTANCE_SIMD_DISPATCH_H_
