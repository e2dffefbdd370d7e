#include "distance/simd_dispatch.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/crc32.h"
#include "common/options.h"
#include "distance/kernel_tables.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace hydra {
namespace {

#if defined(__x86_64__)
// Compiled for SSE4.2 by attribute, so the portable build still carries
// it; Sse42Crc32c() hands it out only on CPUs that have the instruction.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t bytes,
                                                       uint32_t crc) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t c = ~crc;
  for (; bytes >= 8; bytes -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // any alignment
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<uint32_t>(c);
  for (; bytes > 0; --bytes, ++p) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

// Four blocks at a time, one independent `crc32` chain each, interleaved
// word by word: the instruction's latency is several cycles but a new
// one can start every cycle, so four chains keep it busy where one
// would stall on its own result. Each block's tail bytes, and the blocks left over
// after the last group of four, run one block at a time.
__attribute__((target("sse4.2"))) void Crc32cBlocksSse42(const void* data,
                                                         size_t count,
                                                         size_t block_bytes,
                                                         uint32_t* out) {
  const auto* p = static_cast<const uint8_t*>(data);
  const size_t body = block_bytes & ~size_t{7};  // whole 8-byte words
  size_t b = 0;
  for (; b + 4 <= count; b += 4, p += 4 * block_bytes) {
    const uint8_t* p0 = p;
    const uint8_t* p1 = p0 + block_bytes;
    const uint8_t* p2 = p1 + block_bytes;
    const uint8_t* p3 = p2 + block_bytes;
    uint64_t c0 = 0xFFFFFFFFu;
    uint64_t c1 = 0xFFFFFFFFu;
    uint64_t c2 = 0xFFFFFFFFu;
    uint64_t c3 = 0xFFFFFFFFu;
    for (size_t at = 0; at < body; at += 8) {
      uint64_t w0, w1, w2, w3;
      std::memcpy(&w0, p0 + at, sizeof(w0));  // any alignment
      std::memcpy(&w1, p1 + at, sizeof(w1));
      std::memcpy(&w2, p2 + at, sizeof(w2));
      std::memcpy(&w3, p3 + at, sizeof(w3));
      c0 = _mm_crc32_u64(c0, w0);
      c1 = _mm_crc32_u64(c1, w1);
      c2 = _mm_crc32_u64(c2, w2);
      c3 = _mm_crc32_u64(c3, w3);
    }
    const uint64_t chains[4] = {c0, c1, c2, c3};
    for (size_t k = 0; k < 4; ++k) {
      const uint8_t* block = p + k * block_bytes;
      auto c32 = static_cast<uint32_t>(chains[k]);
      for (size_t at = body; at < block_bytes; ++at) {
        c32 = _mm_crc32_u8(c32, block[at]);
      }
      out[b + k] = ~c32;
    }
  }
  for (; b < count; ++b, p += block_bytes) {
    out[b] = Crc32cSse42(p, block_bytes, 0);
  }
}
#endif

bool CpuSupports(SimdTarget target) {
#if defined(__x86_64__) || defined(__i386__)
  switch (target) {
    case SimdTarget::kScalar:
      return true;
    case SimdTarget::kSse2:
      return __builtin_cpu_supports("sse2");
    case SimdTarget::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }
  return false;
#else
  return target == SimdTarget::kScalar;
#endif
}

bool CompiledIn(SimdTarget target) {
  switch (target) {
    case SimdTarget::kScalar:
      return true;
    case SimdTarget::kSse2:
      return detail::kSse2CompiledWithSimd;
    case SimdTarget::kAvx2:
      return detail::kAvx2CompiledWithSimd;
  }
  return false;
}

SimdTarget DetectBest() {
  if (SimdTargetSupported(SimdTarget::kAvx2)) return SimdTarget::kAvx2;
  if (SimdTargetSupported(SimdTarget::kSse2)) return SimdTarget::kSse2;
  return SimdTarget::kScalar;
}

SimdTarget SelectOnce() {
  const char* env = EnvOrString("HYDRA_SIMD", nullptr);
  if (env != nullptr) {
    SimdTarget requested;
    if (!ParseSimdTarget(env, &requested)) {
      std::fprintf(stderr,
                   "hydra: HYDRA_SIMD=%s not recognized "
                   "(want scalar|sse2|avx2); auto-detecting\n",
                   env);
      return DetectBest();
    }
    if (!SimdTargetSupported(requested)) {
      std::fprintf(stderr,
                   "hydra: HYDRA_SIMD=%s unsupported on this build/CPU; "
                   "auto-detecting\n",
                   env);
      return DetectBest();
    }
    return requested;
  }
  return DetectBest();
}

}  // namespace

bool ParseSimdTarget(std::string_view value, SimdTarget* out) {
  auto eq = [](std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      char c = a[i] >= 'A' && a[i] <= 'Z' ? a[i] - 'A' + 'a' : a[i];
      if (c != b[i]) return false;
    }
    return true;
  };
  if (eq(value, "scalar")) {
    *out = SimdTarget::kScalar;
    return true;
  }
  if (eq(value, "sse2")) {
    *out = SimdTarget::kSse2;
    return true;
  }
  if (eq(value, "avx2")) {
    *out = SimdTarget::kAvx2;
    return true;
  }
  return false;
}

bool SimdTargetSupported(SimdTarget target) {
  return CompiledIn(target) && CpuSupports(target);
}

const DistanceKernels& KernelsFor(SimdTarget target) {
  switch (target) {
    case SimdTarget::kSse2:
      return detail::kSse2Kernels;
    case SimdTarget::kAvx2:
      return detail::kAvx2Kernels;
    case SimdTarget::kScalar:
      break;
  }
  return detail::kScalarKernels;
}

const char* SimdTargetName(SimdTarget target) {
  switch (target) {
    case SimdTarget::kScalar:
      return "scalar";
    case SimdTarget::kSse2:
      return "sse2";
    case SimdTarget::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdTarget ActiveSimdTarget() {
  static const SimdTarget target = SelectOnce();
  return target;
}

const DistanceKernels& ActiveKernels() {
  static const DistanceKernels& kernels = KernelsFor(ActiveSimdTarget());
  return kernels;
}

Crc32cFn Sse42Crc32c() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return &Crc32cSse42;
#endif
  return nullptr;
}

Crc32cFn ActiveCrc32c() {
  static const Crc32cFn crc = [] {
    const Crc32cFn hardware = Sse42Crc32c();
    return hardware != nullptr && ActiveSimdTarget() != SimdTarget::kScalar
               ? hardware
               : &Crc32cTable;
  }();
  return crc;
}

Crc32cBlocksFn Sse42Crc32cBlocks() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return &Crc32cBlocksSse42;
#endif
  return nullptr;
}

Crc32cBlocksFn ActiveCrc32cBlocks() {
  static const Crc32cBlocksFn crc = [] {
    const Crc32cBlocksFn hardware = Sse42Crc32cBlocks();
    return hardware != nullptr && ActiveSimdTarget() != SimdTarget::kScalar
               ? hardware
               : &Crc32cBlocksTable;
  }();
  return crc;
}

uint32_t Crc32c(const void* data, size_t bytes, uint32_t crc) {
  return ActiveCrc32c()(data, bytes, crc);
}

void Crc32cBlocks(const void* data, size_t count, size_t block_bytes,
                  uint32_t* out) {
  ActiveCrc32cBlocks()(data, count, block_bytes, out);
}

}  // namespace hydra
