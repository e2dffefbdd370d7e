#ifndef HYDRA_COMMON_CRC32_H_
#define HYDRA_COMMON_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace hydra {

// CRC-32C (Castagnoli polynomial, reflected 0x82F63B78): the per-series
// checksum of series-file format v2 (storage/series_file.h) and the
// footer of index files (common/codec.h).
//
// Two entry points, each with a hardware and a table implementation:
//  * Crc32c checksums one buffer (and extends a running checksum). It
//    runs the SSE4.2 `crc32` instruction, 8 bytes per step, as one
//    dependent chain.
//  * Crc32cBlocks checksums `count` consecutive equal-size blocks at
//    once: the series file's verified reads and its footer writes. Its
//    hardware path runs four independent `crc32` chains, one per block,
//    so the instruction retires one step per cycle instead of waiting
//    out its latency on each step of a single chain.
// The choice is made once, next to the distance kernels
// (distance/simd_dispatch.h): hardware when the CPU has SSE4.2, and the
// byte-at-a-time table below under HYDRA_SIMD=scalar or without it.
// Every implementation returns the same checksums, so files verify
// whichever one wrote them.
namespace internal {

constexpr std::array<uint32_t, 256> MakeCrc32cTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<uint32_t, 256> kCrc32cTable = MakeCrc32cTable();

}  // namespace internal

// Extends `crc` (a previous Crc32c result, or 0 to start) over `bytes`.
uint32_t Crc32c(const void* data, size_t bytes, uint32_t crc = 0);

// out[b] = Crc32c(data + b * block_bytes, block_bytes) for every block b
// in [0, count).
void Crc32cBlocks(const void* data, size_t count, size_t block_bytes,
                  uint32_t* out);

// The portable table-driven CRC-32C: Crc32c's fallback, and the
// reference its other implementations are tested against.
inline uint32_t Crc32cTable(const void* data, size_t bytes, uint32_t crc) {
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (size_t i = 0; i < bytes; ++i) {
    crc = internal::kCrc32cTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

// Crc32cBlocks' table fallback: one block at a time.
inline void Crc32cBlocksTable(const void* data, size_t count,
                              size_t block_bytes, uint32_t* out) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t b = 0; b < count; ++b) {
    out[b] = Crc32cTable(p + b * block_bytes, block_bytes, 0);
  }
}

}  // namespace hydra

#endif  // HYDRA_COMMON_CRC32_H_
