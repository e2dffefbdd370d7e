#ifndef HYDRA_COMMON_CRC32_H_
#define HYDRA_COMMON_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace hydra {

// CRC-32C (Castagnoli polynomial, reflected 0x82F63B78): the per-series
// checksum of series-file format v2 (storage/series_file.h), computed on
// every write and every verified read. Crc32c runs the SSE4.2 `crc32`
// instruction, 8 bytes per step, when the CPU has it; the choice is made
// once, next to the distance kernels (distance/simd_dispatch.h), and
// HYDRA_SIMD=scalar selects the byte-at-a-time table below instead.
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

}  // namespace hydra

#endif  // HYDRA_COMMON_CRC32_H_
