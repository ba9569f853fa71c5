#include "src/common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace aurora {

namespace {

constexpr uint32_t kPoly = 0x82f63b78;  // reversed CRC-32C polynomial

std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = MakeTable();
  return table;
}

#if defined(__x86_64__)
// The SSE4.2 `crc32` instruction computes CRC-32C (same reflected
// polynomial, no pre/post inversion). One 64-bit step per 8 bytes
// (unaligned loads are fine on x86), then at most one 4-, 2- and 1-byte
// step for the tail: redo payloads are short, so per-call steps matter.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                         size_t size,
                                                         uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t crc64 = ~seed;
  for (; size >= 8; size -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc64 = _mm_crc32_u64(crc64, word);
  }
  auto crc = static_cast<uint32_t>(crc64);
  if (size & 4) {
    uint32_t word;
    std::memcpy(&word, p, 4);
    crc = _mm_crc32_u32(crc, word);
    p += 4;
  }
  if (size & 2) {
    uint16_t word;
    std::memcpy(&word, p, 2);
    crc = _mm_crc32_u16(crc, word);
    p += 2;
  }
  if (size & 1) crc = _mm_crc32_u8(crc, *p);
  return ~crc;
}

bool HasSse42() {
  // Explicit init: the answer is cached for the process, and the first
  // call may come from another translation unit's static initializer.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}
#endif

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t size, uint32_t seed) {
  const auto& table = Table();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(const void* data, size_t size, uint32_t seed) {
#if defined(__x86_64__)
  static const bool kHardware = HasSse42();
  if (kHardware) return Crc32cSse42(data, size, seed);
#endif
  return Crc32cPortable(data, size, seed);
}

}  // namespace aurora
