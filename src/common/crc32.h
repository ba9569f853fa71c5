// CRC-32C (Castagnoli).
//
// Used to checksum serialized redo records and materialized blocks; the
// storage-node scrubber (§2.1 activity 8) re-verifies these checksums
// against "disk" periodically. Every stored record is checksummed on
// arrival at every segment, so this sits on the ingest hot path: on x86
// CPUs with SSE4.2 it runs the hardware `crc32` instruction, 8 bytes per
// step, chosen once at run time; elsewhere it falls back to a bytewise
// table loop.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace aurora {

/// Computes CRC-32C over `data`, continuing from `seed` (0 for a fresh CRC).
uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0);

/// The bytewise table loop behind Crc32c on CPUs without SSE4.2. Exposed
/// so tests can check the hardware path against it on any host.
uint32_t Crc32cPortable(const void* data, size_t size, uint32_t seed = 0);

/// Computes CRC-32C over a string view. NOTE: pass string literals through
/// std::string_view explicitly when also passing a seed — a bare `const
/// char*` with an integral second argument would select the (void*, size)
/// overload above.
inline uint32_t Crc32c(std::string_view s, uint32_t seed = 0) {
  return Crc32c(s.data(), s.size(), seed);
}

}  // namespace aurora
