// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// check shared by every framed binary format in the tree: the nn/serialize
// model containers (v2 float, v3 int8) and the data/telemetry wire frames.
// One implementation keeps the formats bit-compatible with each other and
// with standard tooling (zlib's crc32, Python's binascii).
#pragma once

#include <cstddef>
#include <cstdint>

namespace wifisense::common {

/// CRC-32 of `n` bytes. Allocation-free and safe to call concurrently.
/// Runs of 64+ bytes fold 16 bytes per PCLMULQDQ step where CPUID reports
/// the instruction; everything else (and the < 16-byte tail) goes through a
/// byte table. Both paths compute the same polynomial remainder, so the
/// value never depends on the host.
std::uint32_t crc32(const void* data, std::size_t n);

/// Streaming form: continue a running CRC (start from crc32_init(), finish
/// with crc32_final()). crc32(p, n) == crc32_final(crc32_update(crc32_init(),
/// p, n)).
std::uint32_t crc32_init();
std::uint32_t crc32_update(std::uint32_t state, const void* data, std::size_t n);
std::uint32_t crc32_final(std::uint32_t state);

}  // namespace wifisense::common
