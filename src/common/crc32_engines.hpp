// The two CRC-32 engines behind common::crc32_update (crc32.hpp), declared
// apart from the public header for the files that implement them and for
// the tests that pin each one against an independent reference. Both map a
// running state to a running state (no init/final inversion).
#pragma once

#include <cstddef>
#include <cstdint>

namespace wifisense::common::detail {

/// Byte-at-a-time table: any length.
std::uint32_t crc32_update_table(std::uint32_t state, const unsigned char* p,
                                 std::size_t n);

/// PCLMULQDQ fold-by-4 with Barrett reduction (crc32_pclmul.cpp).
/// Requires n >= 64, n % 16 == 0 and crc32_fold_supported().
std::uint32_t crc32_update_fold(std::uint32_t state, const unsigned char* p,
                                std::size_t n);

/// True when CPUID reports PCLMULQDQ and SSE4.1; read once, then cached.
bool crc32_fold_supported();

}  // namespace wifisense::common::detail
