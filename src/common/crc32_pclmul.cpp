// PCLMULQDQ CRC-32: fold-by-4 with Barrett reduction (Gopal et al., "Fast
// CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction",
// Intel, 2009), in the bit-reflected domain of polynomial 0xEDB88320. This
// translation unit alone is compiled with -mpclmul -msse4.1 (see
// src/common/CMakeLists.txt); crc32.cpp calls into it only after CPUID
// reported both extensions, so the binary stays runnable on any x86-64 host.
//
// A 128-bit lane holds 16 message bytes. Carry-less multiplying its two
// 64-bit halves by x^d mod P (one constant per half) moves the lane d bits
// further down the message while keeping it congruent mod P, so it can be
// XORed into the data d bits ahead. Four lanes walk 64 bytes per step; the
// four survivors fold into one lane, single 16-byte steps take the rest,
// the lane folds to 64 and then 32 bits, and a Barrett step divides out P.
// Every step is exact GF(2) arithmetic on the remainder the byte table
// computes, so both engines agree bit for bit on every input.
#include "common/crc32_engines.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace wifisense::common::detail {

namespace {

// x^d mod P for each fold distance, bit-reflected and shifted left by one
// (33-bit values; Gopal et al. give the derivation).
constexpr long long kFold4Lo = 0x154442bd4;  // d = 4*128 + 32
constexpr long long kFold4Hi = 0x1c6e41596;  // d = 4*128 - 32
constexpr long long kFold1Lo = 0x1751997d0;  // d = 128 + 32
constexpr long long kFold1Hi = 0x0ccaa009e;  // d = 128 - 32
constexpr long long kFold64 = 0x163cd6124;   // d = 64
constexpr long long kPoly = 0x1db710641;     // P', the reflected polynomial
constexpr long long kMu = 0x1f7011641;       // floor(x^64 / P), reflected

__m128i load16(const unsigned char* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// lane.lo * k.lo ^ lane.hi * k.hi ^ next: the lane moved onto `next`.
__m128i fold(__m128i lane, __m128i k, __m128i next) {
    const __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

}  // namespace

std::uint32_t crc32_update_fold(std::uint32_t state, const unsigned char* p,
                                std::size_t n) {
    // The running state enters as an XOR into the first 32 message bits,
    // exactly where the byte loop would apply it.
    __m128i x0 = _mm_xor_si128(load16(p),
                               _mm_cvtsi32_si128(static_cast<int>(state)));
    __m128i x1 = load16(p + 16);
    __m128i x2 = load16(p + 32);
    __m128i x3 = load16(p + 48);
    p += 64;
    n -= 64;

    const __m128i k4 = _mm_set_epi64x(kFold4Hi, kFold4Lo);
    for (; n >= 64; p += 64, n -= 64) {
        x0 = fold(x0, k4, load16(p));
        x1 = fold(x1, k4, load16(p + 16));
        x2 = fold(x2, k4, load16(p + 32));
        x3 = fold(x3, k4, load16(p + 48));
    }

    const __m128i k1 = _mm_set_epi64x(kFold1Hi, kFold1Lo);
    x0 = fold(x0, k1, x1);
    x0 = fold(x0, k1, x2);
    x0 = fold(x0, k1, x3);
    for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, k1, load16(p));

    // 128 -> 64 bits: the low half times x^(128-32) lands on the high half.
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                       _mm_clmulepi64_si128(x0, k1, 0x10));
    // 64 -> 32 bits.
    const __m128i k64 = _mm_set_epi64x(0, kFold64);
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                       _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k64,
                                            0x00));
    // Barrett: q = low32(low32(x) * mu) * P'; the remainder is x ^ q.
    const __m128i barrett = _mm_set_epi64x(kMu, kPoly);
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
    return static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

}  // namespace wifisense::common::detail

#else  // non-x86 build: crc32_fold_supported() is false, the table runs.

namespace wifisense::common::detail {

std::uint32_t crc32_update_fold(std::uint32_t state, const unsigned char* p,
                                std::size_t n) {
    return crc32_update_table(state, p, n);
}

}  // namespace wifisense::common::detail

#endif
