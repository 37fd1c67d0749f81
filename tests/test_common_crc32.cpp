// CRC-32 engines: the check value, both engines (PCLMULQDQ fold and byte
// table) against an independent bit-at-a-time reference over random states,
// alignments and lengths, and streaming splits.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "common/crc32.hpp"
#include "common/crc32_engines.hpp"

namespace {

using namespace wifisense;

/// Bit-at-a-time reflected CRC-32 (polynomial 0xEDB88320): no table, no
/// folding — the definition the two engines must reproduce.
std::uint32_t reference_update(std::uint32_t state, const unsigned char* p,
                               std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        state ^= p[i];
        for (int bit = 0; bit < 8; ++bit)
            state = (state >> 1) ^ (0xEDB88320u & (0u - (state & 1u)));
    }
    return state;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<unsigned char> v(n);
    for (unsigned char& b : v) b = static_cast<unsigned char>(rng());
    return v;
}

TEST(Crc32, StandardCheckValue) {
    const char msg[] = "123456789";
    EXPECT_EQ(common::crc32(msg, 9), 0xCBF43926u);
    EXPECT_EQ(common::crc32(msg, 0), 0u);
}

TEST(Crc32, EnginesMatchBitwiseReference) {
    const std::vector<unsigned char> buf = random_bytes(1500 + 64, 0xc3c32);
    std::mt19937_64 rng(17);
    const bool fold = common::detail::crc32_fold_supported();
    // Every length in [0, 160) (under 64, around the fold's 64-byte start,
    // every residue mod 16), the wire frame's 304/308, then random lengths.
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n < 160; ++n) lengths.push_back(n);
    lengths.insert(lengths.end(), {304, 308, 1499, 1500});
    for (int i = 0; i < 2000; ++i) lengths.push_back(rng() % 1501);

    for (const std::size_t n : lengths) {
        const auto state = static_cast<std::uint32_t>(rng());
        const unsigned char* p = buf.data() + rng() % 64;
        const std::uint32_t want = reference_update(state, p, n);
        ASSERT_EQ(common::detail::crc32_update_table(state, p, n), want)
            << "table, n=" << n;
        ASSERT_EQ(common::crc32_update(state, p, n), want) << "dispatch, n=" << n;
        const std::size_t n16 = n & ~std::size_t{15};
        if (fold && n16 >= 64)
            ASSERT_EQ(common::detail::crc32_update_fold(state, p, n16),
                      reference_update(state, p, n16))
                << "fold, n=" << n16;
    }
}

TEST(Crc32, SplitStreamsAgree) {
    const std::vector<unsigned char> buf = random_bytes(1500, 0x5b17);
    std::mt19937_64 rng(29);
    for (int i = 0; i < 500; ++i) {
        const std::size_t n = rng() % 1501;
        const std::size_t cut = n == 0 ? 0 : rng() % (n + 1);
        const std::uint32_t whole = common::crc32(buf.data(), n);
        std::uint32_t s = common::crc32_init();
        s = common::crc32_update(s, buf.data(), cut);
        s = common::crc32_update(s, buf.data() + cut, n - cut);
        ASSERT_EQ(common::crc32_final(s), whole) << "n=" << n << " cut=" << cut;
    }
}

}  // namespace
