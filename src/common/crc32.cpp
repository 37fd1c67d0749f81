#include "common/crc32.hpp"

#include <array>

#include "common/cpuid.hpp"
#include "common/crc32_engines.hpp"

namespace wifisense::common {

namespace {

const std::array<std::uint32_t, 256>& crc_table() {
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

/// Shortest run the fold takes: it starts with four 16-byte lanes.
constexpr std::size_t kFoldMinBytes = 64;

}  // namespace

namespace detail {

std::uint32_t crc32_update_table(std::uint32_t state, const unsigned char* p,
                                 std::size_t n) {
    const auto& table = crc_table();
    for (std::size_t i = 0; i < n; ++i)
        state = table[(state ^ p[i]) & 0xFFu] ^ (state >> 8);
    return state;
}

bool crc32_fold_supported() {
    static const bool supported =
        cpu_features().pclmul && cpu_features().sse41;
    return supported;
}

}  // namespace detail

std::uint32_t crc32_init() { return 0xFFFFFFFFu; }

std::uint32_t crc32_update(std::uint32_t state, const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    if (n >= kFoldMinBytes && detail::crc32_fold_supported()) {
        const std::size_t folded = n & ~std::size_t{15};
        state = detail::crc32_update_fold(state, bytes, folded);
        bytes += folded;
        n -= folded;
    }
    return detail::crc32_update_table(state, bytes, n);
}

std::uint32_t crc32_final(std::uint32_t state) { return state ^ 0xFFFFFFFFu; }

std::uint32_t crc32(const void* data, std::size_t n) {
    return crc32_final(crc32_update(crc32_init(), data, n));
}

}  // namespace wifisense::common
