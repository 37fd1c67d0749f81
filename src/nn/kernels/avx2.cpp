// AVX2+FMA backend. This translation unit is the only one compiled with
// -mavx2 -mfma (see src/nn/CMakeLists.txt); nothing here runs unless the
// dispatcher checked CPUID first, so the binary stays runnable on any
// x86-64 host.
//
// Divergence contract (DESIGN.md §16): only the float GEMM kernels use FMA
// and therefore round differently from the scalar reference — they answer
// to tolerance goldens. Every epilogue (bias/activation, quantize,
// dequantize) and the whole int8 GEMM use elementwise IEEE add/mul/max or
// exact integer arithmetic in the same per-element order as the scalar
// backend, so those stay bitwise identical across backends; the sigmoid
// epilogue simply delegates to libm like the scalar code does.
#include "nn/kernels/backend.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace wifisense::nn::kernels {

namespace {

/// Horizontal sum of an 8-float accumulator.
float hsum_ps(__m256 v) {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
}

/// Horizontal sum of an 8-int32 accumulator.
std::int32_t hsum_epi32(__m256i v) {
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    __m128i s = _mm_add_epi32(lo, hi);
    s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 1));
    return _mm_cvtsi128_si32(s);
}

// wifisense-lint: noalloc-begin

/// k-steps per compaction pass of the single-row kernel: the nonzero list
/// (k index + activation per entry) is a 2 KiB stack buffer. One pass
/// covers every layer of the paper model (k <= 256).
constexpr std::size_t kNzChunk = 256;

/// Register tile of the single-row kernel: NV ymm accumulators hold columns
/// [0, 8*NV) of cj across the whole nonzero list, so C is loaded and stored
/// once per pass instead of once per k step. Eight is the widest tile used:
/// it covers the FMA latency x port count, and sixteen accumulators plus
/// the broadcast do not fit the sixteen ymm registers (GCC spills them).
template <std::size_t NV>
void gemv_tile(const std::uint32_t* nz_k, const float* nz_a,
               std::size_t count, const float* bj, std::size_t n, float* cj) {
    __m256 acc[NV];
    for (std::size_t v = 0; v < NV; ++v) acc[v] = _mm256_loadu_ps(cj + 8 * v);
    for (std::size_t t = 0; t < count; ++t) {
        const __m256 av = _mm256_set1_ps(nz_a[t]);
        const float* brow = bj + std::size_t{nz_k[t]} * n;
        for (std::size_t v = 0; v < NV; ++v)
            acc[v] = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8 * v), acc[v]);
    }
    for (std::size_t v = 0; v < NV; ++v) _mm256_storeu_ps(cj + 8 * v, acc[v]);
}

/// Single-row kernel: crow[j0, n) += arow * B. Runs row chunks of fewer
/// than 4 rows (batch-1 serving), outputs narrower than 16 columns in
/// chunks of fewer than 32 rows and the last < 8 rows of larger ones, and
/// the blocked kernel's ragged column tail. It first compacts the row's
/// nonzero activations into a stack list (post-ReLU rows are about half
/// zeros, and a per-k zero test mispredicts on them), then walks that list
/// once per register tile. Every output element takes one FMA per nonzero
/// k in ascending k, the chain the blocked kernel computes, so a row's bits
/// do not depend on which kernel ran it. NaN activations stay in the list
/// (NaN != 0), matching the scalar backend's zero test.
void gemv_row(const float* arow, const float* b, float* crow, std::size_t k,
              std::size_t n, std::size_t j0) {
    std::uint32_t nz_k[kNzChunk];
    float nz_a[kNzChunk];
    for (std::size_t k0 = 0; k0 < k; k0 += kNzChunk) {
        const std::size_t k1 = std::min(k, k0 + kNzChunk);
        std::size_t count = 0;
        for (std::size_t kk = k0; kk < k1; ++kk) {
            const float av = arow[kk];
            nz_k[count] = static_cast<std::uint32_t>(kk);
            nz_a[count] = av;
            count += av != 0.0f ? 1 : 0;  // branch-free: zeros are overwritten
        }
        std::size_t j = j0;
        for (; j + 64 <= n; j += 64)
            gemv_tile<8>(nz_k, nz_a, count, b + j, n, crow + j);
        if (n - j >= 32) {
            gemv_tile<4>(nz_k, nz_a, count, b + j, n, crow + j);
            j += 32;
        }
        if (n - j >= 16) {
            gemv_tile<2>(nz_k, nz_a, count, b + j, n, crow + j);
            j += 16;
        }
        if (n - j >= 8) {
            gemv_tile<1>(nz_k, nz_a, count, b + j, n, crow + j);
            j += 8;
        }
        for (; j < n; ++j) {
            float acc = crow[j];
            for (std::size_t t = 0; t < count; ++t)
                acc = std::fmaf(nz_a[t], b[std::size_t{nz_k[t]} * n + j], acc);
            crow[j] = acc;
        }
    }
}

/// B-panel k-chunk. 256 k-steps x 16 columns packs into a 16 KiB stack
/// buffer — L1-resident next to the four A rows and the C tile streaming
/// against it. It also bounds a k-step index to one byte in the lists below.
constexpr std::size_t kPanelK = 256;

/// Rows per sub-block of the packed kernel. The live-k lists of its 4-row
/// blocks are built once per k-chunk and reused by every 16-column panel.
/// 128 rows hold a whole row chunk of the paper model's 66->128 input layer
/// (124 rows), so that layer still packs each panel once per chunk.
constexpr std::size_t kSubRows = 128;

/// kCompress[m] holds the indices of m's set bits, ascending, one per byte.
constexpr std::array<std::uint64_t, 256> make_compress_table() {
    std::array<std::uint64_t, 256> t{};
    for (std::size_t m = 0; m < 256; ++m) {
        std::size_t out = 0;
        for (std::uint64_t bit = 0; bit < 8; ++bit)
            if ((m >> bit) & 1u) t[m] |= bit << (8 * out++);
    }
    return t;
}
constexpr std::array<std::uint64_t, 256> kCompress = make_compress_table();

/// Writes the k-steps of [0, kc) at which any of the 4 rows at `a` (row
/// stride k) is nonzero to `steps`, ascending, and returns their count.
/// The test is the `!= 0` of gemv_row and the scalar backend: NaN is live,
/// -0 is not. Branch-free: each 8-step group stores 8 compressed bytes and
/// advances by its popcount, so `steps` needs kc + 8 bytes. The last,
/// partial group reads through a lane mask, so nothing past kc is loaded.
std::size_t live_k_steps(const float* a, std::size_t k, std::size_t kc,
                         std::uint8_t* steps) {
    const __m256 zero = _mm256_setzero_ps();
    const auto live = [&](__m256 v) { return _mm256_cmp_ps(v, zero, _CMP_NEQ_UQ); };
    std::size_t count = 0;
    const auto group = [&](std::size_t kk, __m256 r0, __m256 r1, __m256 r2, __m256 r3) {
        const __m256 any = _mm256_or_ps(_mm256_or_ps(live(r0), live(r1)),
                                        _mm256_or_ps(live(r2), live(r3)));
        const auto mask = static_cast<unsigned>(_mm256_movemask_ps(any));
        const std::uint64_t idx = kCompress[mask] + kk * 0x0101010101010101ull;
        std::memcpy(steps + count, &idx, sizeof idx);
        count += static_cast<std::size_t>(std::popcount(mask));
    };
    std::size_t kk = 0;
    for (; kk + 8 <= kc; kk += 8)
        group(kk, _mm256_loadu_ps(a + kk), _mm256_loadu_ps(a + k + kk),
              _mm256_loadu_ps(a + 2 * k + kk), _mm256_loadu_ps(a + 3 * k + kk));
    if (kk < kc) {
        const __m256i m = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int>(kc - kk)),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        group(kk, _mm256_maskload_ps(a + kk, m), _mm256_maskload_ps(a + k + kk, m),
              _mm256_maskload_ps(a + 2 * k + kk, m),
              _mm256_maskload_ps(a + 3 * k + kk, m));
    }
    return count;
}

/// The 4x16 tile's k walks: every step of the chunk, or a live-step list.
struct DenseWalk {
    std::size_t count;
    std::size_t operator[](std::size_t t) const { return t; }
};
struct ListWalk {
    const std::uint8_t* steps;
    std::size_t count;
    std::size_t operator[](std::size_t t) const { return steps[t]; }
};

/// C rows [0, 4) x 16 columns += A rows [0, 4) x the packed panel, over the
/// k-steps `walk` names. Eight ymm accumulators hold the C tile, loaded and
/// stored once per call. a points at a(i, k0) (row stride k), c at C[i][j].
template <class Walk>
void tile4x16(const float* a, std::size_t k, const float* bpack, Walk walk,
              float* c, std::size_t n) {
    const float* a0 = a;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* c0 = c;
    float* c1 = c0 + n;
    float* c2 = c1 + n;
    float* c3 = c2 + n;
    __m256 acc00 = _mm256_loadu_ps(c0);
    __m256 acc01 = _mm256_loadu_ps(c0 + 8);
    __m256 acc10 = _mm256_loadu_ps(c1);
    __m256 acc11 = _mm256_loadu_ps(c1 + 8);
    __m256 acc20 = _mm256_loadu_ps(c2);
    __m256 acc21 = _mm256_loadu_ps(c2 + 8);
    __m256 acc30 = _mm256_loadu_ps(c3);
    __m256 acc31 = _mm256_loadu_ps(c3 + 8);
    for (std::size_t t = 0; t < walk.count; ++t) {
        const std::size_t kk = walk[t];
        const float* bp = bpack + kk * 16;
        const __m256 b0 = _mm256_load_ps(bp);
        const __m256 b1 = _mm256_load_ps(bp + 8);
        __m256 av = _mm256_set1_ps(a0[kk]);
        acc00 = _mm256_fmadd_ps(av, b0, acc00);
        acc01 = _mm256_fmadd_ps(av, b1, acc01);
        av = _mm256_set1_ps(a1[kk]);
        acc10 = _mm256_fmadd_ps(av, b0, acc10);
        acc11 = _mm256_fmadd_ps(av, b1, acc11);
        av = _mm256_set1_ps(a2[kk]);
        acc20 = _mm256_fmadd_ps(av, b0, acc20);
        acc21 = _mm256_fmadd_ps(av, b1, acc21);
        av = _mm256_set1_ps(a3[kk]);
        acc30 = _mm256_fmadd_ps(av, b0, acc30);
        acc31 = _mm256_fmadd_ps(av, b1, acc31);
    }
    _mm256_storeu_ps(c0, acc00);
    _mm256_storeu_ps(c0 + 8, acc01);
    _mm256_storeu_ps(c1, acc10);
    _mm256_storeu_ps(c1 + 8, acc11);
    _mm256_storeu_ps(c2, acc20);
    _mm256_storeu_ps(c2 + 8, acc21);
    _mm256_storeu_ps(c3, acc30);
    _mm256_storeu_ps(c3 + 8, acc31);
}

/// k-steps per pass of the narrow kernel: A^T for 32 rows is a 16 KiB
/// stack buffer, and one pass covers the 128->1 head.
constexpr std::size_t kNarrowK = 128;

/// Transposes the 8 x 8 block of A at `a` (row stride k) into `dst`, eight
/// rows of one k-step per vector, vectors `stride` floats apart.
void transpose8x8(const float* a, std::size_t k, float* dst, std::size_t stride) {
    for (std::size_t h = 0; h < 8; h += 4) {
        // Steps [h, h+4) of rows q and q+4 in one ymm, one row per lane.
        const auto rows = [&](std::size_t q) {
            return _mm256_insertf128_ps(
                _mm256_castps128_ps256(_mm_loadu_ps(a + q * k + h)),
                _mm_loadu_ps(a + (q + 4) * k + h), 1);
        };
        const __m256 r0 = rows(0), r1 = rows(1), r2 = rows(2), r3 = rows(3);
        const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
        const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
        const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
        const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
        float* d = dst + h * stride;
        _mm256_store_ps(d, _mm256_shuffle_ps(t0, t2, 0x44));
        _mm256_store_ps(d + stride, _mm256_shuffle_ps(t0, t2, 0xEE));
        _mm256_store_ps(d + 2 * stride, _mm256_shuffle_ps(t1, t3, 0x44));
        _mm256_store_ps(d + 3 * stride, _mm256_shuffle_ps(t1, t3, 0xEE));
    }
}

/// Narrow outputs (n < 16) of 8*G rows at once: row r of the tile sits in
/// lane r % 8 of lane group r / 8, so G independent FMA chains run against
/// one broadcast weight per k-step. Each pass transposes the rows' A
/// slice into a stack panel, then walks every k-step in ascending order
/// per column, starting from C's value. a points at A row i, c at C row i.
template <std::size_t G>
void narrow_tile(const float* a, const float* b, float* c, std::size_t k,
                 std::size_t n) {
    constexpr std::size_t R = 8 * G;
    alignas(32) float at[kNarrowK * R];
    alignas(32) float col[R];
    for (std::size_t k0 = 0; k0 < k; k0 += kNarrowK) {
        const std::size_t kc = std::min(kNarrowK, k - k0);
        const std::size_t kc8 = kc & ~std::size_t{7};
        for (std::size_t g = 0; g < G; ++g) {
            const float* ag = a + 8 * g * k + k0;
            for (std::size_t kk = 0; kk < kc8; kk += 8)
                transpose8x8(ag + kk, k, at + kk * R + 8 * g, R);
            for (std::size_t kk = kc8; kk < kc; ++kk)
                for (std::size_t r = 0; r < 8; ++r)
                    at[kk * R + 8 * g + r] = ag[r * k + kk];
        }
        for (std::size_t j = 0; j < n; ++j) {
            for (std::size_t r = 0; r < R; ++r) col[r] = c[r * n + j];
            __m256 acc[G];
            for (std::size_t g = 0; g < G; ++g) acc[g] = _mm256_load_ps(col + 8 * g);
            const float* bj = b + k0 * n + j;
            for (std::size_t kk = 0; kk < kc; ++kk) {
                const __m256 w = _mm256_set1_ps(bj[kk * n]);
                for (std::size_t g = 0; g < G; ++g)
                    acc[g] = _mm256_fmadd_ps(_mm256_load_ps(at + kk * R + 8 * g), w,
                                             acc[g]);
            }
            for (std::size_t g = 0; g < G; ++g) _mm256_store_ps(col + 8 * g, acc[g]);
            for (std::size_t r = 0; r < R; ++r) c[r * n + j] = col[r];
        }
    }
}

/// Packed register-blocked GEMM. B's natural layout is row-major [k x n],
/// so a 16-column tile walk strides by 4n bytes — every load a fresh cache
/// line and a page crossing every few steps, which starves the FMA units
/// (~18 GF/s measured against an ~75 GF/s machine peak). Each 16-column
/// panel is therefore packed into a contiguous stack buffer and reused
/// across the row blocks of a sub-block; the 4x16 microkernel (eight ymm
/// accumulators, C loaded/stored once per tile per k-chunk) then runs
/// entirely out of L1. A 4-row block walks only the k-steps where one of
/// its rows is nonzero (post-ReLU rows share most of their zeros), unless
/// that list covers 3/4 of the chunk or more; then the dense walk is
/// cheaper. Outputs narrower than 16 columns run 8 rows per vector once a
/// chunk has 32 rows. Each C element still accumulates its FMA chain in
/// ascending-k order — chunk boundaries only spill the exact partial to C
/// and reload it, and a skipped or taken step of zero activation leaves an
/// accumulator that is never -0 unchanged (DESIGN.md §16) — so the result
/// is bitwise identical to the single-row kernel above at any blocking
/// phase, which is what keeps this backend thread-count invariant (row
/// chunks can start at any r0).
// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void avx2_matmul_rows(const float* a, const float* b, float* c, std::size_t k,
                      std::size_t n, std::size_t r0, std::size_t r1) {
    const std::size_t n16 = n & ~std::size_t{15};
    if (r1 - r0 >= 4 && n16 > 0) {
        alignas(32) float bpack[kPanelK * 16];
        alignas(8) std::uint8_t steps[kSubRows / 4][kPanelK + 8];
        std::size_t live[kSubRows / 4];
        for (std::size_t s0 = r0; s0 < r1; s0 += kSubRows) {
            const std::size_t s1 = std::min(r1, s0 + kSubRows);
            const std::size_t blocks = (s1 - s0) / 4;
            for (std::size_t k0 = 0; k0 < k; k0 += kPanelK) {
                const std::size_t kc = std::min(kPanelK, k - k0);
                for (std::size_t q = 0; q < blocks; ++q)
                    live[q] = live_k_steps(a + (s0 + 4 * q) * k + k0, k, kc, steps[q]);
                for (std::size_t j = 0; j < n16; j += 16) {
                    for (std::size_t kk = 0; kk < kc; ++kk) {
                        const float* src = b + (k0 + kk) * n + j;
                        _mm256_store_ps(bpack + kk * 16, _mm256_loadu_ps(src));
                        _mm256_store_ps(bpack + kk * 16 + 8,
                                        _mm256_loadu_ps(src + 8));
                    }
                    for (std::size_t q = 0; q < blocks; ++q) {
                        const float* ab = a + (s0 + 4 * q) * k + k0;
                        float* cb = c + (s0 + 4 * q) * n + j;
                        if (4 * live[q] >= 3 * kc)
                            tile4x16(ab, k, bpack, DenseWalk{kc}, cb, n);
                        else
                            tile4x16(ab, k, bpack, ListWalk{steps[q], live[q]}, cb, n);
                    }
                    for (std::size_t i = s0 + 4 * blocks; i < s1; ++i) {
                        const float* arow = a + i * k + k0;
                        float* crow = c + i * n + j;
                        __m256 acc0 = _mm256_loadu_ps(crow);
                        __m256 acc1 = _mm256_loadu_ps(crow + 8);
                        for (std::size_t kk = 0; kk < kc; ++kk) {
                            const float av = arow[kk];
                            if (av == 0.0f) continue;
                            const __m256 vav = _mm256_set1_ps(av);
                            const float* bp = bpack + kk * 16;
                            acc0 = _mm256_fmadd_ps(vav, _mm256_load_ps(bp), acc0);
                            acc1 = _mm256_fmadd_ps(vav, _mm256_load_ps(bp + 8),
                                                   acc1);
                        }
                        _mm256_storeu_ps(crow, acc0);
                        _mm256_storeu_ps(crow + 8, acc1);
                    }
                }
            }
        }
        if (n16 < n)
            for (std::size_t i = r0; i < r1; ++i)
                gemv_row(a + i * k, b, c + i * n, k, n, n16);
        return;
    }
    std::size_t i = r0;
    if (n16 == 0 && r1 - r0 >= 32) {
        for (; i + 32 <= r1; i += 32) narrow_tile<4>(a + i * k, b, c + i * n, k, n);
        for (; i + 8 <= r1; i += 8) narrow_tile<1>(a + i * k, b, c + i * n, k, n);
    }
    for (; i < r1; ++i) gemv_row(a + i * k, b, c + i * n, k, n, 0);
}

/// dW tile: rows [i, i+R) x 16 columns of C += X^T dY, held in 2R ymm
/// accumulators across a k-chunk of kc batch rows. x points at x(k0, i)
/// (row stride m); the chunk's 16 dY columns sit packed in `panel`.
template <std::size_t R>
void tn_tile(const float* x, std::size_t m, const float* panel, std::size_t kc,
             float* c, std::size_t n) {
    __m256 acc0[R], acc1[R];
    for (std::size_t r = 0; r < R; ++r) {
        acc0[r] = _mm256_loadu_ps(c + r * n);
        acc1[r] = _mm256_loadu_ps(c + r * n + 8);
    }
    for (std::size_t kk = 0; kk < kc; ++kk) {
        const __m256 b0 = _mm256_load_ps(panel + kk * 16);
        const __m256 b1 = _mm256_load_ps(panel + kk * 16 + 8);
        const float* xk = x + kk * m;
        for (std::size_t r = 0; r < R; ++r) {
            const __m256 av = _mm256_set1_ps(xk[r]);
            acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
            acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
        }
    }
    for (std::size_t r = 0; r < R; ++r) {
        _mm256_storeu_ps(c + r * n, acc0[r]);
        _mm256_storeu_ps(c + r * n + 8, acc1[r]);
    }
}

/// dW for one column j past the last 16-column panel, 8*NV rows of C at a
/// time: x(kk, i..i+8*NV) is contiguous in X's row kk, so the tile runs
/// across C rows against one broadcast dY value. x points at x(0, i), dy at
/// dy(0, j), c at C[i][j].
template <std::size_t NV>
void tn_column_tile(const float* x, std::size_t m, const float* dy,
                    std::size_t n, std::size_t kk_count, float* c) {
    alignas(32) float col[8 * NV];
    for (std::size_t r = 0; r < 8 * NV; ++r) col[r] = c[r * n];
    __m256 acc[NV];
    for (std::size_t v = 0; v < NV; ++v) acc[v] = _mm256_load_ps(col + 8 * v);
    for (std::size_t kk = 0; kk < kk_count; ++kk) {
        const __m256 g = _mm256_set1_ps(dy[kk * n]);
        const float* xk = x + kk * m;
        for (std::size_t v = 0; v < NV; ++v)
            acc[v] = _mm256_fmadd_ps(_mm256_loadu_ps(xk + 8 * v), g, acc[v]);
    }
    for (std::size_t v = 0; v < NV; ++v) _mm256_store_ps(col + 8 * v, acc[v]);
    for (std::size_t r = 0; r < 8 * NV; ++r) c[r * n] = col[r];
}

/// Rows [i0, i1) of dW = C += X^T dY (X is [kk x m], dY is [kk x n]). Each
/// 16-column dY panel is packed into the forward kernel's stack layout and
/// swept by 4x16 register tiles that keep C in registers across the whole
/// batch chunk; columns past the last panel run across C rows. Every
/// element takes one FMA per batch row, in ascending order, onto C's
/// value. Skipping zero activations, as the scalar loop does, would give
/// the same bits on finite dY, the fact the packed forward kernel rests on;
/// a non-finite dY turns the rows of zero activations NaN as well
/// (DESIGN.md §16). Chunk boundaries spill the exact partial to C, so the
/// bits depend neither on kPanelK nor on the row range.
// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void avx2_matmul_tn_rows(const float* a, const float* b, float* c,
                         std::size_t kk_count, std::size_t m, std::size_t n,
                         std::size_t i0, std::size_t i1) {
    const std::size_t n16 = n & ~std::size_t{15};
    if (n16 > 0) {
        alignas(32) float panel[kPanelK * 16];
        for (std::size_t j = 0; j < n16; j += 16) {
            for (std::size_t k0 = 0; k0 < kk_count; k0 += kPanelK) {
                const std::size_t kc = std::min(kPanelK, kk_count - k0);
                for (std::size_t kk = 0; kk < kc; ++kk) {
                    const float* src = b + (k0 + kk) * n + j;
                    _mm256_store_ps(panel + kk * 16, _mm256_loadu_ps(src));
                    _mm256_store_ps(panel + kk * 16 + 8,
                                    _mm256_loadu_ps(src + 8));
                }
                const float* x = a + k0 * m;
                std::size_t i = i0;
                for (; i + 4 <= i1; i += 4)
                    tn_tile<4>(x + i, m, panel, kc, c + i * n + j, n);
                for (; i < i1; ++i)
                    tn_tile<1>(x + i, m, panel, kc, c + i * n + j, n);
            }
        }
    }
    for (std::size_t j = n16; j < n; ++j) {
        std::size_t i = i0;
        for (; i + 32 <= i1; i += 32)
            tn_column_tile<4>(a + i, m, b + j, n, kk_count, c + i * n + j);
        for (; i + 8 <= i1; i += 8)
            tn_column_tile<1>(a + i, m, b + j, n, kk_count, c + i * n + j);
        for (; i < i1; ++i) {
            float acc = c[i * n + j];
            for (std::size_t kk = 0; kk < kk_count; ++kk)
                acc = std::fmaf(a[kk * m + i], b[kk * n + j], acc);
            c[i * n + j] = acc;
        }
    }
}

/// dX tile: R rows of dY against NC rows of W, one 8-lane accumulator per
/// output over the first k8 terms; each output then finishes as a lone dot
/// product would: hsum_ps, then an fmaf tail over [k8, k). a points at dY
/// row i, b at W row j, c at C[i][j].
template <std::size_t R, std::size_t NC>
void nt_tile(const float* a, const float* b, float* c, std::size_t k,
             std::size_t k8, std::size_t n) {
    __m256 acc[R][NC];
    for (std::size_t r = 0; r < R; ++r)
        for (std::size_t q = 0; q < NC; ++q) acc[r][q] = _mm256_setzero_ps();
    for (std::size_t kk = 0; kk < k8; kk += 8) {
        __m256 bv[NC];
        for (std::size_t q = 0; q < NC; ++q)
            bv[q] = _mm256_loadu_ps(b + q * k + kk);
        for (std::size_t r = 0; r < R; ++r) {
            const __m256 av = _mm256_loadu_ps(a + r * k + kk);
            for (std::size_t q = 0; q < NC; ++q)
                acc[r][q] = _mm256_fmadd_ps(av, bv[q], acc[r][q]);
        }
    }
    for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t q = 0; q < NC; ++q) {
            float sum = hsum_ps(acc[r][q]);
            for (std::size_t kk = k8; kk < k; ++kk)
                sum = std::fmaf(a[r * k + kk], b[q * k + kk], sum);
            c[r * n + q] = sum;
        }
    }
}

/// One row block of dX across columns [j0, j1): 3-column tiles, then
/// single columns.
template <std::size_t R>
void nt_row_block(const float* a, const float* b, float* c, std::size_t k,
                  std::size_t n, std::size_t j0, std::size_t j1) {
    const std::size_t k8 = k & ~std::size_t{7};
    std::size_t j = j0;
    for (; j + 3 <= j1; j += 3) nt_tile<R, 3>(a, b + j * k, c + j, k, k8, n);
    for (; j < j1; ++j) nt_tile<R, 1>(a, b + j * k, c + j, k, k8, n);
}

/// Floats of W per column block of the dX kernel (24 KiB): the block stays
/// in L1 while every row block of the chunk sweeps it, instead of all of W
/// streaming from L2 once per 4 rows.
constexpr std::size_t kNtBlockFloats = 6 * 1024;

/// dX for k < 8 (the 128->1 head's dY is one column wide). No 8-lane chunk
/// exists, so every output is the fmaf chain from the +0 that hsum_ps of a
/// zero accumulator gives; it runs across 8 output columns at once, with
/// W's k x 8 block transposed into a stack panel.
void nt_narrow(const float* a, const float* b, float* c, std::size_t k,
               std::size_t n, std::size_t r0, std::size_t r1) {
    const std::size_t n8 = n & ~std::size_t{7};
    alignas(32) float wt[7 * 8];
    for (std::size_t j = 0; j < n8; j += 8) {
        for (std::size_t kk = 0; kk < k; ++kk)
            for (std::size_t l = 0; l < 8; ++l) wt[kk * 8 + l] = b[(j + l) * k + kk];
        for (std::size_t i = r0; i < r1; ++i) {
            const float* arow = a + i * k;
            __m256 acc = _mm256_setzero_ps();
            for (std::size_t kk = 0; kk < k; ++kk)
                acc = _mm256_fmadd_ps(_mm256_set1_ps(arow[kk]),
                                      _mm256_load_ps(wt + kk * 8), acc);
            _mm256_storeu_ps(c + i * n + j, acc);
        }
    }
    for (std::size_t j = n8; j < n; ++j) {
        for (std::size_t i = r0; i < r1; ++i) {
            float sum = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk)
                sum = std::fmaf(a[i * k + kk], b[j * k + kk], sum);
            c[i * n + j] = sum;
        }
    }
}

/// Rows [r0, r1) of dX = C = dY * W^T (dY is [m x k], W is [n x k]), in
/// 4-row x 3-column tiles: twelve independent 8-lane chains, where one
/// accumulator per output would wait on FMA latency. Every output is the
/// same arithmetic as its lone dot product (eight lane chains, hsum_ps,
/// fmaf tail), so neither the tiles nor the W blocks change a bit.
// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void avx2_matmul_nt_rows(const float* a, const float* b, float* c,
                         std::size_t k, std::size_t n, std::size_t r0,
                         std::size_t r1) {
    if (k < 8) {
        nt_narrow(a, b, c, k, n, r0, r1);
        return;
    }
    const std::size_t block = std::max(std::size_t{3}, kNtBlockFloats / k / 3 * 3);
    for (std::size_t j0 = 0; j0 < n; j0 += block) {
        const std::size_t j1 = std::min(n, j0 + block);
        std::size_t i = r0;
        for (; i + 4 <= r1; i += 4)
            nt_row_block<4>(a + i * k, b, c + i * n, k, n, j0, j1);
        for (; i < r1; ++i) nt_row_block<1>(a + i * k, b, c + i * n, k, n, j0, j1);
    }
}

/// Bitwise identical to scalar: per-column sums accumulate rows in the same
/// sequential order; vectorizing across columns reorders nothing.
// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void avx2_column_sums_rows(const float* a, std::size_t rows, std::size_t cols,
                           float* out) {
    const std::size_t c8 = cols & ~std::size_t{7};
    for (std::size_t r = 0; r < rows; ++r) {
        const float* row = a + r * cols;
        std::size_t c = 0;
        for (; c < c8; c += 8)
            _mm256_storeu_ps(out + c, _mm256_add_ps(_mm256_loadu_ps(out + c),
                                                    _mm256_loadu_ps(row + c)));
        for (; c < cols; ++c) out[c] += row[c];
    }
}

/// kNone/kReLU are plain elementwise add/max — bitwise identical to scalar.
/// kSigmoid needs libm exp per element, so it runs the scalar loop.
// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void avx2_bias_act_rows(float* c, const float* bias, std::size_t n,
                        Activation act, std::size_t r0, std::size_t r1) {
    const std::size_t n8 = n & ~std::size_t{7};
    const __m256 zero = _mm256_setzero_ps();
    for (std::size_t i = r0; i < r1; ++i) {
        float* crow = c + i * n;
        switch (act) {
            case Activation::kNone: {
                std::size_t j = 0;
                for (; j < n8; j += 8)
                    _mm256_storeu_ps(crow + j,
                                     _mm256_add_ps(_mm256_loadu_ps(crow + j),
                                                   _mm256_loadu_ps(bias + j)));
                for (; j < n; ++j) crow[j] += bias[j];
                break;
            }
            case Activation::kReLU: {
                std::size_t j = 0;
                for (; j < n8; j += 8) {
                    const __m256 v = _mm256_add_ps(_mm256_loadu_ps(crow + j),
                                                   _mm256_loadu_ps(bias + j));
                    _mm256_storeu_ps(crow + j, _mm256_max_ps(v, zero));
                }
                for (; j < n; ++j) {
                    const float v = crow[j] + bias[j];
                    crow[j] = v > 0.0f ? v : 0.0f;
                }
                break;
            }
            case Activation::kSigmoid:
                for (std::size_t j = 0; j < n; ++j) {
                    const float v = crow[j] + bias[j];
                    crow[j] = 1.0f / (1.0f + std::exp(-v));
                }
                break;
        }
    }
}

/// int8 dot products via sign-extension to int16 + _mm256_madd_epi16
/// pair-sums: 16 multiplies per instruction, exact int32 accumulation —
/// bitwise identical to the scalar backend by construction.
// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void avx2_gemm_s8_rows(const std::int8_t* a, const std::int8_t* w,
                       std::int32_t* c, std::size_t k, std::size_t n,
                       std::size_t r0, std::size_t r1) {
    const std::size_t k16 = k & ~std::size_t{15};
    for (std::size_t i = r0; i < r1; ++i) {
        const std::int8_t* arow = a + i * k;
        std::int32_t* crow = c + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            const std::int8_t* wrow = w + j * k;
            __m256i vacc = _mm256_setzero_si256();
            std::size_t kk = 0;
            for (; kk < k16; kk += 16) {
                const __m256i va = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(arow + kk)));
                const __m256i vw = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(wrow + kk)));
                vacc = _mm256_add_epi32(vacc, _mm256_madd_epi16(va, vw));
            }
            std::int32_t acc = hsum_epi32(vacc);
            for (; kk < k; ++kk)
                acc += static_cast<std::int32_t>(arow[kk]) *
                       static_cast<std::int32_t>(wrow[kk]);
            crow[j] = acc;
        }
    }
}

/// Clamp-then-convert; _mm256_cvtps_epi32 rounds to nearest-even exactly
/// like the scalar nearbyintf, and inputs are pre-clamped to ±127 so the
/// saturating packs below never alter a value.
// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void avx2_quantize_s8_rows(const float* x, std::int8_t* q, float inv_scale,
                           std::size_t n, std::size_t r0, std::size_t r1) {
    const __m256 vscale = _mm256_set1_ps(inv_scale);
    const __m256 vlo = _mm256_set1_ps(-127.0f);
    const __m256 vhi = _mm256_set1_ps(127.0f);
    const __m256i unshuffle = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    const auto cvt8 = [&](const float* p) {
        const __m256 t = _mm256_mul_ps(_mm256_loadu_ps(p), vscale);
        return _mm256_cvtps_epi32(_mm256_max_ps(vlo, _mm256_min_ps(vhi, t)));
    };
    std::size_t begin = r0 * n;
    const std::size_t end = r1 * n;
    const std::size_t count = end - begin;
    const std::size_t n32 = begin + (count & ~std::size_t{31});
    for (; begin < n32; begin += 32) {
        const __m256i i0 = cvt8(x + begin);
        const __m256i i1 = cvt8(x + begin + 8);
        const __m256i i2 = cvt8(x + begin + 16);
        const __m256i i3 = cvt8(x + begin + 24);
        const __m256i p01 = _mm256_packs_epi32(i0, i1);  // 16 x i16, lane-mixed
        const __m256i p23 = _mm256_packs_epi32(i2, i3);
        const __m256i packed = _mm256_packs_epi16(p01, p23);  // 32 x i8
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(q + begin),
            _mm256_permutevar8x32_epi32(packed, unshuffle));
    }
    for (; begin < end; ++begin) {
        const float r = std::nearbyintf(x[begin] * inv_scale);
        const float clamped = r < -127.0f ? -127.0f : (r > 127.0f ? 127.0f : r);
        q[begin] = static_cast<std::int8_t>(clamped);
    }
}

/// mul + add (no FMA) in the same per-element order as scalar => bitwise
/// identical dequantization; sigmoid delegates to the scalar loop.
// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void avx2_dequant_bias_act_rows(const std::int32_t* acc, float scale,
                                const float* bias, float* out, std::size_t n,
                                Activation act, std::size_t r0,
                                std::size_t r1) {
    const __m256 vscale = _mm256_set1_ps(scale);
    const __m256 zero = _mm256_setzero_ps();
    const std::size_t n8 = n & ~std::size_t{7};
    for (std::size_t i = r0; i < r1; ++i) {
        const std::int32_t* arow = acc + i * n;
        float* orow = out + i * n;
        if (act == Activation::kSigmoid) {
            for (std::size_t j = 0; j < n; ++j) {
                const float v = static_cast<float>(arow[j]) * scale + bias[j];
                orow[j] = 1.0f / (1.0f + std::exp(-v));
            }
            continue;
        }
        std::size_t j = 0;
        for (; j < n8; j += 8) {
            const __m256 vf = _mm256_cvtepi32_ps(_mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(arow + j)));
            __m256 v = _mm256_add_ps(_mm256_mul_ps(vf, vscale),
                                     _mm256_loadu_ps(bias + j));
            if (act == Activation::kReLU) v = _mm256_max_ps(v, zero);
            _mm256_storeu_ps(orow + j, v);
        }
        for (; j < n; ++j) {
            float v = static_cast<float>(arow[j]) * scale + bias[j];
            if (act == Activation::kReLU) v = v > 0.0f ? v : 0.0f;
            orow[j] = v;
        }
    }
}

// wifisense-lint: noalloc-end

}  // namespace

const KernelBackend* avx2_backend() {
    static const KernelBackend backend = {
        "avx2",
        &avx2_matmul_rows,
        &avx2_matmul_tn_rows,
        &avx2_matmul_nt_rows,
        &avx2_column_sums_rows,
        &avx2_bias_act_rows,
        &avx2_gemm_s8_rows,
        &avx2_quantize_s8_rows,
        &avx2_dequant_bias_act_rows,
    };
    return &backend;
}

}  // namespace wifisense::nn::kernels

#else  // non-x86 build: the AVX2 backend does not exist.

namespace wifisense::nn::kernels {
const KernelBackend* avx2_backend() { return nullptr; }
}  // namespace wifisense::nn::kernels

#endif
