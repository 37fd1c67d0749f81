// Microkernel backend dispatch + int8 quantized inference (DESIGN.md §16).
//
// Contract under test:
//   * scalar is the startup default and stays the bitwise reference — the
//     workspace goldens in test_nn_workspace.cpp pin it; here we pin the
//     dispatch seams around it;
//   * the AVX2 backend answers to tolerance goldens on the FMA GEMMs but is
//     bitwise identical on every epilogue / integer kernel, and bitwise
//     thread-count invariant everywhere (shape-only chunk decomposition);
//   * QuantizedMlp outputs are bitwise identical across backends AND thread
//     counts (exact int math + backend-pinned scalar float epilogue), so the
//     accuracy deltas gated in CI are machine-independent;
//   * serialize v3 round-trips quantized models, rejects cross-format loads,
//     and v1/v2 float streams keep loading;
//   * warm forward paths allocate nothing on any backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/alloc_counter.hpp"
#include "common/cpuid.hpp"
#include "common/parallel.hpp"
#include "nn/kernels/backend.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/quant.hpp"
#include "nn/serialize.hpp"
#include "nn/tensor.hpp"
#include "nn/trainer.hpp"

namespace {

using namespace wifisense;
namespace kn = wifisense::nn::kernels;

std::uint32_t bits32(float f) {
    std::uint32_t u;
    std::memcpy(&u, &f, 4);
    return u;
}

/// Restores the kernel backend on scope exit — every test here must leave
/// the process-wide dispatch slot the way it found it.
class KernelBackendGuard {
public:
    KernelBackendGuard() : saved_(kn::active_backend().name) {}
    ~KernelBackendGuard() { kn::set_kernel_backend(saved_); }

private:
    std::string saved_;
};

/// Restores the pool configuration on scope exit.
class ThreadConfigGuard {
public:
    ThreadConfigGuard() : saved_(common::execution_config()) {}
    ~ThreadConfigGuard() { common::set_execution_config(saved_); }

private:
    common::ExecutionConfig saved_;
};

nn::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed, float scale = 1.0f) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> u(-scale, scale);
    nn::Matrix m(rows, cols);
    for (float& v : m.data()) v = u(rng);
    return m;
}

bool bitwise_equal(const nn::Matrix& a, const nn::Matrix& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
    return std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(float)) == 0;
}

/// Largest |a-b| normalized by the largest magnitude in the reference —
/// element-wise relative error explodes under catastrophic cancellation
/// (a near-zero dot product divides a rounding-sized FMA deviation), while
/// the matrix-scale metric keeps the tolerance meaningful.
double max_scaled_diff(const nn::Matrix& a, const nn::Matrix& b) {
    double worst = 0.0, scale = 1e-6;
    for (const float v : a.data())
        scale = std::max(scale, static_cast<double>(std::abs(v)));
    for (std::size_t i = 0; i < a.data().size(); ++i)
        worst = std::max(worst, std::abs(static_cast<double>(a.data()[i]) -
                                         static_cast<double>(b.data()[i])));
    return worst / scale;
}

/// Deterministic toy problem shared with the workspace goldens: 600 samples,
/// 12 features, y = [x0*x1 > 0].
void make_dataset(nn::Matrix& x, nn::Matrix& y) {
    std::mt19937_64 drng(123);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    x.resize(600, 12);
    y.resize(600, 1);
    for (float& v : x.data()) v = u(drng);
    for (std::size_t i = 0; i < y.rows(); ++i)
        y.at(i, 0) = (x.at(i, 0) * x.at(i, 1) > 0.0f) ? 1.0f : 0.0f;
}

/// A small trained network (3 epochs on the toy problem) — enough structure
/// that quantization error is measurable but accuracy is stable.
nn::Mlp trained_net(nn::Matrix& x, nn::Matrix& y) {
    make_dataset(x, y);
    std::mt19937_64 rng(9);
    nn::Mlp net({12, 32, 16, 1}, nn::Init::kKaimingUniform, rng);
    nn::TrainConfig cfg;
    cfg.epochs = 3;
    cfg.batch_size = 128;
    cfg.seed = 77;
    const nn::BceWithLogitsLoss loss;
    (void)nn::train(net, x, y, loss, cfg);
    net.set_training(false);
    return net;
}

// ---------------------------------------------------------------------------
// Backend selection / CPUID
// ---------------------------------------------------------------------------

TEST(KernelDispatch, ScalarIsSelectableAndUnknownNamesAreRejected) {
    KernelBackendGuard guard;
    EXPECT_TRUE(kn::set_kernel_backend("scalar"));
    EXPECT_STREQ(kn::active_backend().name, "scalar");
    // Unknown names leave the active backend untouched.
    EXPECT_FALSE(kn::set_kernel_backend("neon"));
    EXPECT_STREQ(kn::active_backend().name, "scalar");
    EXPECT_FALSE(kn::set_kernel_backend(""));
    EXPECT_STREQ(kn::active_backend().name, "scalar");
}

TEST(KernelDispatch, AutoResolvesToFastestSupported) {
    KernelBackendGuard guard;
    EXPECT_TRUE(kn::set_kernel_backend("auto"));
    if (kn::avx2_supported())
        EXPECT_STREQ(kn::active_backend().name, "avx2");
    else
        EXPECT_STREQ(kn::active_backend().name, "scalar");
}

TEST(KernelDispatch, Avx2EligibilityMatchesCpuid) {
    const common::CpuFeatures feat = common::cpu_features();
    const bool runnable =
        kn::avx2_backend() != nullptr && feat.avx2 && feat.fma;
    EXPECT_EQ(kn::avx2_supported(), runnable);
    // Selecting avx2 must succeed exactly when it is supported.
    KernelBackendGuard guard;
    EXPECT_EQ(kn::set_kernel_backend("avx2"), kn::avx2_supported());
    // The feature string mentions whatever CPUID reported (observability).
    const std::string s = common::cpu_feature_string();
    EXPECT_EQ(s.find("avx2") != std::string::npos, feat.avx2);
}

// ---------------------------------------------------------------------------
// Scalar vs AVX2 parity
// ---------------------------------------------------------------------------

/// Randomized shapes chosen to exercise every tail path: vector-width
/// multiples, ragged tails shorter than one AVX lane, single rows/columns.
struct GemmShape {
    std::size_t m, k, n;
};
constexpr GemmShape kShapes[] = {
    {1, 1, 1},   {3, 5, 7},    {4, 8, 16},  {17, 13, 9},
    {33, 7, 31}, {64, 12, 32}, {5, 100, 3}, {2, 31, 65},
};

TEST(KernelParity, FloatGemmsAgreeWithinTolerance) {
    if (!kn::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
    KernelBackendGuard guard;
    std::uint64_t seed = 1000;
    for (const GemmShape& s : kShapes) {
        SCOPED_TRACE("m=" + std::to_string(s.m) + " k=" + std::to_string(s.k) +
                     " n=" + std::to_string(s.n));
        const nn::Matrix a = random_matrix(s.m, s.k, seed++);
        const nn::Matrix b = random_matrix(s.k, s.n, seed++);
        const nn::Matrix bt = random_matrix(s.n, s.k, seed++);
        const nn::Matrix at = random_matrix(s.k, s.m, seed++);

        nn::Matrix ref_mm, ref_nt, ref_tn;
        ASSERT_TRUE(kn::set_kernel_backend("scalar"));
        nn::matmul_into(a, b, ref_mm);
        nn::matmul_nt_into(a, bt, ref_nt);
        nn::matmul_tn_into(at, b, ref_tn);

        nn::Matrix simd_mm, simd_nt, simd_tn;
        ASSERT_TRUE(kn::set_kernel_backend("avx2"));
        nn::matmul_into(a, b, simd_mm);
        nn::matmul_nt_into(a, bt, simd_nt);
        nn::matmul_tn_into(at, b, simd_tn);

        // FMA reassociates rounding — tolerance goldens, not bitwise.
        EXPECT_LT(max_scaled_diff(ref_mm, simd_mm), 1e-5);
        EXPECT_LT(max_scaled_diff(ref_nt, simd_nt), 1e-5);
        EXPECT_LT(max_scaled_diff(ref_tn, simd_tn), 1e-5);
    }
}

TEST(KernelParity, EpiloguesAndIntegerKernelsAreBitwiseIdentical) {
    if (!kn::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
    const kn::KernelBackend& sc = kn::scalar_backend();
    const kn::KernelBackend& vx = *kn::avx2_backend();
    std::mt19937_64 rng(42);

    for (const GemmShape& s : kShapes) {
        SCOPED_TRACE("m=" + std::to_string(s.m) + " k=" + std::to_string(s.k) +
                     " n=" + std::to_string(s.n));
        // column_sums: sequential per-column accumulation on both backends.
        const nn::Matrix a = random_matrix(s.m, s.n, rng());
        std::vector<float> sums_sc(s.n, 0.0f), sums_vx(s.n, 0.0f);
        sc.column_sums_rows(a.data().data(), s.m, s.n, sums_sc.data());
        vx.column_sums_rows(a.data().data(), s.m, s.n, sums_vx.data());
        EXPECT_EQ(std::memcmp(sums_sc.data(), sums_vx.data(),
                              s.n * sizeof(float)), 0);

        // bias + activation epilogue, all three activations.
        const nn::Matrix bias_m = random_matrix(1, s.n, rng());
        for (const kn::Activation act :
             {kn::Activation::kNone, kn::Activation::kReLU,
              kn::Activation::kSigmoid}) {
            nn::Matrix c1 = random_matrix(s.m, s.n, 7);
            nn::Matrix c2 = c1;
            sc.bias_act_rows(c1.data().data(), bias_m.data().data(), s.n, act,
                             0, s.m);
            vx.bias_act_rows(c2.data().data(), bias_m.data().data(), s.n, act,
                             0, s.m);
            EXPECT_TRUE(bitwise_equal(c1, c2))
                << "bias_act activation " << static_cast<int>(act);
        }

        // quantize: nearest-even rounding must match _mm256_cvtps_epi32.
        const nn::Matrix x = random_matrix(s.m, s.k, rng(), 3.0f);
        std::vector<std::int8_t> q1(s.m * s.k), q2(s.m * s.k);
        sc.quantize_s8_rows(x.data().data(), q1.data(), 42.333f, s.k, 0, s.m);
        vx.quantize_s8_rows(x.data().data(), q2.data(), 42.333f, s.k, 0, s.m);
        EXPECT_EQ(std::memcmp(q1.data(), q2.data(), q1.size()), 0);

        // int8 GEMM: exact int32 accumulation.
        std::vector<std::int8_t> w(s.n * s.k);
        std::uniform_int_distribution<int> d8(-127, 127);
        for (std::int8_t& v : w) v = static_cast<std::int8_t>(d8(rng));
        std::vector<std::int32_t> acc1(s.m * s.n, 0), acc2(s.m * s.n, 0);
        sc.gemm_s8_rows(q1.data(), w.data(), acc1.data(), s.k, s.n, 0, s.m);
        vx.gemm_s8_rows(q1.data(), w.data(), acc2.data(), s.k, s.n, 0, s.m);
        EXPECT_EQ(std::memcmp(acc1.data(), acc2.data(),
                              acc1.size() * sizeof(std::int32_t)), 0);

        // dequantize + bias + activation epilogue.
        nn::Matrix o1(s.m, s.n), o2(s.m, s.n);
        sc.dequant_bias_act_rows(acc1.data(), 0.0123f, bias_m.data().data(),
                                 o1.data().data(), s.n,
                                 kn::Activation::kSigmoid, 0, s.m);
        vx.dequant_bias_act_rows(acc1.data(), 0.0123f, bias_m.data().data(),
                                 o2.data().data(), s.n,
                                 kn::Activation::kSigmoid, 0, s.m);
        EXPECT_TRUE(bitwise_equal(o1, o2));
    }
}

TEST(KernelParity, Avx2IsBitwiseThreadCountInvariant) {
    if (!kn::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
    KernelBackendGuard kguard;
    ThreadConfigGuard tguard;
    ASSERT_TRUE(kn::set_kernel_backend("avx2"));

    const nn::Matrix a = random_matrix(97, 33, 5);
    const nn::Matrix b = random_matrix(33, 41, 6);

    // Shapes whose row grain is 16 rows, so the dispatcher splits them into
    // several chunks (97 x 33 x 41 above runs as one): the forward GEMM and
    // dX = dY W^T over 70 rows of C (5 chunks), and dW = X^T dY over a
    // 256-row batch (40 rows of C, 3 chunks).
    const nn::Matrix x = random_matrix(256, 40, 7);
    const nn::Matrix dy = random_matrix(256, 300, 8);
    const nn::Matrix g = random_matrix(70, 260, 9);
    const nn::Matrix w = random_matrix(260, 260, 10);

    common::set_execution_config({.threads = 1});
    nn::Matrix ref, ref_mm, ref_tn, ref_nt;
    nn::matmul_into(a, b, ref);
    nn::matmul_into(g, w, ref_mm);
    nn::matmul_tn_into(x, dy, ref_tn);
    nn::matmul_nt_into(g, w, ref_nt);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        common::set_execution_config({.threads = threads});
        nn::Matrix out, out_mm, out_tn, out_nt;
        nn::matmul_into(a, b, out);
        nn::matmul_into(g, w, out_mm);
        nn::matmul_tn_into(x, dy, out_tn);
        nn::matmul_nt_into(g, w, out_nt);
        EXPECT_TRUE(bitwise_equal(ref, out));
        EXPECT_TRUE(bitwise_equal(ref_mm, out_mm));
        EXPECT_TRUE(bitwise_equal(ref_tn, out_tn));
        EXPECT_TRUE(bitwise_equal(ref_nt, out_nt));
    }
}

/// About half the entries zero, like post-ReLU activations, plus one
/// all-zero row.
nn::Matrix half_zero_matrix(std::size_t rows, std::size_t cols,
                            std::uint64_t seed, std::size_t zero_row) {
    nn::Matrix m = random_matrix(rows, cols, seed);
    std::mt19937_64 rng(seed ^ 0x5eed);
    for (float& v : m.data())
        if (rng() & 1u) v = 0.0f;
    for (std::size_t j = 0; j < cols; ++j) m.at(zero_row, j) = 0.0f;
    return m;
}

/// The chain every avx2 float GEMM path computes for one output element:
/// one fused multiply-add per nonzero activation, in ascending k.
/// std::fmaf is correctly rounded, so this is an exact reference.
float ascending_fma_chain(const nn::Matrix& a, const nn::Matrix& b,
                          std::size_t i, std::size_t j) {
    float acc = 0.0f;
    for (std::size_t kk = 0; kk < a.cols(); ++kk)
        if (a.at(i, kk) != 0.0f) acc = std::fmaf(a.at(i, kk), b.at(kk, j), acc);
    return acc;
}

// Chunks of 1-3 rows, n < 16 below 32 rows and the blocked kernel's column
// tail run the register-tiled single-row kernel; chunks of 4+ rows run the
// packed 4x16 kernel. A row must come out with the same bits whichever
// kernel computed it — that is what keeps batch-1 serving outputs equal to
// batched scoring. Nine rows of independent zeros leave almost every k-step
// live in a 4-row block, so the tests after this one cover the live-step
// lists and the narrow kernel.
TEST(KernelParity, Avx2SingleRowGemvMatchesBlockedRowsBitwise) {
    if (!kn::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
    const kn::KernelBackend& vx = *kn::avx2_backend();

    struct Shape {
        std::size_t k, n;
    };
    // The paper model's layers, the 2-input fallback model's input layer,
    // then ragged widths against tiny and multi-chunk depths.
    std::vector<Shape> shapes = {{66, 128}, {128, 256}, {256, 128}, {128, 1},
                                 {2, 128}};
    for (const std::size_t k : {1, 5, 600})
        for (const std::size_t n : {1, 7, 9, 65}) shapes.push_back({k, n});

    // Nine rows: two 4-row blocks plus the blocked path's leftover row.
    constexpr std::size_t kRows = 9;
    std::uint64_t seed = 3100;
    for (const Shape& s : shapes) {
        SCOPED_TRACE("k=" + std::to_string(s.k) + " n=" + std::to_string(s.n));
        const nn::Matrix a = half_zero_matrix(kRows, s.k, seed++, 2);
        const nn::Matrix b = random_matrix(s.k, s.n, seed++);

        nn::Matrix all(kRows, s.n, 0.0f);
        vx.matmul_rows(a.data().data(), b.data().data(), all.data().data(),
                       s.k, s.n, 0, kRows);
        for (std::size_t i = 0; i < kRows; ++i)
            for (std::size_t j = 0; j < s.n; ++j)
                ASSERT_EQ(bits32(all.at(i, j)),
                          bits32(ascending_fma_chain(a, b, i, j)))
                    << "row " << i << " col " << j;

        for (std::size_t m = 1; m <= 3; ++m) {
            for (std::size_t r0 = 0; r0 + m <= kRows; ++r0) {
                nn::Matrix part(kRows, s.n, 0.0f);
                vx.matmul_rows(a.data().data(), b.data().data(),
                               part.data().data(), s.k, s.n, r0, r0 + m);
                EXPECT_EQ(std::memcmp(&part.at(r0, 0), &all.at(r0, 0),
                                      m * s.n * sizeof(float)),
                          0)
                    << "rows [" << r0 << ", " << r0 + m << ")";
            }
        }
    }
}

/// Activations whose zeros come in whole columns, as consecutive instants of
/// one room switch on nearly the same hidden units: rows run in groups of 6
/// that share a mask of about 65% zero columns, and each row zeros a fifth
/// of its remaining entries on top, so a 4-row block at any phase leaves
/// most k-steps zero in all four rows. Row 9 is all zero; rows 16-19 are
/// empty except row 18, which has no zero at all. -0 stands in for some
/// zeros, and row 30 carries one NaN.
nn::Matrix column_zero_matrix(std::size_t rows, std::size_t k, std::uint64_t seed) {
    nn::Matrix m = random_matrix(rows, k, seed);
    std::mt19937_64 rng(seed ^ 0xc01u);
    std::vector<bool> dead(k);
    for (std::size_t i = 0; i < rows; ++i) {
        if (i % 6 == 0)
            for (std::size_t kk = 0; kk < k; ++kk) dead[kk] = rng() % 100 < 65;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const bool zero = dead[kk] || rng() % 5 == 0 || i == 9 ||
                              (i >= 16 && i < 20 && i != 18);
            if (zero) m.at(i, kk) = rng() % 3 == 0 ? -0.0f : 0.0f;
        }
    }
    for (std::size_t kk = 0; kk < k; ++kk)
        if (m.at(18, kk) == 0.0f) m.at(18, kk) = 0.5f;
    m.at(30, k / 2) = std::numeric_limits<float>::quiet_NaN();
    return m;
}

/// Rows [r0, r1) of `got` against the exact chain, element by element. A
/// NaN output must meet a NaN reference; its payload is not compared.
void expect_rows_match_chain(const nn::Matrix& got, const nn::Matrix& a,
                             const nn::Matrix& b, std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i)
        for (std::size_t j = 0; j < got.cols(); ++j) {
            const float want = ascending_fma_chain(a, b, i, j);
            if (std::isnan(want)) {
                ASSERT_TRUE(std::isnan(got.at(i, j))) << "row " << i << " col " << j;
                continue;
            }
            ASSERT_EQ(bits32(got.at(i, j)), bits32(want)) << "row " << i << " col " << j;
        }
}

/// matmul_rows over a 140-row column_zero_matrix: every row range [r0, 140)
/// with r0 in [0, 8) (each 4-row block phase, and a 128-row sub-block
/// boundary inside), then every 1-3-row slice.
void check_against_chain(std::size_t k, std::size_t n, std::uint64_t seed) {
    SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n));
    const kn::KernelBackend& vx = *kn::avx2_backend();
    constexpr std::size_t kRows = 140;
    const nn::Matrix a = column_zero_matrix(kRows, k, seed);
    const nn::Matrix b = random_matrix(k, n, seed + 1);
    for (std::size_t r0 = 0; r0 < 8; ++r0) {
        SCOPED_TRACE("rows [" + std::to_string(r0) + ", 140)");
        nn::Matrix c(kRows, n, 0.0f);
        vx.matmul_rows(a.data().data(), b.data().data(), c.data().data(), k, n, r0,
                       kRows);
        expect_rows_match_chain(c, a, b, r0, kRows);
    }
    for (std::size_t len = 1; len <= 3; ++len)
        for (std::size_t r0 = 0; r0 + len <= kRows; ++r0) {
            SCOPED_TRACE("rows [" + std::to_string(r0) + ", " +
                         std::to_string(r0 + len) + ")");
            nn::Matrix c(kRows, n, 0.0f);
            vx.matmul_rows(a.data().data(), b.data().data(), c.data().data(), k, n,
                           r0, r0 + len);
            expect_rows_match_chain(c, a, b, r0, r0 + len);
        }
}

constexpr std::size_t kChainDepths[] = {1, 7, 8, 9, 255, 256, 257, 600};

// Outputs of 16+ columns: 4-row blocks whose rows share most of their
// zeros walk a list of the live k-steps, denser blocks every step. Depths
// cover the list builder's 8-step groups and partial group and the 256-step
// panel chunk; widths cover no ragged column tail, one and one past two
// panels.
TEST(KernelParity, Avx2LiveStepListMatchesReferenceChainBitwise) {
    if (!kn::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
    std::uint64_t seed = 7100;
    for (const std::size_t k : kChainDepths)
        for (const std::size_t n : {16, 17, 33}) {
            check_against_chain(k, n, seed);
            seed += 2;
        }
}

// Outputs narrower than 16 columns (the 128->1 head): chunks of 32+ rows
// run 8 rows per vector, in 32- and then 8-row tiles, and the rest of the
// rows one at a time. Depths cover the transpose's 8-step blocks, its
// scalar tail and the 128-step pass boundary.
TEST(KernelParity, Avx2NarrowOutputsMatchReferenceChainBitwise) {
    if (!kn::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
    std::uint64_t seed = 7300;
    for (const std::size_t k : kChainDepths)
        for (const std::size_t n : {1, 2, 7, 15}) {
            check_against_chain(k, n, seed);
            seed += 2;
        }
}

/// dW = X^T dY accumulated into C: one fused multiply-add per nonzero
/// activation x(kk, i), in ascending batch order, onto C's starting value.
float tn_reference_chain(const nn::Matrix& x, const nn::Matrix& dy,
                         float start, std::size_t i, std::size_t j) {
    float acc = start;
    for (std::size_t kk = 0; kk < x.rows(); ++kk)
        if (x.at(kk, i) != 0.0f)
            acc = std::fmaf(x.at(kk, i), dy.at(kk, j), acc);
    return acc;
}

/// dX = dY W^T: eight lane chains over the first k & ~7 terms, summed in
/// hsum_ps's order, then an fmaf tail over the rest in ascending k.
float nt_reference_chain(const nn::Matrix& dy, const nn::Matrix& w,
                         std::size_t i, std::size_t j) {
    const std::size_t k = dy.cols();
    const std::size_t k8 = k & ~std::size_t{7};
    float lane[8] = {};
    for (std::size_t kk = 0; kk < k8; ++kk)
        lane[kk % 8] = std::fmaf(dy.at(i, kk), w.at(j, kk), lane[kk % 8]);
    float acc = ((lane[0] + lane[4]) + (lane[2] + lane[6])) +
                ((lane[1] + lane[5]) + (lane[3] + lane[7]));
    for (std::size_t kk = k8; kk < k; ++kk)
        acc = std::fmaf(dy.at(i, kk), w.at(j, kk), acc);
    return acc;
}

/// "" when a and b hold the same bits, else the first differing element.
std::string first_bit_mismatch(const nn::Matrix& a, const nn::Matrix& b) {
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            if (bits32(a.at(i, j)) != bits32(b.at(i, j)))
                return "row " + std::to_string(i) + " col " + std::to_string(j);
    return "";
}

// The training GEMMs: dW = X^T dY (matmul_tn_rows) and dX = dY W^T
// (matmul_nt_rows). Every element must be the exact chain above whatever
// row range the dispatcher hands the kernel, so avx2 training bits depend
// neither on the kernels' tiling nor on the thread count.
TEST(KernelParity, Avx2BackwardKernelsMatchReferenceChainsBitwise) {
    if (!kn::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
    const kn::KernelBackend& vx = *kn::avx2_backend();

    struct Shape {
        std::size_t in, out, batch;
    };
    // The paper model's layers and the 2-input fallback model's input
    // layer at the training batch, then ragged input widths (rows of dW,
    // columns of dX) against output widths (columns of dW, the depth of
    // dX's dot products) at a batch that crosses dW's 256-row panel chunk.
    std::vector<Shape> shapes = {{66, 128, 256}, {128, 256, 256},
                                 {256, 128, 256}, {128, 1, 256},
                                 {2, 128, 256}};
    for (const std::size_t in : {1, 2, 7, 9, 17, 65})
        for (const std::size_t out : {1, 5, 8, 13, 600})
            shapes.push_back({in, out, 300});

    std::uint64_t seed = 5100;
    for (const Shape& s : shapes) {
        SCOPED_TRACE("in=" + std::to_string(s.in) + " out=" +
                     std::to_string(s.out) + " batch=" + std::to_string(s.batch));
        const std::size_t batch = s.batch;
        const nn::Matrix x = half_zero_matrix(batch, s.in, seed++, 3);
        const nn::Matrix dy = half_zero_matrix(batch, s.out, seed++, 5);
        const nn::Matrix w = random_matrix(s.in, s.out, seed++);
        const nn::Matrix c0 = random_matrix(s.in, s.out, seed++);

        nn::Matrix want_tn(s.in, s.out), want_nt(batch, s.in);
        for (std::size_t i = 0; i < s.in; ++i)
            for (std::size_t j = 0; j < s.out; ++j)
                want_tn.at(i, j) = tn_reference_chain(x, dy, c0.at(i, j), i, j);
        for (std::size_t i = 0; i < batch; ++i)
            for (std::size_t j = 0; j < s.in; ++j)
                want_nt.at(i, j) = nt_reference_chain(dy, w, i, j);

        // Row chunks of 1-5 rows, then the whole range in one call.
        for (const std::size_t chunk : {1, 2, 3, 4, 5, 0}) {
            SCOPED_TRACE("chunk=" + std::to_string(chunk));
            nn::Matrix tn = c0;
            const std::size_t tn_step = chunk == 0 ? s.in : chunk;
            for (std::size_t r0 = 0; r0 < s.in; r0 += tn_step)
                vx.matmul_tn_rows(x.data().data(), dy.data().data(),
                                  tn.data().data(), batch, s.in, s.out, r0,
                                  std::min(s.in, r0 + tn_step));
            EXPECT_EQ(first_bit_mismatch(tn, want_tn), "") << "matmul_tn_rows";

            nn::Matrix nt(batch, s.in, 0.0f);
            const std::size_t nt_step = chunk == 0 ? batch : chunk;
            for (std::size_t r0 = 0; r0 < batch; r0 += nt_step)
                vx.matmul_nt_rows(dy.data().data(), w.data().data(),
                                  nt.data().data(), s.out, s.in, r0,
                                  std::min(batch, r0 + nt_step));
            EXPECT_EQ(first_bit_mismatch(nt, want_nt), "") << "matmul_nt_rows";
        }
    }
}

/// Inputs of a run of consecutive instants: 4 base rows plus small
/// perturbations, standardized per column like the detector's inputs.
nn::Matrix correlated_inputs(std::size_t rows, std::size_t features) {
    const nn::Matrix base = random_matrix(4, features, 91, 2.0f);
    const nn::Matrix noise = random_matrix(rows, features, 92, 0.05f);
    nn::Matrix x(rows, features);
    for (std::size_t j = 0; j < features; ++j) {
        double mean = 0.0, var = 0.0;
        for (std::size_t i = 0; i < rows; ++i) {
            x.at(i, j) = base.at(i * 4 / rows, j) + noise.at(i, j);
            mean += x.at(i, j);
        }
        mean /= static_cast<double>(rows);
        for (std::size_t i = 0; i < rows; ++i)
            var += (x.at(i, j) - mean) * (x.at(i, j) - mean);
        const double sd = std::sqrt(var / static_cast<double>(rows));
        for (std::size_t i = 0; i < rows; ++i)
            x.at(i, j) = static_cast<float>((x.at(i, j) - mean) / sd);
    }
    return x;
}

// Every logit of a batched forward must equal the row's batch-1 forward: on
// 8 independent random rows, and on 96 correlated ones, whose hidden layers
// switch on nearly the same units row after row, so the batched forward
// takes the live-step lists and the narrow head kernel.
TEST(KernelParity, Avx2BatchOneForwardMatchesBatchedRowsBitwise) {
    if (!kn::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
    KernelBackendGuard kguard;
    ThreadConfigGuard tguard;
    common::set_execution_config({.threads = 1});
    ASSERT_TRUE(kn::set_kernel_backend("avx2"));

    std::mt19937_64 rng(21);
    nn::Mlp net = nn::paper_mlp(66, rng);
    net.set_training(false);
    for (const nn::Matrix& x : {random_matrix(8, 66, 77, 2.0f), correlated_inputs(96, 66)}) {
        SCOPED_TRACE(std::to_string(x.rows()) + " rows");
        const nn::Matrix batched = net.forward_ws(x, /*cache=*/false);
        ASSERT_EQ(batched.rows(), x.rows());

        nn::Matrix row;
        for (std::size_t i = 0; i < x.rows(); ++i) {
            nn::row_block_into(x, i, 1, row);
            const nn::Matrix& out = net.forward_ws(row, /*cache=*/false);
            EXPECT_EQ(bits32(out.at(0, 0)), bits32(batched.at(i, 0))) << "row " << i;
        }
    }
}

// ---------------------------------------------------------------------------
// Fused inference path
// ---------------------------------------------------------------------------

TEST(FusedInference, MatchesLayerByLayerBitwiseOnScalar) {
    KernelBackendGuard guard;
    ASSERT_TRUE(kn::set_kernel_backend("scalar"));
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);

    // cache=true walks the historical layer-by-layer path; cache=false takes
    // the fused Dense+activation fast path. Same bits on scalar.
    const nn::Matrix cached = net.forward_ws(x, /*cache=*/true);
    const nn::Matrix fused = net.forward_ws(x, /*cache=*/false);
    EXPECT_TRUE(bitwise_equal(cached, fused));

    // The fused pass must leave the caches in the inference state.
    for (const auto& layer : net.layers())
        EXPECT_TRUE(layer->last_output().empty()) << layer->name();
}

// ---------------------------------------------------------------------------
// int8 quantization
// ---------------------------------------------------------------------------

TEST(Quantized, QuantizeRoundTripIsNearestEvenAndSaturating) {
    const kn::KernelBackend& sc = kn::scalar_backend();
    const float vals[] = {0.0f,  0.4999f, 0.5f,  1.5f,  2.5f,
                          -2.5f, 126.6f,  300.0f, -300.0f};
    std::int8_t q[9];
    sc.quantize_s8_rows(vals, q, 1.0f, 9, 0, 1);
    EXPECT_EQ(q[0], 0);
    EXPECT_EQ(q[1], 0);
    EXPECT_EQ(q[2], 0);   // nearest-even: 0.5 -> 0
    EXPECT_EQ(q[3], 2);   // 1.5 -> 2
    EXPECT_EQ(q[4], 2);   // 2.5 -> 2
    EXPECT_EQ(q[5], -2);
    EXPECT_EQ(q[6], 127);
    EXPECT_EQ(q[7], 127);   // saturates at +127
    EXPECT_EQ(q[8], -127);  // symmetric: never -128
}

TEST(Quantized, MlpTracksFloatNetworkAccuracy) {
    KernelBackendGuard guard;
    ASSERT_TRUE(kn::set_kernel_backend("scalar"));
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);
    nn::QuantizedMlp qnet = nn::quantize_mlp(net, x);

    EXPECT_EQ(qnet.input_size(), 12u);
    EXPECT_EQ(qnet.output_size(), 1u);
    EXPECT_EQ(qnet.layers().size(), 3u);
    // int8 weights + float biases: ~4x smaller than the float checkpoint.
    EXPECT_LT(qnet.weight_bytes() * 3, net.weight_bytes());

    const std::vector<int> fp = nn::predict_binary(net, x);
    const std::vector<int> q8 = nn::predict_binary(qnet, x);
    ASSERT_EQ(fp.size(), q8.size());
    std::size_t agree = 0, fp_correct = 0, q8_correct = 0;
    for (std::size_t i = 0; i < fp.size(); ++i) {
        agree += fp[i] == q8[i];
        fp_correct += fp[i] == static_cast<int>(y.at(i, 0));
        q8_correct += q8[i] == static_cast<int>(y.at(i, 0));
    }
    // Per-tensor symmetric int8 flips only boundary cases.
    EXPECT_GE(agree, fp.size() * 98 / 100);
    const double delta_pp =
        std::abs(static_cast<double>(fp_correct) - static_cast<double>(q8_correct)) *
        100.0 / static_cast<double>(fp.size());
    EXPECT_LE(delta_pp, 0.5) << "quantized accuracy drifted past the gate";
}

TEST(Quantized, OutputsAreBitwiseBackendAndThreadInvariant) {
    KernelBackendGuard kguard;
    ThreadConfigGuard tguard;
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);

    ASSERT_TRUE(kn::set_kernel_backend("scalar"));
    common::set_execution_config({.threads = 1});
    nn::QuantizedMlp qnet = nn::quantize_mlp(net, x);
    const nn::Matrix ref = nn::predict(qnet, x);

    struct Config {
        const char* backend;
        std::size_t threads;
    };
    std::vector<Config> configs = {{"scalar", 2}, {"scalar", 8}};
    if (kn::avx2_supported()) {
        configs.push_back({"avx2", 1});
        configs.push_back({"avx2", 2});
        configs.push_back({"avx2", 8});
    }
    for (const Config& c : configs) {
        SCOPED_TRACE(std::string(c.backend) + " @ " +
                     std::to_string(c.threads) + "t");
        ASSERT_TRUE(kn::set_kernel_backend(c.backend));
        common::set_execution_config({.threads = c.threads});
        const nn::Matrix out = nn::predict(qnet, x);
        EXPECT_TRUE(bitwise_equal(ref, out));
    }
}

TEST(Quantized, RejectsCalibrationShapeMismatch) {
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);
    const nn::Matrix bad = random_matrix(8, 5, 1);  // 5 != input_size 12
    EXPECT_THROW((void)nn::quantize_mlp(net, bad), std::invalid_argument);
    const nn::Matrix empty;
    EXPECT_THROW((void)nn::quantize_mlp(net, empty), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Zero-allocation probes
// ---------------------------------------------------------------------------

TEST(KernelAlloc, WarmFloatForwardAllocatesNothingOnEveryBackend) {
    KernelBackendGuard kguard;
    ThreadConfigGuard tguard;
    common::set_execution_config({.threads = 1});
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);

    std::vector<const char*> backends = {"scalar"};
    if (kn::avx2_supported()) backends.push_back("avx2");
    for (const char* backend : backends) {
        // Batch 1 is the serving shape: it runs the single-row kernel.
        for (const std::size_t batch : {std::size_t{128}, std::size_t{1}}) {
            SCOPED_TRACE(std::string(backend) + " batch " +
                         std::to_string(batch));
            ASSERT_TRUE(kn::set_kernel_backend(backend));
            net.reserve_workspace(batch);
            nn::Matrix& block = net.input_buffer();
            nn::row_block_into(x, 0, batch, block);
            (void)net.forward_ws(block, /*cache=*/false);  // warm

            alloc::AllocationProbe probe;
            float sink = 0.0f;
            for (std::size_t b = 0; b + batch <= x.rows(); b += batch) {
                nn::row_block_into(x, b, batch, block);
                sink += net.forward_ws(block, /*cache=*/false).at(0, 0);
            }
            EXPECT_EQ(probe.delta(), 0u) << backend << " warm forward allocated";
            EXPECT_TRUE(std::isfinite(sink));
        }
    }
}

TEST(KernelAlloc, WarmQuantizedForwardAllocatesNothingOnEveryBackend) {
    KernelBackendGuard kguard;
    ThreadConfigGuard tguard;
    common::set_execution_config({.threads = 1});
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);
    nn::QuantizedMlp qnet = nn::quantize_mlp(net, x);

    std::vector<const char*> backends = {"scalar"};
    if (kn::avx2_supported()) backends.push_back("avx2");
    for (const char* backend : backends) {
        SCOPED_TRACE(backend);
        ASSERT_TRUE(kn::set_kernel_backend(backend));
        constexpr std::size_t kBatch = 128;
        qnet.reserve_workspace(kBatch);
        nn::Matrix& block = qnet.input_buffer();
        nn::row_block_into(x, 0, kBatch, block);
        (void)qnet.forward_ws(block);  // warm

        alloc::AllocationProbe probe;
        float sink = 0.0f;
        for (std::size_t b = 0; b + kBatch <= x.rows(); b += kBatch) {
            nn::row_block_into(x, b, kBatch, block);
            sink += qnet.forward_ws(block).at(0, 0);
        }
        EXPECT_EQ(probe.delta(), 0u) << backend
                                     << " warm int8 forward allocated";
        EXPECT_TRUE(std::isfinite(sink));
    }
}

// ---------------------------------------------------------------------------
// Serialize v3
// ---------------------------------------------------------------------------

TEST(SerializeV3, QuantizedRoundTripPreservesBits) {
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);
    nn::QuantizedMlp qnet = nn::quantize_mlp(net, x);

    std::stringstream buf;
    nn::save_quantized_mlp(qnet, buf);
    nn::QuantizedMlp loaded = nn::load_quantized_mlp(buf);

    ASSERT_EQ(loaded.layers().size(), qnet.layers().size());
    for (std::size_t i = 0; i < qnet.layers().size(); ++i) {
        const nn::QuantizedDenseLayer& a = qnet.layers()[i];
        const nn::QuantizedDenseLayer& b = loaded.layers()[i];
        EXPECT_EQ(a.in, b.in);
        EXPECT_EQ(a.out, b.out);
        EXPECT_EQ(a.act, b.act);
        EXPECT_EQ(bits32(a.in_scale), bits32(b.in_scale));
        EXPECT_EQ(bits32(a.w_scale), bits32(b.w_scale));
        EXPECT_EQ(a.weights, b.weights);
        ASSERT_EQ(a.bias.size(), b.bias.size());
        for (std::size_t j = 0; j < a.bias.size(); ++j)
            EXPECT_EQ(bits32(a.bias[j]), bits32(b.bias[j]));
    }
    // Same bits in, same bits out of inference.
    const nn::Matrix p1 = nn::predict(qnet, x);
    const nn::Matrix p2 = nn::predict(loaded, x);
    EXPECT_TRUE(bitwise_equal(p1, p2));
}

TEST(SerializeV3, CrossFormatLoadsAreRejected) {
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);

    // A float (v2) checkpoint must be refused by the quantized loader...
    std::stringstream float_buf;
    nn::save_mlp(net, float_buf);
    const auto r1 = nn::try_load_quantized_mlp(float_buf);
    EXPECT_EQ(r1.status().code(), common::StatusCode::kFormatMismatch);

    // ...and a quantized (v3) checkpoint by the float loader.
    nn::QuantizedMlp qnet = nn::quantize_mlp(net, x);
    std::stringstream quant_buf;
    nn::save_quantized_mlp(qnet, quant_buf);
    const auto r2 = nn::try_load_mlp(quant_buf);
    EXPECT_EQ(r2.status().code(), common::StatusCode::kFormatMismatch);
}

TEST(SerializeV3, LegacyFloatStreamsStillLoad) {
    // v2 (current float) round-trip stays intact next to the v3 writer.
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);
    std::stringstream buf;
    nn::save_mlp(net, buf);
    nn::Mlp loaded = nn::load_mlp(buf);
    loaded.set_training(false);
    const nn::Matrix p1 = nn::predict(net, x);
    const nn::Matrix p2 = nn::predict(loaded, x);
    EXPECT_TRUE(bitwise_equal(p1, p2));

    // v1 stream (no size/CRC framing): quantized loader refuses it with
    // kFormatMismatch, float loader still accepts it
    // (test_nn_serialize.cpp::LegacyV1StreamStillLoads).
    std::stringstream v1;
    v1.write("WSNN", 4);
    const std::uint32_t version = 1;
    v1.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const std::uint64_t layer_count = 0;
    v1.write(reinterpret_cast<const char*>(&layer_count), sizeof(layer_count));
    const auto r = nn::try_load_quantized_mlp(v1);
    EXPECT_EQ(r.status().code(), common::StatusCode::kFormatMismatch);
}

TEST(SerializeV3, CorruptQuantizedCheckpointIsDetected) {
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);
    nn::QuantizedMlp qnet = nn::quantize_mlp(net, x);
    std::stringstream buf;
    nn::save_quantized_mlp(qnet, buf);
    std::string bytes = buf.str();
    bytes[bytes.size() / 2] ^= 0x40;  // flip one payload bit
    std::stringstream corrupted(bytes);
    const auto r = nn::try_load_quantized_mlp(corrupted);
    EXPECT_EQ(r.status().code(), common::StatusCode::kCorruptData);

    std::stringstream cut(buf.str().substr(0, bytes.size() - 8));
    const auto r2 = nn::try_load_quantized_mlp(cut);
    EXPECT_EQ(r2.status().code(), common::StatusCode::kTruncated);
}

}  // namespace
