// Zero-allocation hot path + bitwise determinism of the workspace refactor.
//
// Golden values: the hex constants below were captured from the
// pre-workspace implementation (value-returning forward/backward, allocating
// kernels) running this exact scenario at 1, 2 and 8 threads — all three
// configurations produced identical bits. The workspace implementation must
// keep reproducing them: any change in accumulation order, RNG draw order or
// batch decomposition shows up here as a bit mismatch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "common/alloc_counter.hpp"
#include "common/parallel.hpp"
#include "nn/kernels/backend.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"

namespace {

using namespace wifisense;

std::uint32_t bits32(float f) {
    std::uint32_t u;
    std::memcpy(&u, &f, 4);
    return u;
}

std::uint64_t bits64(double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, 8);
    return u;
}

/// Deterministic toy problem: 600 samples, 12 features, y = [x0*x1 > 0].
void make_dataset(nn::Matrix& x, nn::Matrix& y) {
    std::mt19937_64 drng(123);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    x.resize(600, 12);
    y.resize(600, 1);
    for (float& v : x.data()) v = u(drng);
    for (std::size_t i = 0; i < y.rows(); ++i)
        y.at(i, 0) = (x.at(i, 0) * x.at(i, 1) > 0.0f) ? 1.0f : 0.0f;
}

nn::TrainConfig golden_config() {
    nn::TrainConfig cfg;
    cfg.epochs = 3;
    cfg.batch_size = 128;
    cfg.input_noise = 0.25;
    cfg.grad_clip = 5.0;
    cfg.seed = 77;
    return cfg;
}

/// Restores the pool configuration on scope exit.
class ThreadConfigGuard {
public:
    ThreadConfigGuard() : saved_(common::execution_config()) {}
    ~ThreadConfigGuard() { common::set_execution_config(saved_); }

private:
    common::ExecutionConfig saved_;
};

// Captured from the pre-workspace implementation (see file comment).
constexpr std::uint64_t kGoldenEpochLoss[3] = {
    0x3fe9e43d896f7a38ull, 0x3fe7c58bbe84f9b1ull, 0x3fe6e10ee323b57eull};
constexpr std::uint32_t kGoldenLogits[7] = {
    0x3d71124au, 0x3e1e905eu, 0xbc6bdc0du, 0xbe8b1205u,
    0xba936700u, 0x3c37b53cu, 0xbf6e713eu};
constexpr std::uint32_t kGoldenWeightsXor = 0x3c1afaa0u;

/// Restores the kernel backend on scope exit.
class KernelBackendGuard {
public:
    KernelBackendGuard() : saved_(nn::kernels::active_backend().name) {}
    ~KernelBackendGuard() { nn::kernels::set_kernel_backend(saved_); }

private:
    std::string saved_;
};

/// Bits of one golden training run: per-epoch loss, every 97th logit of the
/// trained network, and the XOR of all its parameters.
struct GoldenBits {
    std::vector<std::uint64_t> epoch_loss;
    std::vector<std::uint32_t> logits;
    std::uint32_t weights_xor = 0;
};

GoldenBits train_golden(std::size_t threads) {
    nn::Matrix x, y;
    make_dataset(x, y);
    const nn::BceWithLogitsLoss loss;
    common::set_execution_config({.threads = threads});

    std::mt19937_64 rng(9);
    nn::Mlp net({12, 32, 16, 1}, nn::Init::kKaimingUniform, rng);
    const nn::TrainHistory h = nn::train(net, x, y, loss, golden_config());

    GoldenBits g;
    for (const double l : h.epoch_loss) g.epoch_loss.push_back(bits64(l));
    const nn::Matrix logits = nn::predict(net, x, 256);
    for (std::size_t i = 0; i < logits.rows(); i += 97)
        g.logits.push_back(bits32(logits.at(i, 0)));
    for (nn::ParamView& p : net.parameters())
        for (const float v : p.values) g.weights_xor ^= bits32(v);
    return g;
}

// The constants pin the scalar reference backend (DESIGN.md §16), so the
// test selects it explicitly: under WIFISENSE_KERNELS=avx2 the FMA GEMMs
// round differently and these bits do not apply.
TEST(WorkspaceGolden, TrainingBitwiseIdenticalAcrossThreadCounts) {
    ThreadConfigGuard guard;
    KernelBackendGuard kguard;
    ASSERT_TRUE(nn::kernels::set_kernel_backend("scalar"));

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const GoldenBits g = train_golden(threads);

        ASSERT_EQ(g.epoch_loss.size(), 3u);
        for (std::size_t e = 0; e < 3; ++e)
            EXPECT_EQ(g.epoch_loss[e], kGoldenEpochLoss[e]) << "epoch " << e;
        ASSERT_EQ(g.logits.size(), 7u);
        for (std::size_t r = 0; r < 7; ++r)
            EXPECT_EQ(g.logits[r], kGoldenLogits[r]) << "row " << r * 97;
        EXPECT_EQ(g.weights_xor, kGoldenWeightsXor);
    }
}

// The avx2 sibling, so the avx2 sanitizer legs also train through the
// vectorized kernels. Its constants were captured with the unblocked
// backward GEMMs (one broadcast per batch row for dW, one accumulator per
// output for dX). Every avx2 kernel since keeps each element's FMA chain,
// so the bits must not move at any thread count.
constexpr std::uint64_t kAvx2GoldenEpochLoss[3] = {
    0x3fe9e43d8c13b992ull, 0x3fe7c58bbf4619d5ull, 0x3fe6e10ee3bd2dedull};
constexpr std::uint32_t kAvx2GoldenLogits[7] = {
    0x3d711299u, 0x3e1e905cu, 0xbc6bdc0du, 0xbe8b1204u,
    0xba936640u, 0x3c37b560u, 0xbf6e7141u};
constexpr std::uint32_t kAvx2GoldenWeightsXor = 0x3c1af978u;

TEST(WorkspaceGolden, Avx2TrainingBitwiseIdenticalAcrossThreadCounts) {
    if (!nn::kernels::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
    ThreadConfigGuard guard;
    KernelBackendGuard kguard;
    ASSERT_TRUE(nn::kernels::set_kernel_backend("avx2"));

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const GoldenBits g = train_golden(threads);

        ASSERT_EQ(g.epoch_loss.size(), 3u);
        for (std::size_t e = 0; e < 3; ++e)
            EXPECT_EQ(g.epoch_loss[e], kAvx2GoldenEpochLoss[e]) << "epoch " << e;
        ASSERT_EQ(g.logits.size(), 7u);
        for (std::size_t r = 0; r < 7; ++r)
            EXPECT_EQ(g.logits[r], kAvx2GoldenLogits[r]) << "row " << r * 97;
        EXPECT_EQ(g.weights_xor, kAvx2GoldenWeightsXor);
    }
}

/// The paper model at its training shapes: paper_mlp(66) (the fused 4-link
/// input width) trained two epochs at batch 256 on 1,050 samples of
/// y = [x0 + x1*x2 > 0], so the last batch of each epoch is a ragged 26
/// rows. Captured on avx2 with the same kernels as the constants above.
constexpr std::uint64_t kAvx2PaperEpochLoss[2] = {0x3fea40947005bca8ull,
                                                 0x3fe18109a8674978ull};
constexpr std::uint32_t kAvx2PaperLogits[11] = {
    0xbf330fdcu, 0x3e23ea71u, 0xbf0278c6u, 0x3f3b0366u, 0xbf7f7494u, 0xbfd37233u,
    0xbf9d307fu, 0x3ec07340u, 0xbf3de7e9u, 0xbf94b093u, 0xbed482d7u};
constexpr std::uint32_t kAvx2PaperWeightsXor = 0xbe0d7936u;

/// Trains the paper scenario above on `backend` at 1 and 2 threads and
/// checks the per-epoch losses, every 97th logit and the parameter XOR.
void expect_paper_training_bits(const char* backend,
                                const std::uint64_t (&epoch_loss)[2],
                                const std::uint32_t (&logits_every_97th)[11],
                                std::uint32_t weights_xor_want) {
    ThreadConfigGuard guard;
    KernelBackendGuard kguard;
    ASSERT_TRUE(nn::kernels::set_kernel_backend(backend));

    std::mt19937_64 drng(321);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    nn::Matrix x(1050, 66), y(1050, 1);
    for (float& v : x.data()) v = u(drng);
    for (std::size_t i = 0; i < y.rows(); ++i)
        y.at(i, 0) = x.at(i, 0) + x.at(i, 1) * x.at(i, 2) > 0.0f ? 1.0f : 0.0f;
    nn::TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch_size = 256;
    cfg.seed = 77;
    const nn::BceWithLogitsLoss loss;

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        common::set_execution_config({.threads = threads});
        std::mt19937_64 rng(9);
        nn::Mlp net = nn::paper_mlp(66, rng);
        const nn::TrainHistory h = nn::train(net, x, y, loss, cfg);

        ASSERT_EQ(h.epoch_loss.size(), 2u);
        for (std::size_t e = 0; e < 2; ++e)
            EXPECT_EQ(bits64(h.epoch_loss[e]), epoch_loss[e]) << "epoch " << e;
        const nn::Matrix logits = nn::predict(net, x, 256);
        for (std::size_t r = 0; r < 11; ++r)
            EXPECT_EQ(bits32(logits.at(r * 97, 0)), logits_every_97th[r])
                << "row " << r * 97;
        std::uint32_t weights_xor = 0;
        for (nn::ParamView& p : net.parameters())
            for (const float v : p.values) weights_xor ^= bits32(v);
        EXPECT_EQ(weights_xor, weights_xor_want);
    }
}

TEST(WorkspaceGolden, Avx2PaperMlpTrainingMatchesPinnedBits) {
    if (!nn::kernels::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
    expect_paper_training_bits("avx2", kAvx2PaperEpochLoss, kAvx2PaperLogits,
                               kAvx2PaperWeightsXor);
}

/// The scalar reference on the same paper-shape scenario. At batch 256
/// every wide layer's GEMMs split into several row chunks (gemm_row_grain
/// in tensor.cpp targets 1M multiply-adds per chunk): the 128->256 and
/// 256->128 forwards run 32-row chunks (8 per batch), their dW = X^T dY
/// 16- and 32-row chunks of C (8 each) and their dX 32-row chunks (8),
/// and the 66->128 forward runs 124-row chunks (3). So at 2 threads the
/// chunks really run on different threads, which the {12, 32, 16, 1}
/// golden above (one chunk per GEMM) cannot show. Captured at 1 thread.
constexpr std::uint64_t kPaperEpochLoss[2] = {0x3fea40947b73290bull,
                                              0x3fe18109aab82308ull};
constexpr std::uint32_t kPaperLogits[11] = {
    0xbf330fe3u, 0x3e23ea65u, 0xbf0278c1u, 0x3f3b0369u, 0xbf7f749bu, 0xbfd37233u,
    0xbf9d3083u, 0x3ec0733bu, 0xbf3de7e2u, 0xbf94b08fu, 0xbed482d2u};
constexpr std::uint32_t kPaperWeightsXor = 0xbe0983c6u;

TEST(WorkspaceGolden, PaperMlpTrainingSplitAcrossThreadsMatchesPinnedBits) {
    expect_paper_training_bits("scalar", kPaperEpochLoss, kPaperLogits, kPaperWeightsXor);
}

/// Replica of the trainer's inner loop (gather, jitter, forward, loss,
/// backward, clip, step) so the allocation probe can bracket exactly one
/// steady-state step.
class WorkspaceAllocTest : public ::testing::Test {
protected:
    void SetUp() override {
        common::set_execution_config({.threads = 1});
        make_dataset(x_, y_);
        std::mt19937_64 rng(9);
        net_ = nn::Mlp({12, 32, 16, 1}, nn::Init::kKaimingUniform, rng);
        params_ = net_.parameters();
        net_.set_training(true);
        net_.reserve_workspace(kBatch);
        by_.reserve(kBatch, y_.cols());
        order_.resize(x_.rows());
        for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    }

    void TearDown() override { common::set_execution_config(saved_.saved()); }

    void training_step(std::size_t step) {
        const std::size_t begin = (step * kBatch) % (x_.rows() - kBatch);
        const std::span<const std::size_t> idx(&order_[begin], kBatch);
        nn::Matrix& bx = net_.input_buffer();
        nn::gather_rows_into(x_, idx, bx);
        nn::gather_rows_into(y_, idx, by_);
        std::normal_distribution<float> jitter(0.0f, 0.25f);
        for (float& v : bx.data()) v += jitter(rng_);

        net_.zero_grad();
        const nn::Matrix& out = net_.forward_ws(bx, /*cache=*/true);
        loss_.compute_into(out, by_, net_.output_grad_buffer());
        net_.backward_params_ws();
        clip(5.0);
        opt_.step(params_);
    }

    void clip(double max_norm) {
        double sq = 0.0;
        for (const nn::ParamView& p : params_)
            for (const float g : p.grads) sq += static_cast<double>(g) * g;
        const double norm = std::sqrt(sq);
        if (norm <= max_norm || norm == 0.0) return;
        const auto scale = static_cast<float>(max_norm / norm);
        for (nn::ParamView& p : params_)
            for (float& g : p.grads) g *= scale;
    }

    static constexpr std::size_t kBatch = 128;

    class SavedConfig {
    public:
        SavedConfig() : cfg_(common::execution_config()) {}
        common::ExecutionConfig saved() const { return cfg_; }

    private:
        common::ExecutionConfig cfg_;
    };

    SavedConfig saved_;  // captured before SetUp reconfigures the pool
    nn::Matrix x_, y_, by_;
    nn::Mlp net_;
    std::vector<nn::ParamView> params_;
    nn::BceWithLogitsLoss loss_;
    nn::AdamW opt_;
    std::mt19937_64 rng_{77};
    std::vector<std::size_t> order_;
};

TEST_F(WorkspaceAllocTest, SteadyStateTrainingStepAllocatesNothing) {
    // Step 0 warms the workspace resize paths and the AdamW moment buffers;
    // step 1 confirms warm. Steps 2..4 must be allocation-free.
    training_step(0);
    training_step(1);
    alloc::AllocationProbe probe;
    training_step(2);
    training_step(3);
    training_step(4);
    const std::uint64_t allocs = probe.delta();
    EXPECT_EQ(allocs, 0u) << "steady-state training steps touched the heap";
}

TEST_F(WorkspaceAllocTest, WarmPredictBatchAllocatesNothing) {
    net_.set_training(false);
    // Warm-up: sizes the workspace for the predict batch shape.
    nn::Matrix& block = net_.input_buffer();
    nn::row_block_into(x_, 0, kBatch, block);
    (void)net_.forward_ws(block, /*cache=*/false);

    alloc::AllocationProbe probe;
    float sink = 0.0f;
    for (std::size_t begin = 0; begin + kBatch <= x_.rows(); begin += kBatch) {
        nn::row_block_into(x_, begin, kBatch, block);
        const nn::Matrix& out = net_.forward_ws(block, /*cache=*/false);
        sink += out.at(0, 0);
    }
    const std::uint64_t allocs = probe.delta();
    EXPECT_EQ(allocs, 0u) << "warm inference batches touched the heap";
    EXPECT_TRUE(std::isfinite(sink));
}

TEST_F(WorkspaceAllocTest, WarmPredictCallAllocatesOnlyTheResult) {
    (void)nn::predict(net_, x_, kBatch);  // warm-up sizes the workspace
    alloc::AllocationProbe probe;
    const nn::Matrix out = nn::predict(net_, x_, kBatch);
    const std::uint64_t allocs = probe.delta();
    // The output matrix is the only allocation a warm predict makes.
    EXPECT_EQ(allocs, 1u);
    EXPECT_EQ(out.rows(), x_.rows());
}

TEST(InferenceMode, PredictLeavesActivationCachesEmpty) {
    nn::Matrix x, y;
    make_dataset(x, y);
    std::mt19937_64 rng(9);
    nn::Mlp net({12, 32, 16, 1}, nn::Init::kKaimingUniform, rng);

    (void)nn::predict(net, x, 256);
    for (const auto& layer : net.layers()) {
        EXPECT_TRUE(layer->last_output().empty())
            << layer->name() << " cached activations in inference mode";
        EXPECT_TRUE(layer->last_output_grad().empty());
    }

    // A cached (training-style) forward populates the caches again.
    (void)net.forward_ws(x, /*cache=*/true);
    for (const auto& layer : net.layers())
        EXPECT_FALSE(layer->last_output().empty())
            << layer->name() << " did not cache on a cached forward";
}

TEST(InferenceMode, BackwardAfterInferenceForwardThrows) {
    std::mt19937_64 rng(9);
    nn::Mlp net({12, 32, 16, 1}, nn::Init::kKaimingUniform, rng);
    nn::Matrix x(4, 12, 0.5f);

    (void)net.forward_ws(x, /*cache=*/false);
    net.output_grad_buffer().fill(1.0f);
    EXPECT_THROW(net.backward_ws(), std::logic_error);

    // Legacy forward follows the training/inference mode: in eval mode it
    // must not cache, and a subsequent backward must refuse.
    net.set_training(false);
    (void)net.forward(x);
    EXPECT_THROW(net.backward(nn::Matrix(4, 1, 1.0f)), std::logic_error);

    // Back in training mode the legacy pair works.
    net.set_training(true);
    (void)net.forward(x);
    EXPECT_NO_THROW(net.backward(nn::Matrix(4, 1, 1.0f)));
}

}  // namespace
