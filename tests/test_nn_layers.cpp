// Gradient correctness is the backbone of everything downstream (training,
// Grad-CAM): every layer and loss is checked against central finite
// differences here.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>

#include "nn/init.hpp"
#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"

namespace nn = wifisense::nn;

namespace {

nn::Matrix random_matrix(std::size_t r, std::size_t c, std::mt19937_64& rng) {
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    nn::Matrix m(r, c);
    for (float& v : m.data()) v = u(rng);
    return m;
}

std::uint32_t bits32(float f) {
    std::uint32_t u;
    std::memcpy(&u, &f, 4);
    return u;
}

/// ReLU whose cached forward output is set directly, to reach outputs its
/// own forward pass never produces.
class CachedOutputRelu : public nn::ReLU {
public:
    using nn::ReLU::ReLU;
    void cache(const nn::Matrix& input, const nn::Matrix& output) {
        cache_forward(input, output, /*cache=*/true);
    }
};

// Scalar objective: sum of elementwise products with fixed weights.
double objective(const nn::Matrix& out, const nn::Matrix& w) {
    double acc = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i)
        acc += static_cast<double>(out.data()[i]) * static_cast<double>(w.data()[i]);
    return acc;
}

}  // namespace

TEST(Layers, DenseForwardMatchesManualComputation) {
    nn::Dense dense(2, 2);
    dense.weights() = nn::Matrix{{1.0f, 2.0f}, {3.0f, 4.0f}};
    dense.bias() = {0.5f, -0.5f};
    const nn::Matrix x{{1.0f, 1.0f}};
    const nn::Matrix y = dense.forward(x);
    EXPECT_FLOAT_EQ(y.at(0, 0), 4.5f);  // 1*1 + 1*3 + 0.5
    EXPECT_FLOAT_EQ(y.at(0, 1), 5.5f);  // 1*2 + 1*4 - 0.5
}

TEST(Layers, DenseInputGradientMatchesFiniteDifference) {
    std::mt19937_64 rng(5);
    nn::Dense dense(4, 3);
    nn::initialize(dense, nn::Init::kXavierUniform, rng);
    nn::Matrix x = random_matrix(2, 4, rng);
    const nn::Matrix w = random_matrix(2, 3, rng);

    (void)dense.forward(x);
    const nn::Matrix gin = dense.backward(w);

    const float eps = 1e-3f;
    for (std::size_t i = 0; i < x.size(); ++i) {
        nn::Matrix xp = x, xm = x;
        xp.data()[i] += eps;
        xm.data()[i] -= eps;
        const double num =
            (objective(dense.forward(xp), w) - objective(dense.forward(xm), w)) /
            (2.0 * eps);
        EXPECT_NEAR(gin.data()[i], num, 2e-3) << "input index " << i;
    }
}

TEST(Layers, DenseParameterGradientMatchesFiniteDifference) {
    std::mt19937_64 rng(6);
    nn::Dense dense(3, 2);
    nn::initialize(dense, nn::Init::kXavierUniform, rng);
    const nn::Matrix x = random_matrix(4, 3, rng);
    const nn::Matrix w = random_matrix(4, 2, rng);

    dense.zero_grad();
    (void)dense.forward(x);
    (void)dense.backward(w);
    std::vector<nn::ParamView> params = dense.parameters();

    const float eps = 1e-3f;
    for (nn::ParamView& p : params) {
        for (std::size_t i = 0; i < p.values.size(); ++i) {
            const float orig = p.values[i];
            p.values[i] = orig + eps;
            const double up = objective(dense.forward(x), w);
            p.values[i] = orig - eps;
            const double dn = objective(dense.forward(x), w);
            p.values[i] = orig;
            EXPECT_NEAR(p.grads[i], (up - dn) / (2.0 * eps), 2e-3)
                << p.name << "[" << i << "]";
        }
    }
}

TEST(Layers, DenseBackwardAccumulatesAcrossCalls) {
    std::mt19937_64 rng(7);
    nn::Dense dense(2, 2);
    nn::initialize(dense, nn::Init::kXavierUniform, rng);
    const nn::Matrix x = random_matrix(3, 2, rng);
    const nn::Matrix g = random_matrix(3, 2, rng);

    dense.zero_grad();
    (void)dense.forward(x);
    (void)dense.backward(g);
    const std::vector<float> once(dense.parameters()[0].grads.begin(),
                                  dense.parameters()[0].grads.end());
    (void)dense.forward(x);
    (void)dense.backward(g);
    const auto twice = dense.parameters()[0].grads;
    for (std::size_t i = 0; i < once.size(); ++i)
        EXPECT_NEAR(twice[i], 2.0f * once[i], 1e-5f);
}

TEST(Layers, ReluZeroesNegativesAndPassesPositives) {
    nn::ReLU relu(3);
    const nn::Matrix x{{-1.0f, 0.0f, 2.0f}};
    const nn::Matrix y = relu.forward(x);
    EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(y.at(0, 2), 2.0f);
}

TEST(Layers, ReluGradientMask) {
    nn::ReLU relu(3);
    const nn::Matrix x{{-1.0f, 0.5f, 2.0f}};
    (void)relu.forward(x);
    const nn::Matrix g{{1.0f, 1.0f, 1.0f}};
    const nn::Matrix gin = relu.backward(g);
    EXPECT_FLOAT_EQ(gin.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(gin.at(0, 1), 1.0f);
    EXPECT_FLOAT_EQ(gin.at(0, 2), 1.0f);

    // Cached outputs ReLU::forward never writes (NaN, -0) still follow the
    // mask's rule: +0 wherever the output is <= 0, the gradient itself
    // elsewhere, NaN included (NaN <= 0 is false).
    CachedOutputRelu masked(6);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const nn::Matrix in(1, 6);
    const nn::Matrix out{{nan, -0.0f, 0.0f, -2.0f, 3.0f, 1e-30f}};
    masked.cache(in, out);
    const nn::Matrix grad{{-1.5f, -2.0f, -0.25f, -4.0f, -3.0f, nan}};
    nn::Matrix grad_in;
    masked.backward_into(grad, grad_in);
    const std::uint32_t want[6] = {bits32(-1.5f), bits32(0.0f), bits32(0.0f),
                                   bits32(0.0f), bits32(-3.0f), bits32(nan)};
    ASSERT_EQ(grad_in.cols(), 6u);
    for (std::size_t j = 0; j < 6; ++j)
        EXPECT_EQ(bits32(grad_in.at(0, j)), want[j]) << "column " << j;
}

TEST(Layers, SigmoidForwardAndGradient) {
    nn::Sigmoid sig(1);
    const nn::Matrix x{{0.0f}};
    const nn::Matrix y = sig.forward(x);
    EXPECT_FLOAT_EQ(y.at(0, 0), 0.5f);
    const nn::Matrix g{{1.0f}};
    const nn::Matrix gin = sig.backward(g);
    EXPECT_FLOAT_EQ(gin.at(0, 0), 0.25f);  // sigma'(0) = 0.25
}

TEST(Layers, WidthMismatchThrows) {
    nn::ReLU relu(3);
    const nn::Matrix x(1, 2);
    EXPECT_THROW(relu.forward(x), std::invalid_argument);
    nn::Dense dense(3, 2);
    EXPECT_THROW(dense.forward(x), std::invalid_argument);
}

TEST(Layers, ActivationCachesExposedForGradCam) {
    std::mt19937_64 rng(8);
    nn::Dense dense(2, 2);
    nn::initialize(dense, nn::Init::kKaimingUniform, rng);
    const nn::Matrix x = random_matrix(3, 2, rng);
    const nn::Matrix y = dense.forward(x);
    EXPECT_LT(nn::max_abs_diff(dense.last_output(), y), 1e-7f);
    const nn::Matrix g = random_matrix(3, 2, rng);
    (void)dense.backward(g);
    EXPECT_LT(nn::max_abs_diff(dense.last_output_grad(), g), 1e-7f);
}

// ---------------------------------------------------------------------------
// Losses
// ---------------------------------------------------------------------------

TEST(Losses, BceMatchesClosedFormAtLogitZero) {
    const nn::BceWithLogitsLoss loss;
    const nn::Matrix out{{0.0f}};
    const nn::Matrix tgt{{1.0f}};
    const nn::LossResult r = loss.compute(out, tgt);
    EXPECT_NEAR(r.value, std::log(2.0), 1e-6);
    EXPECT_NEAR(r.grad.at(0, 0), -0.5, 1e-6);  // sigmoid(0) - 1
}

TEST(Losses, BceIsFiniteForExtremeLogits) {
    const nn::BceWithLogitsLoss loss;
    const nn::Matrix out{{80.0f}, {-80.0f}};
    const nn::Matrix tgt{{0.0f}, {1.0f}};
    const nn::LossResult r = loss.compute(out, tgt);
    EXPECT_TRUE(std::isfinite(r.value));
    EXPECT_NEAR(r.value, 80.0, 0.1);
}

TEST(Losses, BceGradientMatchesFiniteDifference) {
    std::mt19937_64 rng(9);
    const nn::BceWithLogitsLoss loss;
    nn::Matrix out = random_matrix(5, 1, rng);
    nn::Matrix tgt(5, 1);
    for (std::size_t i = 0; i < 5; ++i)
        tgt.at(i, 0) = static_cast<float>(i % 2);

    const nn::LossResult r = loss.compute(out, tgt);
    const float eps = 1e-3f;
    for (std::size_t i = 0; i < out.size(); ++i) {
        nn::Matrix up = out, dn = out;
        up.data()[i] += eps;
        dn.data()[i] -= eps;
        const double num =
            (loss.compute(up, tgt).value - loss.compute(dn, tgt).value) / (2.0 * eps);
        EXPECT_NEAR(r.grad.data()[i], num, 1e-4);
    }
}

TEST(Losses, MseGradientMatchesFiniteDifference) {
    std::mt19937_64 rng(10);
    const nn::MseLoss loss;
    nn::Matrix out = random_matrix(4, 2, rng);
    const nn::Matrix tgt = random_matrix(4, 2, rng);

    const nn::LossResult r = loss.compute(out, tgt);
    const float eps = 1e-3f;
    for (std::size_t i = 0; i < out.size(); ++i) {
        nn::Matrix up = out, dn = out;
        up.data()[i] += eps;
        dn.data()[i] -= eps;
        const double num =
            (loss.compute(up, tgt).value - loss.compute(dn, tgt).value) / (2.0 * eps);
        EXPECT_NEAR(r.grad.data()[i], num, 1e-4);
    }
}

TEST(Losses, ShapeMismatchThrows) {
    const nn::MseLoss loss;
    EXPECT_THROW(loss.compute(nn::Matrix(2, 1), nn::Matrix(1, 1)),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Whole-network gradient check
// ---------------------------------------------------------------------------

TEST(Mlp, EndToEndGradientMatchesFiniteDifference) {
    std::mt19937_64 rng(11);
    nn::Mlp net({3, 8, 4, 1}, nn::Init::kXavierUniform, rng);
    const nn::Matrix x = random_matrix(6, 3, rng);
    nn::Matrix tgt(6, 1);
    for (std::size_t i = 0; i < 6; ++i) tgt.at(i, 0) = static_cast<float>(i % 2);
    const nn::BceWithLogitsLoss loss;

    net.zero_grad();
    const nn::LossResult r = loss.compute(net.forward(x), tgt);
    (void)net.backward(r.grad);

    const float eps = 2e-3f;
    std::size_t checked = 0;
    for (nn::ParamView& p : net.parameters()) {
        for (std::size_t i = 0; i < p.values.size(); i += 7) {  // sample every 7th
            const float orig = p.values[i];
            p.values[i] = orig + eps;
            const double up = loss.compute(net.forward(x), tgt).value;
            p.values[i] = orig - eps;
            const double dn = loss.compute(net.forward(x), tgt).value;
            p.values[i] = orig;
            EXPECT_NEAR(p.grads[i], (up - dn) / (2.0 * eps), 5e-3)
                << p.name << "[" << i << "]";
            ++checked;
        }
    }
    EXPECT_GT(checked, 10u);
}

TEST(Mlp, PaperArchitectureParameterCount) {
    std::mt19937_64 rng(12);
    // The per-layer counts of Section IV-B resolve to 64->128->256->128->1:
    // 8,320 + 33,024 + 32,896 + 129 = 74,369.
    nn::Mlp net = nn::paper_mlp(64, rng);
    EXPECT_EQ(net.parameter_count(), 74'369u);
    EXPECT_EQ(net.input_size(), 64u);
    EXPECT_EQ(net.output_size(), 1u);
    // Model size in float32: ~290 KiB; the paper's "15.18 KiB" implies int8
    // quantization plus compression, which we do not replicate.
    EXPECT_EQ(net.weight_bytes(), 74'369u * 4u);
}

TEST(Mlp, CloneProducesIdenticalOutputs) {
    std::mt19937_64 rng(13);
    nn::Mlp net({5, 16, 1}, nn::Init::kKaimingUniform, rng);
    nn::Mlp copy = net.clone();
    const nn::Matrix x = random_matrix(4, 5, rng);
    EXPECT_LT(nn::max_abs_diff(net.forward(x), copy.forward(x)), 1e-7f);
}

TEST(Mlp, EmptyNetworkThrows) {
    nn::Mlp net;
    EXPECT_THROW(net.forward(nn::Matrix(1, 1)), std::logic_error);
    std::mt19937_64 rng(1);
    EXPECT_THROW(nn::Mlp({5}, nn::Init::kZero, rng), std::invalid_argument);
}
