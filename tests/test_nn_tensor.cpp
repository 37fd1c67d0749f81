#include "nn/tensor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace nn = wifisense::nn;

TEST(Tensor, BraceInitAndAccess) {
    const nn::Matrix m{{1.0f, 2.0f}, {3.0f, 4.0f}};
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 2u);
    EXPECT_FLOAT_EQ(m.at(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(m.at(1, 0), 3.0f);
}

TEST(Tensor, RaggedInitializerThrows) {
    EXPECT_THROW((nn::Matrix{{1.0f, 2.0f}, {3.0f}}), std::invalid_argument);
}

TEST(Tensor, VectorConstructorValidatesSize) {
    EXPECT_THROW(nn::Matrix(2, 2, std::vector<float>{1.0f}), std::invalid_argument);
}

/// True when m's storage starts on a 64-byte cache line.
bool line_aligned(const nn::Matrix& m) {
    return reinterpret_cast<std::uintptr_t>(m.data().data()) % 64 == 0;
}

// Every way a Matrix gets storage hands out 64-byte aligned memory, so the
// GEMM kernels' 32-byte loads of a row never straddle two cache lines
// wherever the allocator placed the buffer. Small shapes come from the
// heap's bins and the 300 x 300 one from mmap, whose default alignment is
// 16 bytes either way.
TEST(Tensor, StorageIsCacheLineAligned) {
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {1, 1}, {1, 3}, {3, 5}, {7, 9}, {2, 66}, {66, 128}, {128, 1}, {300, 300}};
    std::vector<nn::Matrix> kept;  // live neighbours shift later placements
    for (const auto& [rows, cols] : shapes) {
        SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
        nn::Matrix m(rows, cols, 1.0f);
        EXPECT_TRUE(line_aligned(m)) << "fill constructor";

        nn::Matrix grown;
        grown.resize(rows, cols);
        EXPECT_TRUE(line_aligned(grown)) << "resize from empty";
        grown.resize(rows + 5, cols + 3);
        EXPECT_TRUE(line_aligned(grown)) << "resize past capacity";

        nn::Matrix reserved;
        reserved.reserve(rows + 1, cols);
        reserved.resize(rows, cols);
        EXPECT_TRUE(line_aligned(reserved)) << "reserve";

        nn::Matrix copied;
        copied.copy_from(m);
        EXPECT_TRUE(line_aligned(copied)) << "copy_from";
        const nn::Matrix copy_constructed = m;
        EXPECT_TRUE(line_aligned(copy_constructed)) << "copy constructor";
        const nn::Matrix moved = std::move(m);
        EXPECT_TRUE(line_aligned(moved)) << "move";

        const nn::Matrix from_vector(rows, cols, std::vector<float>(rows * cols, 2.0f));
        EXPECT_TRUE(line_aligned(from_vector)) << "vector constructor";
        EXPECT_EQ(from_vector.at(rows - 1, cols - 1), 2.0f);
        kept.push_back(copied);
    }
    const nn::Matrix braced{{1.0f, 2.0f, 3.0f}, {4.0f, 5.0f, 6.0f}};
    EXPECT_TRUE(line_aligned(braced)) << "brace initializer";
}

TEST(Tensor, MatmulKnownProduct) {
    const nn::Matrix a{{1.0f, 2.0f}, {3.0f, 4.0f}};
    const nn::Matrix b{{5.0f, 6.0f}, {7.0f, 8.0f}};
    const nn::Matrix c = nn::matmul(a, b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Tensor, MatmulShapeMismatchThrows) {
    const nn::Matrix a(2, 3);
    const nn::Matrix b(2, 3);
    EXPECT_THROW(nn::matmul(a, b), std::invalid_argument);
}

TEST(Tensor, TransposedVariantsAgreeWithExplicitTranspose) {
    std::mt19937_64 rng(3);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    nn::Matrix a(5, 7), b(5, 4), c(6, 7);
    for (float& v : a.data()) v = u(rng);
    for (float& v : b.data()) v = u(rng);
    for (float& v : c.data()) v = u(rng);

    // A^T * B == transpose(A) * B.
    EXPECT_LT(nn::max_abs_diff(nn::matmul_tn(a, b), nn::matmul(nn::transpose(a), b)),
              1e-5f);
    // A * C^T == A * transpose(C).
    EXPECT_LT(nn::max_abs_diff(nn::matmul_nt(a, c), nn::matmul(a, nn::transpose(c))),
              1e-5f);
}

TEST(Tensor, ColumnSumsAndMeans) {
    const nn::Matrix a{{1.0f, 2.0f}, {3.0f, 4.0f}};
    const std::vector<float> sums = nn::column_sums(a);
    EXPECT_FLOAT_EQ(sums[0], 4.0f);
    EXPECT_FLOAT_EQ(sums[1], 6.0f);
    const std::vector<float> means = nn::column_means(a);
    EXPECT_FLOAT_EQ(means[0], 2.0f);
    EXPECT_FLOAT_EQ(means[1], 3.0f);
}

TEST(Tensor, ElementwiseOps) {
    const nn::Matrix a{{1.0f, 2.0f}};
    const nn::Matrix b{{3.0f, 5.0f}};
    EXPECT_FLOAT_EQ(nn::add(a, b).at(0, 1), 7.0f);
    EXPECT_FLOAT_EQ(nn::sub(b, a).at(0, 0), 2.0f);
    EXPECT_FLOAT_EQ(nn::hadamard(a, b).at(0, 1), 10.0f);
}

TEST(Tensor, ScaleInPlace) {
    nn::Matrix a{{2.0f, -4.0f}};
    nn::scale_inplace(a, 0.5f);
    EXPECT_FLOAT_EQ(a.at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(a.at(0, 1), -2.0f);
}

TEST(Tensor, RowBlockAndGather) {
    const nn::Matrix a{{1.0f}, {2.0f}, {3.0f}, {4.0f}};
    const nn::Matrix block = nn::row_block(a, 1, 2);
    EXPECT_EQ(block.rows(), 2u);
    EXPECT_FLOAT_EQ(block.at(0, 0), 2.0f);
    EXPECT_FLOAT_EQ(block.at(1, 0), 3.0f);

    const std::vector<std::size_t> idx{3, 0};
    const nn::Matrix g = nn::gather_rows(a, idx);
    EXPECT_FLOAT_EQ(g.at(0, 0), 4.0f);
    EXPECT_FLOAT_EQ(g.at(1, 0), 1.0f);
}

TEST(Tensor, GatherOutOfRangeThrows) {
    const nn::Matrix a(2, 1);
    const std::vector<std::size_t> idx{5};
    EXPECT_THROW(nn::gather_rows(a, idx), std::out_of_range);
}

TEST(Tensor, RowBlockOutOfRangeThrows) {
    const nn::Matrix a(2, 1);
    EXPECT_THROW(nn::row_block(a, 1, 2), std::out_of_range);
}

// Property: (A*B)*C == A*(B*C) within float tolerance.
class MatmulAssoc : public ::testing::TestWithParam<unsigned> {};

TEST_P(MatmulAssoc, Associativity) {
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    nn::Matrix a(4, 6), b(6, 3), c(3, 5);
    for (float& v : a.data()) v = u(rng);
    for (float& v : b.data()) v = u(rng);
    for (float& v : c.data()) v = u(rng);
    EXPECT_LT(nn::max_abs_diff(nn::matmul(nn::matmul(a, b), c),
                               nn::matmul(a, nn::matmul(b, c))),
              1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatmulAssoc, ::testing::Range(1u, 8u));
