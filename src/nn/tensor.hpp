// Dense row-major float32 matrix plus the handful of BLAS-like kernels the
// network needs. Accumulation inside reductions/GEMM uses float; the matrices
// here are small (<= a few hundred columns) so float accumulation is safe —
// long-series statistics live in stats/ and use double.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "nn/kernels/backend.hpp"

namespace wifisense::nn {

/// Allocator of Matrix storage: 64-byte aligned, so every row whose offset
/// is a multiple of 16 floats starts on a cache line, and the GEMM kernels'
/// 32-byte loads of such rows never straddle two lines. std::vector's
/// default allocator only guarantees 16 bytes. Each block is one line
/// longer than asked, starts at the first line boundary past the plain
/// operator new block, and keeps that block's address in the word just
/// below. (glibc serves the align_val_t operator new by splitting chunks,
/// which left perfbench's peak RSS ~3 MiB higher.)
template <class T>
struct CacheLineAllocator {
    using value_type = T;
    static constexpr std::size_t kAlign = 64;

    CacheLineAllocator() = default;
    template <class U>
    constexpr CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

    T* allocate(std::size_t count) {
        void* block = ::operator new(count * sizeof(T) + kAlign);
        const std::uintptr_t start =
            (reinterpret_cast<std::uintptr_t>(block) + kAlign) & ~std::uintptr_t{kAlign - 1};
        std::memcpy(reinterpret_cast<void*>(start - sizeof block), &block, sizeof block);
        return reinterpret_cast<T*>(start);
    }
    void deallocate(T* p, std::size_t) noexcept {
        void* block = nullptr;
        std::memcpy(&block, reinterpret_cast<const char*>(p) - sizeof block, sizeof block);
        ::operator delete(block);
    }
    friend bool operator==(const CacheLineAllocator&, const CacheLineAllocator&) {
        return true;
    }
};

class Matrix {
public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f);
    Matrix(std::size_t rows, std::size_t cols, std::vector<float> values);
    /// Row-major brace initialization: Matrix{{1,2},{3,4}}.
    Matrix(std::initializer_list<std::initializer_list<float>> rows);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return values_.size(); }
    bool empty() const { return values_.empty(); }

    float& at(std::size_t r, std::size_t c) { return values_[r * cols_ + c]; }
    float at(std::size_t r, std::size_t c) const { return values_[r * cols_ + c]; }

    std::span<float> row(std::size_t r) { return {&values_[r * cols_], cols_}; }
    std::span<const float> row(std::size_t r) const { return {&values_[r * cols_], cols_}; }

    std::span<float> data() { return values_; }
    std::span<const float> data() const { return values_; }

    void fill(float v);
    std::string shape_string() const;  ///< "[rows x cols]"

    /// Pre-allocate backing storage for up to rows*cols elements without
    /// changing the shape. A later resize() within this capacity is
    /// allocation-free — the basis of the steady-state zero-allocation
    /// contract (DESIGN.md, "Memory model").
    void reserve(std::size_t rows, std::size_t cols) { values_.reserve(rows * cols); }

    /// Reshape in place. Existing elements are kept up to the new size (new
    /// elements, if any, are zero). Never shrinks capacity; never allocates
    /// when rows*cols fits the reserved capacity.
    void resize(std::size_t rows, std::size_t cols) {
        // wifisense-lint: allow(noalloc.container-growth) growth is charged
        // to each caller's resize() call site, which carries its own
        // capacity proof; below reserved capacity this never allocates
        values_.resize(rows * cols);
        rows_ = rows;
        cols_ = cols;
    }

    std::size_t capacity() const { return values_.capacity(); }

    /// Become an elementwise copy of `src` (resizes; allocation-free when
    /// src.size() fits the reserved capacity).
    void copy_from(const Matrix& src);

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float, CacheLineAllocator<float>> values_;
};

// ---------------------------------------------------------------------------
// Destination-passing kernels. Each *_into overload resizes `out` (a reserve()
// within capacity makes that allocation-free) and produces every output
// element with the same per-element accumulation order as the allocating
// wrapper below it, so the two spellings are bitwise interchangeable. `out`
// must not alias any input.
// ---------------------------------------------------------------------------

// wifisense-lint: noalloc-begin

/// out = A * B. Shapes: [m x k] * [k x n] -> [m x n].
void matmul_into(const Matrix& a, const Matrix& b, Matrix& out);

/// out (+)= A^T * B. Shapes: [k x m]^T * [k x n] -> [m x n]. With
/// `accumulate` the product is added onto the existing contents (out must
/// already be [m x n]) — used for gradient accumulation without a scratch
/// matrix. Note the accumulate path folds the running total into the
/// ascending-k sum, which is bitwise identical to sum-then-add exactly when
/// the destination starts at zero (it does: the training loop zero_grads
/// before every backward pass).
void matmul_tn_into(const Matrix& a, const Matrix& b, Matrix& out,
                    bool accumulate = false);

/// out = A * B^T. Shapes: [m x k] * [n x k]^T -> [m x n].
void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& out);

/// out = act(A * W + bias): the dense-layer forward. Each parallel row
/// chunk runs the GEMM rows and then the bias+activation epilogue while
/// those rows are cache-hot. Dense::forward_into calls it with kNone; the
/// inference fast path fuses the following ReLU/Sigmoid, which on the
/// scalar backend is bitwise identical to running that layer separately
/// (same per-element operation order; float32 stores round-trip exactly).
void dense_forward_into(const Matrix& a, const Matrix& w,
                        std::span<const float> bias, kernels::Activation act,
                        Matrix& out);

// wifisense-lint: noalloc-end

/// C = A * B. Shapes: [m x k] * [k x n] -> [m x n].
Matrix matmul(const Matrix& a, const Matrix& b);

/// C = A^T * B. Shapes: [k x m]^T * [k x n] -> [m x n].
Matrix matmul_tn(const Matrix& a, const Matrix& b);

/// C = A * B^T. Shapes: [m x k] * [n x k]^T -> [m x n].
Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// Column sums of a (length a.cols()).
std::vector<float> column_sums(const Matrix& a);

/// out (+)= column sums of a; out.size() must equal a.cols(). With
/// `accumulate` the row contributions fold onto the existing contents (same
/// zero-start bitwise caveat as matmul_tn_into).
// wifisense-lint: noalloc-begin
void column_sums_into(const Matrix& a, std::span<float> out,
                      bool accumulate = false);
// wifisense-lint: noalloc-end

/// Column means of a.
std::vector<float> column_means(const Matrix& a);

/// Elementwise a + b, a - b, a * b (Hadamard). Shapes must match.
Matrix add(const Matrix& a, const Matrix& b);
Matrix sub(const Matrix& a, const Matrix& b);
Matrix hadamard(const Matrix& a, const Matrix& b);

/// Elementwise in-place variants: a op= b. Shapes must match.
void add_inplace(Matrix& a, const Matrix& b);
void sub_inplace(Matrix& a, const Matrix& b);
void hadamard_inplace(Matrix& a, const Matrix& b);

/// Elementwise scale in place.
void scale_inplace(Matrix& a, float s);

/// Transposed copy.
Matrix transpose(const Matrix& a);

/// Select a contiguous block of rows [begin, begin+count).
Matrix row_block(const Matrix& a, std::size_t begin, std::size_t count);

/// out = rows [begin, begin+count) of a (resizes out; see *_into contract).
// wifisense-lint: noalloc-begin
void row_block_into(const Matrix& a, std::size_t begin, std::size_t count,
                    Matrix& out);
// wifisense-lint: noalloc-end

/// Gather rows by index (out-of-range indices throw).
Matrix gather_rows(const Matrix& a, std::span<const std::size_t> indices);

/// out = a[indices] (resizes out; out-of-range indices throw).
// wifisense-lint: noalloc-begin
void gather_rows_into(const Matrix& a, std::span<const std::size_t> indices,
                      Matrix& out);
// wifisense-lint: noalloc-end

/// Max absolute difference between two equally-shaped matrices.
float max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace wifisense::nn
