#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/parallel.hpp"

namespace wifisense::nn {

namespace {

// wifisense-lint: allow-call(shape_string) error-text construction reached only on the precondition-failure path, which ends in an allowed throw
void check_same_shape(const Matrix& a, const Matrix& b, const char* what) {
    if (a.rows() != b.rows() || a.cols() != b.cols())
        // wifisense-lint: allow(ipa.throw-leak) shape precondition guard:
        // fires only on caller API misuse, never on data content
        // wifisense-lint: allow(ipa.alloc-leak) error-text std::string exists
        // only on the precondition-failure path ending in the allowed throw
        throw std::invalid_argument(std::string(what) + ": shape mismatch " +
                                    a.shape_string() + " vs " + b.shape_string());
}

// ---------------------------------------------------------------------------
// GEMM: backend row-range kernels + a row-block-parallel dispatcher.
//
// The per-row-range arithmetic lives in src/nn/kernels/ behind the
// KernelBackend dispatch table (scalar reference + AVX2/FMA); this file owns
// the shape checks, workspace resizing, and the deterministic row-chunk
// decomposition. Each backend kernel computes output rows [r0, r1) of C and
// touches nothing else, so the dispatcher can hand disjoint row blocks to
// different threads and the result is bitwise identical to a serial run on
// the same backend: every output element is produced by exactly one thread,
// with a backend-fixed accumulation order (ascending k) at any thread
// count. Do NOT introduce shared accumulators here.
// ---------------------------------------------------------------------------

/// Row-block size targeting ~1M mul-adds per task, floored at 16 rows.
/// Depends only on the problem shape (never on the thread count), so the
/// chunk decomposition — and with it any per-chunk behavior — is invariant
/// across configurations. The floor matters for the AVX2 backend: its
/// packed 4x16-blocked GEMM only engages on chunks of >= 4 rows and
/// amortizes its B-panel packing across the chunk's row blocks, so
/// starving it with 1-2-row chunks silently degrades it to the single-row
/// tail kernel (~3x slower at MLP-sized k*n).
std::size_t gemm_row_grain(std::size_t flops_per_row) {
    constexpr std::size_t kTargetFlopsPerTask = 1024 * 1024;
    constexpr std::size_t kMinRows = 16;
    if (flops_per_row == 0) return kMinRows;
    return std::max(kMinRows, kTargetFlopsPerTask / flops_per_row);
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), values_(rows * cols, fill) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<float> values)
    : rows_(rows), cols_(cols), values_(values.begin(), values.end()) {
    if (values_.size() != rows_ * cols_)
        throw std::invalid_argument("Matrix: value count does not match shape");
}

Matrix::Matrix(std::initializer_list<std::initializer_list<float>> rows) {
    rows_ = rows.size();
    cols_ = rows_ ? rows.begin()->size() : 0;
    values_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
        if (r.size() != cols_)
            throw std::invalid_argument("Matrix: ragged initializer");
        values_.insert(values_.end(), r.begin(), r.end());
    }
}

void Matrix::fill(float v) { std::fill(values_.begin(), values_.end(), v); }

void Matrix::copy_from(const Matrix& src) {
    // wifisense-lint: allow(noalloc.container-growth) resize within the
    // reserved workspace capacity is allocation-free (DESIGN.md §11)
    resize(src.rows(), src.cols());
    std::copy_n(src.data().data(), src.size(), values_.data());
}

std::string Matrix::shape_string() const {
    std::ostringstream os;
    os << "[" << rows_ << " x " << cols_ << "]";
    return os.str();
}

// The steady-state train/predict loop runs entirely through the kernels
// below; the annotated regions let wifisense-lint hold them to the
// zero-allocation contract of DESIGN.md §11.
// wifisense-lint: noalloc-begin

// wifisense-lint: allow-call(shape_string) error-text construction reached only on the precondition-failure path, which ends in an allowed throw
// wifisense-lint: allow-call(matmul_rows) KernelBackend function-pointer dispatch: every registered backend's row kernel is itself a requires(noalloc, noexcept, noclock, det) root proven by this linter
void matmul_into(const Matrix& a, const Matrix& b, Matrix& out) {
    if (a.cols() != b.rows())
        // wifisense-lint: allow(ipa.throw-leak) shape precondition guard:
        // fires only on caller API misuse, never on data content
        throw std::invalid_argument("matmul: inner dimensions differ " +
                                    a.shape_string() + " * " + b.shape_string());
    // wifisense-lint: allow(noalloc.container-growth) resize within the
    // reserved workspace capacity is allocation-free (DESIGN.md §11)
    out.resize(a.rows(), b.cols());
    out.fill(0.0f);  // the row kernels accumulate, exactly like the wrapper
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    const kernels::KernelBackend& kb = kernels::active_backend();
    const float* ap = a.data().data();
    const float* bp = b.data().data();
    float* cp = out.data().data();
    common::parallel_for_chunks(m, gemm_row_grain(k * n),
                                [&, ap, bp, cp](std::size_t r0, std::size_t r1) {
                                    kb.matmul_rows(ap, bp, cp, k, n, r0, r1);
                                });
}

// wifisense-lint: allow-call(shape_string) error-text construction reached only on the precondition-failure path, which ends in an allowed throw
// wifisense-lint: allow-call(matmul_tn_rows) KernelBackend function-pointer dispatch: every registered backend's row kernel is itself a requires(noalloc, noexcept, noclock, det) root proven by this linter
void matmul_tn_into(const Matrix& a, const Matrix& b, Matrix& out,
                    bool accumulate) {
    if (a.rows() != b.rows())
        // wifisense-lint: allow(ipa.throw-leak) shape precondition guard:
        // fires only on caller API misuse, never on data content
        throw std::invalid_argument("matmul_tn: row counts differ " +
                                    a.shape_string() + "^T * " + b.shape_string());
    if (accumulate) {
        if (out.rows() != a.cols() || out.cols() != b.cols())
            // wifisense-lint: allow(ipa.throw-leak) shape precondition guard:
            // fires only on caller API misuse, never on data content
            throw std::invalid_argument("matmul_tn_into: accumulate shape mismatch");
    } else {
        // wifisense-lint: allow(noalloc.container-growth) resize within the
        // reserved workspace capacity is allocation-free (DESIGN.md §11)
        out.resize(a.cols(), b.cols());
        out.fill(0.0f);
    }
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    const kernels::KernelBackend& kb = kernels::active_backend();
    const float* ap = a.data().data();
    const float* bp = b.data().data();
    float* cp = out.data().data();
    common::parallel_for_chunks(m, gemm_row_grain(k * n),
                                [&, ap, bp, cp](std::size_t i0, std::size_t i1) {
                                    kb.matmul_tn_rows(ap, bp, cp, k, m, n, i0, i1);
                                });
}

// wifisense-lint: allow-call(shape_string) error-text construction reached only on the precondition-failure path, which ends in an allowed throw
// wifisense-lint: allow-call(matmul_nt_rows) KernelBackend function-pointer dispatch: every registered backend's row kernel is itself a requires(noalloc, noexcept, noclock, det) root proven by this linter
void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& out) {
    if (a.cols() != b.cols())
        // wifisense-lint: allow(ipa.throw-leak) shape precondition guard:
        // fires only on caller API misuse, never on data content
        throw std::invalid_argument("matmul_nt: column counts differ " +
                                    a.shape_string() + " * " + b.shape_string() + "^T");
    // wifisense-lint: allow(noalloc.container-growth) resize within the
    // reserved workspace capacity is allocation-free (DESIGN.md §11)
    out.resize(a.rows(), b.rows());
    const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
    const kernels::KernelBackend& kb = kernels::active_backend();
    const float* ap = a.data().data();
    const float* bp = b.data().data();
    float* cp = out.data().data();
    common::parallel_for_chunks(m, gemm_row_grain(k * n),
                                [&, ap, bp, cp](std::size_t r0, std::size_t r1) {
                                    kb.matmul_nt_rows(ap, bp, cp, k, n, r0, r1);
                                });
}

// wifisense-lint: allow-call(shape_string) error-text construction reached only on the precondition-failure path, which ends in an allowed throw
// wifisense-lint: allow-call(matmul_rows, bias_act_rows) KernelBackend function-pointer dispatch: every registered backend's row kernel is itself a requires(noalloc, noexcept, noclock, det) root proven by this linter
void dense_forward_into(const Matrix& a, const Matrix& w,
                        std::span<const float> bias, kernels::Activation act,
                        Matrix& out) {
    if (a.cols() != w.rows())
        // wifisense-lint: allow(ipa.throw-leak) shape precondition guard:
        // fires only on caller API misuse, never on data content
        throw std::invalid_argument("dense_forward: inner dimensions differ " +
                                    a.shape_string() + " * " + w.shape_string());
    if (bias.size() != w.cols())
        // wifisense-lint: allow(ipa.throw-leak) shape precondition guard:
        // fires only on caller API misuse, never on data content
        throw std::invalid_argument("dense_forward: bias length != output cols");
    // wifisense-lint: allow(noalloc.container-growth) resize within the
    // reserved workspace capacity is allocation-free (DESIGN.md §11)
    out.resize(a.rows(), w.cols());
    out.fill(0.0f);
    const std::size_t m = a.rows(), k = a.cols(), n = w.cols();
    const kernels::KernelBackend& kb = kernels::active_backend();
    const float* ap = a.data().data();
    const float* wp = w.data().data();
    const float* bp = bias.data();
    float* cp = out.data().data();
    common::parallel_for_chunks(
        m, gemm_row_grain(k * n),
        [&, ap, wp, bp, cp](std::size_t r0, std::size_t r1) {
            kb.matmul_rows(ap, wp, cp, k, n, r0, r1);
            kb.bias_act_rows(cp, bp, n, act, r0, r1);
        });
}

// wifisense-lint: noalloc-end

Matrix matmul(const Matrix& a, const Matrix& b) {
    Matrix c;
    matmul_into(a, b, c);
    return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
    Matrix c;
    matmul_tn_into(a, b, c);
    return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
    Matrix c;
    matmul_nt_into(a, b, c);
    return c;
}

std::vector<float> column_sums(const Matrix& a) {
    std::vector<float> out(a.cols(), 0.0f);
    column_sums_into(a, out, /*accumulate=*/true);
    return out;
}

// wifisense-lint: noalloc-begin
// wifisense-lint: allow-call(column_sums_rows) KernelBackend function-pointer dispatch: every registered backend's row kernel is itself a requires(noalloc, noexcept, noclock, det) root proven by this linter
void column_sums_into(const Matrix& a, std::span<float> out, bool accumulate) {
    if (out.size() != a.cols())
        // wifisense-lint: allow(ipa.throw-leak) shape precondition guard:
        // fires only on caller API misuse, never on data content
        throw std::invalid_argument("column_sums_into: output length != cols");
    if (!accumulate) std::fill(out.begin(), out.end(), 0.0f);
    kernels::active_backend().column_sums_rows(a.data().data(), a.rows(),
                                               a.cols(), out.data());
}
// wifisense-lint: noalloc-end

std::vector<float> column_means(const Matrix& a) {
    std::vector<float> out = column_sums(a);
    if (a.rows() == 0) return out;
    const float inv = 1.0f / static_cast<float>(a.rows());
    for (float& v : out) v *= inv;
    return out;
}

Matrix add(const Matrix& a, const Matrix& b) {
    Matrix c = a;
    add_inplace(c, b);
    return c;
}

Matrix sub(const Matrix& a, const Matrix& b) {
    Matrix c = a;
    sub_inplace(c, b);
    return c;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
    Matrix c = a;
    hadamard_inplace(c, b);
    return c;
}

void add_inplace(Matrix& a, const Matrix& b) {
    check_same_shape(a, b, "add");
    for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] += b.data()[i];
}

void sub_inplace(Matrix& a, const Matrix& b) {
    check_same_shape(a, b, "sub");
    for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] -= b.data()[i];
}

void hadamard_inplace(Matrix& a, const Matrix& b) {
    check_same_shape(a, b, "hadamard");
    for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] *= b.data()[i];
}

void scale_inplace(Matrix& a, float s) {
    for (float& v : a.data()) v *= s;
}

Matrix transpose(const Matrix& a) {
    Matrix t(a.cols(), a.rows());
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c) t.at(c, r) = a.at(r, c);
    return t;
}

Matrix row_block(const Matrix& a, std::size_t begin, std::size_t count) {
    Matrix out;
    row_block_into(a, begin, count, out);
    return out;
}

// wifisense-lint: noalloc-begin
void row_block_into(const Matrix& a, std::size_t begin, std::size_t count,
                    Matrix& out) {
    if (begin + count > a.rows())
        // wifisense-lint: allow(ipa.throw-leak) range precondition guard:
        // fires only on caller API misuse, never on data content
        throw std::out_of_range("row_block: range exceeds matrix");
    // wifisense-lint: allow(noalloc.container-growth) resize within the
    // reserved workspace capacity is allocation-free (DESIGN.md §11)
    out.resize(count, a.cols());
    std::copy_n(a.data().data() + begin * a.cols(), count * a.cols(),
                out.data().data());
}
// wifisense-lint: noalloc-end

Matrix gather_rows(const Matrix& a, std::span<const std::size_t> indices) {
    Matrix out;
    gather_rows_into(a, indices, out);
    return out;
}

// wifisense-lint: noalloc-begin
void gather_rows_into(const Matrix& a, std::span<const std::size_t> indices,
                      Matrix& out) {
    // wifisense-lint: allow(noalloc.container-growth) resize within the
    // reserved workspace capacity is allocation-free (DESIGN.md §11)
    out.resize(indices.size(), a.cols());
    for (std::size_t i = 0; i < indices.size(); ++i) {
        // wifisense-lint: allow(ipa.throw-leak) range precondition guard:
        // fires only on caller API misuse, never on data content
        if (indices[i] >= a.rows()) throw std::out_of_range("gather_rows: bad index");
        std::copy_n(a.row(indices[i]).data(), a.cols(), out.row(i).data());
    }
}
// wifisense-lint: noalloc-end

float max_abs_diff(const Matrix& a, const Matrix& b) {
    check_same_shape(a, b, "max_abs_diff");
    float m = 0.0f;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
    return m;
}

}  // namespace wifisense::nn
