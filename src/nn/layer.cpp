#include "nn/layer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace wifisense::nn {

namespace {
const Matrix& empty_matrix() {
    static const Matrix kEmpty;
    return kEmpty;
}
}  // namespace

const Matrix& Layer::last_output() const {
    return out_view_ ? *out_view_ : empty_matrix();
}

const Matrix& Layer::last_output_grad() const {
    return out_grad_view_ ? *out_grad_view_ : empty_matrix();
}

void Layer::cache_forward(const Matrix& input, const Matrix& output, bool cache) {
    in_view_ = cache ? &input : nullptr;
    out_view_ = cache ? &output : nullptr;
    out_grad_view_ = nullptr;
}

void Layer::require_cached_forward(const char* who) const {
    if (in_view_ == nullptr || out_view_ == nullptr)
        // wifisense-lint: allow(ipa.throw-leak) precondition guard: fires
        // only on caller API misuse, never on data content
        // wifisense-lint: allow(ipa.alloc-leak) error-text exists only on
        // the failure path ending in the allowed throw
        throw std::logic_error(std::string(who) +
                               ": no cached forward pass (was the last forward "
                               "run in inference mode?)");
}

Matrix Layer::forward(const Matrix& input) {
    shim_in_.copy_from(input);
    forward_into(shim_in_, shim_out_, /*cache=*/true);
    return shim_out_;
}

Matrix Layer::backward(const Matrix& grad_output) {
    shim_grad_out_.copy_from(grad_output);
    backward_into(shim_grad_out_, shim_grad_in_);
    return shim_grad_in_;
}

// wifisense-lint: allow-call(parameters) base default runs only for parameter-free layers (Dense overrides zero_grad), and their parameters() returns an empty vector without touching the heap
void Layer::zero_grad() {
    for (ParamView& p : parameters())
        std::fill(p.grads.begin(), p.grads.end(), 0.0f);
}

Dense::Dense(std::size_t in, std::size_t out)
    : in_(in), out_(out), w_(in, out), b_(out, 0.0f), gw_(in, out), gb_(out, 0.0f) {
    if (in == 0 || out == 0) throw std::invalid_argument("Dense: zero dimension");
}

void Dense::forward_into(const Matrix& input, Matrix& output, bool cache) {
    dense_forward_into(input, w_, b_, kernels::Activation::kNone, output);
    cache_forward(input, output, cache);
}

void Dense::backward_into(const Matrix& grad_output, Matrix& grad_input) {
    accumulate_param_grads(grad_output);
    matmul_nt_into(grad_output, w_, grad_input);
}

void Dense::accumulate_param_grads(const Matrix& grad_output) {
    require_cached_forward("Dense::backward");
    if (grad_output.rows() != in_view_->rows() || grad_output.cols() != out_)
        throw std::invalid_argument("Dense::backward: gradient shape mismatch");
    out_grad_view_ = &grad_output;

    // Accumulate (not overwrite): supports gradient accumulation across
    // micro-batches and matches optimizer semantics. With zeroed accumulators
    // (zero_grad before every step, as the trainer does) the direct
    // accumulation is bitwise identical to compute-then-add.
    matmul_tn_into(*in_view_, grad_output, gw_, /*accumulate=*/true);
    column_sums_into(grad_output, gb_, /*accumulate=*/true);
}

std::vector<ParamView> Dense::parameters() {
    return {
        {"weight", w_.data(), gw_.data()},
        {"bias", std::span<float>(b_), std::span<float>(gb_)},
    };
}

void Dense::zero_grad() {
    gw_.fill(0.0f);
    std::fill(gb_.begin(), gb_.end(), 0.0f);
}

void ReLU::forward_into(const Matrix& input, Matrix& output, bool cache) {
    if (input.cols() != width_)
        // wifisense-lint: allow(ipa.throw-leak) shape precondition guard:
        // fires only on caller API misuse, never on data content
        throw std::invalid_argument("ReLU::forward: width mismatch");
    output.copy_from(input);
    for (float& v : output.data()) v = v > 0.0f ? v : 0.0f;
    cache_forward(input, output, cache);
}

void ReLU::backward_into(const Matrix& grad_output, Matrix& grad_input) {
    require_cached_forward("ReLU::backward");
    if (grad_output.rows() != out_view_->rows() ||
        grad_output.cols() != out_view_->cols())
        throw std::invalid_argument("ReLU::backward: gradient shape mismatch");
    out_grad_view_ = &grad_output;
    // wifisense-lint: allow(noalloc.container-growth) resize within the
    // reserved workspace capacity is allocation-free (DESIGN.md §11)
    grad_input.resize(grad_output.rows(), grad_output.cols());
    // One branch-free pass: keep g's bits where the output is not <= 0
    // (NaN outputs included), +0 elsewhere. Post-ReLU masks are about half
    // zeros, so a per-element branch mispredicts on them.
    const float* y = out_view_->data().data();
    const float* g = grad_output.data().data();
    float* gi = grad_input.data().data();
    for (std::size_t i = 0; i < grad_input.size(); ++i) {
        const std::uint32_t keep = 0u - static_cast<std::uint32_t>(!(y[i] <= 0.0f));
        gi[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(g[i]) & keep);
    }
}

Dropout::Dropout(std::size_t width, double p, std::uint64_t seed)
    : width_(width), p_(p), rng_(seed) {
    if (p_ < 0.0 || p_ >= 1.0)
        throw std::invalid_argument("Dropout: rate must be in [0,1)");
}

void Dropout::reserve_batch(std::size_t max_rows) {
    mask_.reserve(max_rows, width_);
}

void Dropout::forward_into(const Matrix& input, Matrix& output, bool cache) {
    if (input.cols() != width_)
        // wifisense-lint: allow(ipa.throw-leak) shape precondition guard:
        // fires only on caller API misuse, never on data content
        throw std::invalid_argument("Dropout::forward: width mismatch");
    output.copy_from(input);
    if (!training_ || p_ == 0.0) {
        mask_active_ = false;
    } else {
        std::bernoulli_distribution keep(1.0 - p_);
        const float scale = static_cast<float>(1.0 / (1.0 - p_));
        // wifisense-lint: allow(noalloc.container-growth) resize within the
        // capacity reserved by reserve_batch is allocation-free
        mask_.resize(input.rows(), input.cols());
        for (std::size_t i = 0; i < output.size(); ++i) {
            const float m = keep(rng_) ? scale : 0.0f;
            mask_.data()[i] = m;
            output.data()[i] *= m;
        }
        mask_active_ = true;
    }
    cache_forward(input, output, cache);
}

void Dropout::backward_into(const Matrix& grad_output, Matrix& grad_input) {
    require_cached_forward("Dropout::backward");
    if (grad_output.rows() != out_view_->rows() ||
        grad_output.cols() != out_view_->cols())
        throw std::invalid_argument("Dropout::backward: gradient shape mismatch");
    out_grad_view_ = &grad_output;
    grad_input.copy_from(grad_output);
    if (mask_active_) hadamard_inplace(grad_input, mask_);
}

void Sigmoid::forward_into(const Matrix& input, Matrix& output, bool cache) {
    if (input.cols() != width_)
        // wifisense-lint: allow(ipa.throw-leak) shape precondition guard:
        // fires only on caller API misuse, never on data content
        throw std::invalid_argument("Sigmoid::forward: width mismatch");
    output.copy_from(input);
    for (float& v : output.data()) v = 1.0f / (1.0f + std::exp(-v));
    cache_forward(input, output, cache);
}

void Sigmoid::backward_into(const Matrix& grad_output, Matrix& grad_input) {
    require_cached_forward("Sigmoid::backward");
    if (grad_output.rows() != out_view_->rows() ||
        grad_output.cols() != out_view_->cols())
        throw std::invalid_argument("Sigmoid::backward: gradient shape mismatch");
    out_grad_view_ = &grad_output;
    grad_input.copy_from(grad_output);
    for (std::size_t i = 0; i < grad_input.size(); ++i) {
        const float y = out_view_->data()[i];
        grad_input.data()[i] *= y * (1.0f - y);
    }
}

}  // namespace wifisense::nn
