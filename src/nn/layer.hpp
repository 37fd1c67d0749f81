// Layer abstraction with explicit forward/backward passes.
//
// The core compute API is destination-passing: forward_into/backward_into
// write into caller-owned matrices (workspace slots of the owning Mlp), so a
// steady-state training step performs zero heap allocations. Layers cache
// *non-owning views* of their most recent input/output and, after a backward
// pass, the gradient of the scalar objective with respect to that output.
// Those caches are exactly the A^(k) and dY/dA^(k) terms of the Grad-CAM
// equations (paper Eq. 5-6), so the XAI module can read them without
// re-running anything — and without the per-layer full-batch copies the
// pre-workspace implementation paid for them.
//
// View lifetime: the cached views point at the matrices passed to
// forward_into/backward_into. The caller (Mlp's workspace, or the legacy
// value-returning shims' own buffers) must keep those alive until the next
// forward pass or backward() completes. See DESIGN.md, "Memory model".
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace wifisense::nn {

/// Mutable view over one parameter tensor and its gradient accumulator.
struct ParamView {
    std::string name;
    std::span<float> values;
    std::span<float> grads;
};

/// Coarse layer identity for structure-aware walkers — the Mlp fused
/// inference path and the post-training quantizer pattern-match on this
/// instead of dynamic_cast chains.
enum class LayerKind : std::uint8_t {
    kDense = 0,
    kReLU = 1,
    kSigmoid = 2,
    kDropout = 3,
    kOther = 4,
};

class Layer {
public:
    virtual ~Layer() = default;

    /// Compute the layer output for a batch (rows = samples) into `output`
    /// (resized by the layer; allocation-free within reserved capacity).
    /// `output` must not alias `input`. With `cache`, records non-owning
    /// views of input/output as required by backward_into() and Grad-CAM;
    /// without it (inference mode) the caches are cleared and a later
    /// backward_into() throws.
    virtual void forward_into(const Matrix& input, Matrix& output, bool cache) = 0;

    /// Given dObjective/dOutput, accumulate parameter gradients and write
    /// dObjective/dInput into `grad_input` (resized by the layer). Must be
    /// called after a cached forward_into() on the same batch; the views
    /// recorded there must still be alive. `grad_input` must not alias
    /// `grad_output`.
    virtual void backward_into(const Matrix& grad_output, Matrix& grad_input) = 0;

    /// Value-returning convenience shims over the _into core (one input and
    /// one output copy each; always cache). Standalone layer use only — the
    /// Mlp drives forward_into/backward_into directly through its workspace.
    Matrix forward(const Matrix& input);
    Matrix backward(const Matrix& grad_output);

    /// Parameter/gradient views (empty for activations).
    virtual std::vector<ParamView> parameters() { return {}; }

    virtual std::string name() const = 0;
    virtual LayerKind kind() const { return LayerKind::kOther; }
    virtual std::size_t input_size() const = 0;
    virtual std::size_t output_size() const = 0;

    /// Switch between training and inference behaviour (dropout etc.).
    virtual void set_training(bool training) { training_ = training; }
    bool training_mode() const { return training_; }

    /// Pre-allocate layer-internal scratch (e.g. the dropout mask) for
    /// batches of up to `max_rows` samples. No-op for layers without scratch.
    virtual void reserve_batch(std::size_t /*max_rows*/) {}

    /// Activation cache A^(k) from the latest cached forward pass (empty
    /// matrix when the last pass ran in inference mode).
    const Matrix& last_output() const;
    /// Gradient cache dY/dA^(k) from the latest backward pass (empty matrix
    /// before any backward pass).
    const Matrix& last_output_grad() const;

    /// Reset all parameter gradient accumulators to zero. The default walks
    /// parameters(); parameterized layers override it to avoid building the
    /// view vector (zero_grad runs every training step and must not allocate).
    virtual void zero_grad();

    /// Drop the cached forward/backward views, exactly as an uncached
    /// forward_into() would. The Mlp fused inference path bypasses
    /// forward_into() entirely and calls this on the layers it skips, so
    /// Grad-CAM and backward_into() observe the same "last pass was
    /// inference" state either way.
    void clear_forward_cache() {
        in_view_ = out_view_ = out_grad_view_ = nullptr;
    }

protected:
    /// Record (or clear, when !cache) the forward views; resets the output
    /// gradient view, which backward_into() re-records.
    void cache_forward(const Matrix& input, const Matrix& output, bool cache);

    /// Throws std::logic_error unless a cached forward pass is on record.
    void require_cached_forward(const char* who) const;

    const Matrix* in_view_ = nullptr;        ///< input of the latest cached forward
    const Matrix* out_view_ = nullptr;       ///< output of the latest cached forward
    const Matrix* out_grad_view_ = nullptr;  ///< grad_output of the latest backward
    bool training_ = true;

private:
    // Owned buffers backing the value-returning shims (persist the views).
    Matrix shim_in_, shim_out_, shim_grad_out_, shim_grad_in_;
};

/// Fully connected layer: y = x W + b, W is [in x out].
class Dense : public Layer {
public:
    Dense(std::size_t in, std::size_t out);

    void forward_into(const Matrix& input, Matrix& output, bool cache) override;
    void backward_into(const Matrix& grad_output, Matrix& grad_input) override;
    /// backward_into() without dObjective/dInput: accumulates the weight and
    /// bias gradients and records the gradient view, nothing else.
    void accumulate_param_grads(const Matrix& grad_output);
    std::vector<ParamView> parameters() override;
    void zero_grad() override;
    std::string name() const override { return "Dense"; }
    LayerKind kind() const override { return LayerKind::kDense; }
    std::size_t input_size() const override { return in_; }
    std::size_t output_size() const override { return out_; }

    /// Trainable parameter count: in*out + out.
    std::size_t parameter_count() const { return in_ * out_ + out_; }

    Matrix& weights() { return w_; }
    const Matrix& weights() const { return w_; }
    std::vector<float>& bias() { return b_; }
    const std::vector<float>& bias() const { return b_; }

private:
    std::size_t in_;
    std::size_t out_;
    Matrix w_;                  // [in x out]
    std::vector<float> b_;      // [out]
    Matrix gw_;                 // gradient accumulator for w_
    std::vector<float> gb_;     // gradient accumulator for b_
};

/// Rectified linear unit, elementwise max(0, x).
class ReLU : public Layer {
public:
    explicit ReLU(std::size_t width) : width_(width) {}

    void forward_into(const Matrix& input, Matrix& output, bool cache) override;
    void backward_into(const Matrix& grad_output, Matrix& grad_input) override;
    std::string name() const override { return "ReLU"; }
    LayerKind kind() const override { return LayerKind::kReLU; }
    std::size_t input_size() const override { return width_; }
    std::size_t output_size() const override { return width_; }

private:
    std::size_t width_;
};

/// Inverted dropout: during training each activation is zeroed with
/// probability p and survivors are scaled by 1/(1-p); at inference the layer
/// is the identity. Deterministic given the constructor seed.
class Dropout : public Layer {
public:
    Dropout(std::size_t width, double p, std::uint64_t seed = 42);

    void forward_into(const Matrix& input, Matrix& output, bool cache) override;
    void backward_into(const Matrix& grad_output, Matrix& grad_input) override;
    std::string name() const override { return "Dropout"; }
    LayerKind kind() const override { return LayerKind::kDropout; }
    std::size_t input_size() const override { return width_; }
    std::size_t output_size() const override { return width_; }
    void reserve_batch(std::size_t max_rows) override;

    double rate() const { return p_; }

private:
    std::size_t width_;
    double p_;
    std::mt19937_64 rng_;
    Matrix mask_;
    bool mask_active_ = false;  ///< mask_ holds the latest forward's mask
};

/// Logistic sigmoid, elementwise 1/(1+exp(-x)).
class Sigmoid : public Layer {
public:
    explicit Sigmoid(std::size_t width) : width_(width) {}

    void forward_into(const Matrix& input, Matrix& output, bool cache) override;
    void backward_into(const Matrix& grad_output, Matrix& grad_input) override;
    std::string name() const override { return "Sigmoid"; }
    LayerKind kind() const override { return LayerKind::kSigmoid; }
    std::size_t input_size() const override { return width_; }
    std::size_t output_size() const override { return width_; }

private:
    std::size_t width_;
};

}  // namespace wifisense::nn
