#include "nn/mlp.hpp"

#include <algorithm>
#include <stdexcept>

namespace wifisense::nn {

Mlp::Mlp(std::vector<std::size_t> dims, Init scheme, std::mt19937_64& rng)
    : dims_(std::move(dims)) {
    if (dims_.size() < 2) throw std::invalid_argument("Mlp: need at least in/out dims");
    for (std::size_t i = 0; i + 1 < dims_.size(); ++i) {
        auto dense = std::make_unique<Dense>(dims_[i], dims_[i + 1]);
        initialize(*dense, scheme, rng);
        layers_.push_back(std::move(dense));
        const bool last = i + 2 == dims_.size();
        if (!last) layers_.push_back(std::make_unique<ReLU>(dims_[i + 1]));
    }
}

void Mlp::reserve_workspace(std::size_t max_rows) {
    if (layers_.empty())
        throw std::logic_error("Mlp::reserve_workspace: empty network");
    if (ws_act_.size() != layers_.size()) ws_act_.resize(layers_.size());
    if (max_rows <= ws_rows_) return;
    ws_rows_ = max_rows;
    ws_input_.reserve(max_rows, input_size());
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        ws_act_[i].reserve(max_rows, layers_[i]->output_size());
        layers_[i]->reserve_batch(max_rows);
    }
    if (ws_grad_rows_ > 0) {
        ws_grad_rows_ = 0;  // force re-reserve at the new row capacity
        reserve_grad_buffers();
    }
}

void Mlp::reserve_grad_buffers() {
    if (ws_grad_.size() != layers_.size()) ws_grad_.resize(layers_.size());
    if (ws_grad_rows_ >= ws_rows_) return;
    ws_grad_rows_ = ws_rows_;
    for (std::size_t i = 0; i < layers_.size(); ++i)
        ws_grad_[i].reserve(ws_grad_rows_, layers_[i]->output_size());
    ws_input_grad_.reserve(ws_grad_rows_, input_size());
}

// wifisense-lint: requires(noalloc, noexcept)
// wifisense-lint: allow-call(reserve_workspace) cold-path growth: runs only when a batch exceeds every earlier batch's rows; a warm steady-state call never enters it
const Matrix& Mlp::forward_ws(const Matrix& input, bool cache) {
    if (layers_.empty())
        // wifisense-lint: allow(ipa.throw-leak) precondition guard: fires
        // only on an unconstructed network, never on data content
        throw std::logic_error("Mlp::forward: empty network");
    if (input.rows() > ws_rows_ || ws_act_.size() != layers_.size())
        reserve_workspace(std::max(input.rows(), ws_rows_));
    const Matrix* cur = &input;
    if (!cache && !training_) {
        // Fused inference fast path: Dense + following ReLU/Sigmoid run as
        // one kernel (GEMM rows + bias/activation epilogue while the rows
        // are cache-hot), Dropout is skipped outright (identity at
        // inference). Bitwise identical to the layer-by-layer walk on the
        // scalar backend: same per-element arithmetic in the same order,
        // minus the activation layer's full-batch copy. Skipped layers get
        // their caches cleared exactly as an uncached forward_into() would.
        for (std::size_t i = 0; i < layers_.size(); ++i) {
            Layer& layer = *layers_[i];
            if (layer.kind() == LayerKind::kDense) {
                auto& dense = static_cast<Dense&>(layer);
                const LayerKind next = i + 1 < layers_.size()
                                           ? layers_[i + 1]->kind()
                                           : LayerKind::kOther;
                kernels::Activation act = kernels::Activation::kNone;
                if (next == LayerKind::kReLU) act = kernels::Activation::kReLU;
                if (next == LayerKind::kSigmoid) act = kernels::Activation::kSigmoid;
                std::size_t slot = i;
                if (act != kernels::Activation::kNone) {
                    layers_[i + 1]->clear_forward_cache();
                    slot = ++i;  // write straight into the activation's slot
                }
                layer.clear_forward_cache();
                dense_forward_into(*cur, dense.weights(), dense.bias(), act,
                                   ws_act_[slot]);
                cur = &ws_act_[slot];
            } else if (layer.kind() == LayerKind::kDropout) {
                layer.clear_forward_cache();  // identity: no copy, no cache
            } else {
                layer.forward_into(*cur, ws_act_[i], /*cache=*/false);
                cur = &ws_act_[i];
            }
        }
        fwd_input_ = nullptr;
        return *cur;
    }
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        layers_[i]->forward_into(*cur, ws_act_[i], cache);
        cur = &ws_act_[i];
    }
    fwd_input_ = cache ? &input : nullptr;
    return *cur;
}

// wifisense-lint: allow-call(reserve_grad_buffers) cold-path growth: runs only when the workspace row capacity grew since the last backward pass; a warm steady-state call never enters it
Matrix& Mlp::output_grad_buffer() {
    if (layers_.empty())
        throw std::logic_error("Mlp::output_grad_buffer: empty network");
    if (ws_act_.size() != layers_.size())
        throw std::logic_error("Mlp::output_grad_buffer: no forward pass yet");
    reserve_grad_buffers();
    const Matrix& out = ws_act_.back();
    // wifisense-lint: allow(noalloc.container-growth) resize within the
    // reserved gradient-buffer capacity is allocation-free (DESIGN.md §11)
    ws_grad_.back().resize(out.rows(), out.cols());
    return ws_grad_.back();
}

const Matrix& Mlp::backward_ws() {
    backward_layers(/*input_grad=*/true);
    return ws_input_grad_;
}

void Mlp::backward_params_ws() { backward_layers(/*input_grad=*/false); }

void Mlp::backward_layers(bool input_grad) {
    if (layers_.empty()) throw std::logic_error("Mlp::backward: empty network");
    if (fwd_input_ == nullptr)
        throw std::logic_error(
            "Mlp::backward: no cached forward pass (the last forward ran in "
            "inference mode)");
    if (ws_grad_.size() != layers_.size())
        throw std::logic_error("Mlp::backward: output_grad_buffer() never filled");
    const Matrix& out = ws_act_.back();
    if (ws_grad_.back().rows() != out.rows() || ws_grad_.back().cols() != out.cols())
        throw std::invalid_argument("Mlp::backward: gradient shape mismatch");
    for (std::size_t i = layers_.size(); i-- > 1;)
        layers_[i]->backward_into(ws_grad_[i], ws_grad_[i - 1]);
    if (!input_grad && layers_[0]->kind() == LayerKind::kDense)
        static_cast<Dense&>(*layers_[0]).accumulate_param_grads(ws_grad_[0]);
    else
        layers_[0]->backward_into(ws_grad_[0], ws_input_grad_);
}

Matrix Mlp::forward(const Matrix& input) {
    if (layers_.empty()) throw std::logic_error("Mlp::forward: empty network");
    // Stage through the workspace slot so the cached views outlive the
    // caller's matrix (Grad-CAM and backward() read them after we return).
    ws_input_.copy_from(input);
    return forward_ws(ws_input_, /*cache=*/training_);
}

Matrix Mlp::backward(const Matrix& grad_output) {
    if (layers_.empty()) throw std::logic_error("Mlp::backward: empty network");
    if (ws_act_.size() != layers_.size())
        throw std::logic_error("Mlp::backward: no forward pass yet");
    output_grad_buffer().copy_from(grad_output);
    return backward_ws();
}

void Mlp::zero_grad() {
    for (const auto& layer : layers_) layer->zero_grad();
}

void Mlp::set_training(bool training) {
    training_ = training;
    for (const auto& layer : layers_) layer->set_training(training);
}

std::vector<ParamView> Mlp::parameters() {
    std::vector<ParamView> out;
    for (const auto& layer : layers_)
        for (ParamView& p : layer->parameters()) out.push_back(p);
    return out;
}

std::size_t Mlp::parameter_count() const {
    std::size_t n = 0;
    for (const auto& layer : layers_)
        if (const auto* dense = dynamic_cast<const Dense*>(layer.get()))
            n += dense->parameter_count();
    return n;
}

std::size_t Mlp::input_size() const {
    if (layers_.empty()) return 0;
    return layers_.front()->input_size();
}

std::size_t Mlp::output_size() const {
    if (layers_.empty()) return 0;
    return layers_.back()->output_size();
}

Mlp Mlp::clone() const {
    Mlp copy;
    copy.dims_ = dims_;
    for (const auto& layer : layers_) {
        if (const auto* dense = dynamic_cast<const Dense*>(layer.get())) {
            auto d = std::make_unique<Dense>(dense->input_size(), dense->output_size());
            d->weights() = dense->weights();
            d->bias() = dense->bias();
            copy.layers_.push_back(std::move(d));
        } else if (dynamic_cast<const ReLU*>(layer.get()) != nullptr) {
            copy.layers_.push_back(std::make_unique<ReLU>(layer->input_size()));
        } else if (dynamic_cast<const Sigmoid*>(layer.get()) != nullptr) {
            copy.layers_.push_back(std::make_unique<Sigmoid>(layer->input_size()));
        } else if (const auto* drop = dynamic_cast<const Dropout*>(layer.get())) {
            copy.layers_.push_back(
                std::make_unique<Dropout>(drop->input_size(), drop->rate()));
        } else {
            throw std::logic_error("Mlp::clone: unknown layer type");
        }
    }
    return copy;
}

Mlp paper_mlp(std::size_t input_size, std::mt19937_64& rng) {
    return Mlp({input_size, 128, 256, 128, 1}, Init::kKaimingUniform, rng);
}

Mlp paper_regression_mlp(std::size_t input_size, std::size_t outputs,
                         std::mt19937_64& rng) {
    return Mlp({input_size, 128, 256, 128, outputs}, Init::kKaimingUniform, rng);
}

}  // namespace wifisense::nn
