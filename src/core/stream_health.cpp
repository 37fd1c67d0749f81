#include "core/stream_health.hpp"

#include <cmath>
#include <stdexcept>

namespace wifisense::core {

StreamHealth::StreamHealth(StreamHealthConfig cfg) : cfg_(cfg) {
    if (cfg_.tau_s <= 0.0)
        throw std::invalid_argument("StreamHealth: non-positive tau");
    if (cfg_.stale_after_s <= 0.0)
        throw std::invalid_argument("StreamHealth: non-positive stale_after");
}

void StreamHealth::observe(double t, bool valid) {
    const double v = valid ? 1.0 : 0.0;
    if (!has_last_) {
        health_ = v;
        has_last_ = true;
    } else {
        // Continuous-time EWMA: the blend weight depends on how much time
        // the new observation covers, so a 10 s gap moves health as far as
        // twenty 0.5 s ticks would.
        const double dt = std::max(0.0, t - last_t_);
        const double alpha = 1.0 - std::exp(-dt / cfg_.tau_s);
        health_ += alpha * (v - health_);
    }
    last_t_ = t;
    if (valid) {
        last_good_t_ = t;
        ever_good_ = true;
    }
}

bool StreamHealth::stale(double t) const {
    if (!ever_good_) return true;
    return t - last_good_t_ > cfg_.stale_after_s;
}

void StreamHealth::reset() {
    health_ = 1.0;
    has_last_ = false;
    ever_good_ = false;
}

LinkHealthBank::LinkHealthBank(std::size_t n_links, StreamHealthConfig cfg) {
    if (n_links == 0)
        throw std::invalid_argument("LinkHealthBank: zero links");
    links_.reserve(n_links);
    for (std::size_t i = 0; i < n_links; ++i) links_.emplace_back(cfg);
}

double LinkHealthBank::mean_health() const {
    if (links_.empty()) return 1.0;
    double sum = 0.0;
    for (const auto& l : links_) sum += l.health();
    return sum / static_cast<double>(links_.size());
}

void LinkHealthBank::reset() {
    for (auto& l : links_) l.reset();
}

}  // namespace wifisense::core
