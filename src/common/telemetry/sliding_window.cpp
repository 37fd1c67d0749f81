#include "common/telemetry/sliding_window.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "common/rng.hpp"

namespace wifisense::common {

namespace {

/// Stream time -> epoch index (floor; negative times land in negative
/// epochs, which the ring handles via the wrapped modulo below).
std::int64_t epoch_of(double stream_t, double width) {
    return static_cast<std::int64_t>(std::floor(stream_t / width));
}

/// Non-negative slot index for a (possibly negative) epoch.
std::size_t slot_of(std::int64_t epoch, std::size_t n) {
    const std::int64_t m = static_cast<std::int64_t>(n);
    return static_cast<std::size_t>(((epoch % m) + m) % m);
}

/// Trailing-seconds query span in epochs, clamped to the ring.
std::size_t span_epochs(double seconds, const WindowConfig& cfg) {
    const double k = std::ceil(seconds / cfg.epoch_seconds);
    if (!(k > 0.0)) return 1;
    if (k >= static_cast<double>(cfg.epochs)) return cfg.epochs;
    return static_cast<std::size_t>(k);
}

}  // namespace

SlidingWindow::SlidingWindow(const WindowConfig& cfg) : cfg_(cfg) {
    if (cfg_.epochs == 0) cfg_.epochs = 1;
    if (!(cfg_.epoch_seconds > 0.0)) cfg_.epoch_seconds = 1.0;
    counts_.assign(cfg_.epochs, 0);
    samples_.assign(cfg_.epochs * cfg_.reservoir, 0.0);
    scratch_.reserve(cfg_.epochs * cfg_.reservoir);
}

// wifisense-lint: requires(noalloc, noexcept, noclock, det)
bool SlidingWindow::advance(std::int64_t epoch) {
    if (!has_epoch_) {
        has_epoch_ = true;
        newest_epoch_ = epoch;
        return true;
    }
    if (epoch > newest_epoch_) {
        const std::int64_t jump = epoch - newest_epoch_;
        if (jump >= static_cast<std::int64_t>(cfg_.epochs)) {
            std::fill(counts_.begin(), counts_.end(), std::uint64_t{0});
        } else {
            for (std::int64_t e = newest_epoch_ + 1; e <= epoch; ++e)
                counts_[slot_of(e, cfg_.epochs)] = 0;
        }
        newest_epoch_ = epoch;
        return true;
    }
    return newest_epoch_ - epoch < static_cast<std::int64_t>(cfg_.epochs);
}

// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void SlidingWindow::record(double stream_t, std::uint64_t n,
                           const double* sample) {
    if (!metrics_enabled()) return;
    if (!(stream_t == stream_t)) return;  // NaN time has no epoch
    const std::int64_t e = epoch_of(stream_t, cfg_.epoch_seconds);
    std::lock_guard guard(lock_);
    if (!advance(e)) {
        late_dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const std::size_t slot = slot_of(e, cfg_.epochs);
    std::uint64_t& seen = counts_[slot];
    if (sample != nullptr && cfg_.reservoir > 0) {
        double* reservoir = samples_.data() + slot * cfg_.reservoir;
        if (seen < cfg_.reservoir) {
            reservoir[seen] = *sample;
        } else {
            // Algorithm R with a deterministic substream draw: the sample's
            // fate is a pure function of (seed, epoch, arrival index).
            const std::uint64_t draw = splitmix64(
                substream_seed(cfg_.seed, static_cast<std::uint64_t>(e)) + seen);
            const std::uint64_t j = draw % (seen + 1);
            if (j < cfg_.reservoir) reservoir[j] = *sample;
        }
    }
    seen += n;
}

// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void SlidingWindow::add(double stream_t, std::uint64_t n) {
    record(stream_t, n, nullptr);
}

// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void SlidingWindow::observe(double stream_t, double v) {
    if (v == v) record(stream_t, 1, &v);
}

[[nodiscard]] std::uint64_t SlidingWindow::count_last(double seconds) const {
    std::lock_guard guard(lock_);
    std::uint64_t total = 0;
    if (has_epoch_) {
        const std::size_t k = span_epochs(seconds, cfg_);
        for (std::size_t i = 0; i < k; ++i)
            total += counts_[slot_of(newest_epoch_ - static_cast<std::int64_t>(i),
                                     cfg_.epochs)];
    }
    return total;
}

[[nodiscard]] double SlidingWindow::rate_per_s(double seconds) const {
    const double span = static_cast<double>(span_epochs(seconds, cfg_)) *
                        cfg_.epoch_seconds;
    return span > 0.0 ? static_cast<double>(count_last(seconds)) / span : 0.0;
}

[[nodiscard]] double SlidingWindow::quantile_last(double seconds,
                                                  double q) const {
    std::lock_guard guard(lock_);
    scratch_.clear();
    if (has_epoch_) {
        const std::size_t k = span_epochs(seconds, cfg_);
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t slot = slot_of(
                newest_epoch_ - static_cast<std::int64_t>(i), cfg_.epochs);
            const std::size_t kept = static_cast<std::size_t>(
                std::min<std::uint64_t>(counts_[slot], cfg_.reservoir));
            const double* reservoir = samples_.data() + slot * cfg_.reservoir;
            scratch_.insert(scratch_.end(), reservoir, reservoir + kept);
        }
    }
    if (scratch_.empty()) return 0.0;
    std::sort(scratch_.begin(), scratch_.end());
    const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
    std::size_t idx =
        static_cast<std::size_t>(clamped * static_cast<double>(scratch_.size()));
    if (idx >= scratch_.size()) idx = scratch_.size() - 1;
    return scratch_[idx];
}

void SlidingWindow::reset() {
    std::lock_guard guard(lock_);
    std::fill(counts_.begin(), counts_.end(), std::uint64_t{0});
    has_epoch_ = false;
    newest_epoch_ = 0;
    late_dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace wifisense::common
