#include "common/telemetry/quantile_sketch.hpp"

#include <algorithm>

namespace wifisense::common {

QuantileSketch::QuantileSketch(std::string name) : name_(std::move(name)) {}

void QuantileSketch::compact(std::size_t h) {
    constexpr std::size_t kHalf = kSketchLevelCapacity / 2;
    const double* src = levels_[h] + ((offsets_ >> h) & 1u);
    offsets_ ^= std::uint64_t{1} << h;
    // Merge src[0], src[2], ... into the sorted prefix of level h+1 from the
    // back, so neither run needs a scratch copy.
    double* dst = levels_[h + 1];
    std::size_t a = size_[h + 1];
    std::size_t b = kHalf;
    std::size_t out = a + b;
    while (b > 0) {
        if (a > 0 && dst[a - 1] > src[2 * (b - 1)])
            dst[--out] = dst[--a];
        else
            dst[--out] = src[2 * --b];
    }
    size_[h + 1] += kHalf;
    size_[h] = 0;
    if (h + 2 > height_) height_ = h + 2;
}

// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void QuantileSketch::observe(double v) {
    if (!metrics_enabled()) return;
    if (!(v == v)) return;  // NaN has no place in the sort order
    lock_spin();
    const std::uint64_t n = count_.load(std::memory_order_relaxed);
    if (n == 0) {
        min_ = v;
        max_ = v;
        sum_ = v;
    } else {
        if (v < min_) min_ = v;
        if (v > max_) max_ = v;
        sum_ += v;
    }
    levels_[0][size_[0]++] = v;
    if (size_[0] == kSketchLevelCapacity) {
        std::sort(levels_[0], levels_[0] + kSketchLevelCapacity);
        for (std::size_t h = 0; size_[h] == kSketchLevelCapacity; ++h)
            compact(h);
    }
    count_.store(n + 1, std::memory_order_relaxed);
    unlock_spin();
}

double QuantileSketch::quantile_locked(double q) const {
    const std::uint64_t n = count_.load(std::memory_order_relaxed);
    if (n == 0) return 0.0;
    // Level 0 is the only unsorted run; sort a copy, then walk all levels in
    // merged value order. Sample k of weight w covers ranks [c, c + w) after
    // c of cumulative weight, and sits at the centre c + (w - 1) / 2.
    double level0[kSketchLevelCapacity] = {};
    std::copy(levels_[0], levels_[0] + size_[0], level0);
    std::sort(level0, level0 + size_[0]);
    std::size_t at[kSketchLevels] = {};

    // min_ anchors rank 0 and max_ rank n - 1; target <= n - 1 because q < 1,
    // so the walk always ends, and prev_rank < target < rank when it
    // interpolates.
    const double target = q * static_cast<double>(n - 1);
    double prev_rank = 0.0;
    double prev_value = min_;
    double covered = 0.0;
    for (;;) {
        std::size_t best = kSketchLevels;
        double value = max_;
        for (std::size_t h = 0; h < height_; ++h) {
            if (at[h] == size_[h]) continue;
            const double v = h == 0 ? level0[at[0]] : levels_[h][at[h]];
            if (best == kSketchLevels || v < value) {
                best = h;
                value = v;
            }
        }
        double rank = static_cast<double>(n - 1);
        if (best != kSketchLevels) {
            const double weight = static_cast<double>(std::uint64_t{1} << best);
            rank = covered + (weight - 1.0) / 2.0;
            covered += weight;
            ++at[best];
        }
        if (rank == target) return value;
        if (rank > target)
            return prev_value + (target - prev_rank) / (rank - prev_rank) *
                                    (value - prev_value);
        prev_rank = rank;
        prev_value = value;
    }
}

double QuantileSketch::estimate(std::size_t i) const {
    lock_spin();
    const double v = quantile_locked(kSketchQuantiles[i]);
    unlock_spin();
    return v;
}

double QuantileSketch::min() const {
    lock_spin();
    const double v = min_;
    unlock_spin();
    return v;
}

double QuantileSketch::max() const {
    lock_spin();
    const double v = max_;
    unlock_spin();
    return v;
}

double QuantileSketch::sum() const {
    lock_spin();
    const double v = sum_;
    unlock_spin();
    return v;
}

void QuantileSketch::reset() {
    lock_spin();
    count_.store(0, std::memory_order_relaxed);
    min_ = 0.0;
    max_ = 0.0;
    sum_ = 0.0;
    offsets_ = 0;
    height_ = 1;
    std::fill(std::begin(size_), std::end(size_), 0u);
    unlock_spin();
}

}  // namespace wifisense::common
