// Streaming quantile sketches for the serving-grade telemetry layer
// (DESIGN.md §19).
//
// A QuantileSketch is a fixed-memory online estimator of p50/p90/p99/p999
// with a rank-error budget, built as a stack of deterministic compactors
// (Manku, Rajagopalan & Lindsay 1998; the KLL layout of Karnin, Lang &
// Liberty 2016 with uniform level capacity and no coin flips). Level h holds
// up to kSketchLevelCapacity samples of weight 2^h. When level 0 fills it is
// sorted; a full level promotes every other sample (the offset alternates
// per level) into level h+1 at doubled weight, merged so that every level
// above 0 stays sorted. One compaction moves any rank by at most 2^h, so
// the worst-case rank error is n·H/K (H levels in use, K the capacity);
// when the stream's order does not line up with the alternating offsets
// the moves cancel, and the property tests observe under 1% at K = 256.
//
// Why not a marker estimator such as P² (Jain & Chlamtác 1985), which
// needs ~13 doubles per quantile: its markers follow arrival order, so a
// sketch shared by eight threads answers differently per interleaving — on
// the bimodal property stream its median drifted 27% in rank. A compactor
// sorts what it summarises; arrival order only decides which samples share
// a compaction. The price is memory: kSketchLevels * kSketchLevelCapacity
// doubles (~117 KB) fixed at construction, enough levels that the top one
// can never fill before the uint64 count would overflow.
//
// observe() never allocates, never throws, never reads a clock, and never
// draws randomness, so it is provable inside the
// `requires(noalloc, noexcept, noclock, det)` hot-path contracts
// (tools/lint, ipa.* rules). Below kSketchLevelCapacity observations
// nothing has been compacted and every estimate is the exact interpolated
// sample quantile.
//
// Concurrency: observe() serializes through common::SpinLock
// (std::atomic exchange / store — no heap, no OS mutex). Sketch estimates
// are observational only and never feed back into computed outputs, so
// cross-thread interleaving of observations is allowed to perturb the
// *estimate* within its rank budget (never a bitwise-gated result).
//
// Like every instrument in common/metrics.hpp: creation (obs_sketch) takes
// the registry lock and may allocate — hoist the reference out of hot
// loops; recording is runtime-gated on metrics_enabled() and costs one
// relaxed atomic load and a branch when disabled.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

#include "common/metrics.hpp"  // metrics_enabled() gate, SpinLock

namespace wifisense::common {

/// The quantile set every registry sketch tracks.
inline constexpr double kSketchQuantiles[] = {0.5, 0.9, 0.99, 0.999};
inline constexpr std::size_t kSketchQuantileCount = 4;

/// Samples per compactor level (even; a power of two).
inline constexpr std::size_t kSketchLevelCapacityLog2 = 8;
inline constexpr std::size_t kSketchLevelCapacity =
    std::size_t{1} << kSketchLevelCapacityLog2;
/// Compactor levels. A full top level would carry weight
/// 2^(kSketchLevelCapacityLog2 + kSketchLevels - 1) >= 2^64, more than the
/// count can hold, so promotion never runs past the last level.
inline constexpr std::size_t kSketchLevels = 57;
static_assert(kSketchLevelCapacityLog2 + kSketchLevels - 1 >= 64);

/// Fixed-memory streaming sketch of p50/p90/p99/p999 plus count/min/max/sum.
/// observe() is gated on metrics_enabled() and holds the hot-path purity
/// contracts; query methods are registry-export-time conveniences.
class QuantileSketch {
public:
    /// Record one sample. NaN observations are dropped (they would poison
    /// the sort order). Proven `noalloc, noexcept, noclock, det` — see the
    /// lint contract at the definition.
    void observe(double v);

    /// Estimate for kSketchQuantiles[i]: the retained samples, each placed
    /// at the centre of the ranks its weight covers, linearly interpolated
    /// with min() and max() anchoring ranks 0 and count()-1. Monotone in i.
    [[nodiscard]] double estimate(std::size_t i) const;
    [[nodiscard]] std::uint64_t count() const {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double min() const;
    [[nodiscard]] double max() const;
    [[nodiscard]] double sum() const;
    void reset();

private:
    /// Promote every other sample of full, sorted level h into level h+1.
    void compact(std::size_t h);
    /// Interpolated q-quantile of the retained samples; caller holds the lock.
    [[nodiscard]] double quantile_locked(double q) const;

    mutable SpinLock lock_;
    std::atomic<std::uint64_t> count_{0};
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
    std::uint64_t offsets_ = 0;  ///< bit h: next promotion offset of level h
    std::size_t height_ = 1;     ///< levels that have held samples
    std::uint32_t size_[kSketchLevels] = {};
    double levels_[kSketchLevels][kSketchLevelCapacity] = {};
};

/// Registry lookup-or-create (defined in common/metrics.cpp, beside the
/// other instruments). May allocate on first use; hoist out of hot loops.
QuantileSketch& obs_sketch(std::string_view name);

}  // namespace wifisense::common
