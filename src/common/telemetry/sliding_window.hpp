// Ring-of-epochs sliding-window aggregation (DESIGN.md §19).
//
// Cumulative counters answer "how many ever"; a serving loop needs "how
// many in the last N seconds". A SlidingWindow buckets stream time (the
// sample timestamps already threaded through the detectors — never a wall
// clock) into fixed-width epochs and retains a fixed ring of the most
// recent `epochs` buckets. Advancing past the newest epoch zeroes the
// buckets in between; records older than the whole window are dropped and
// counted (`late_dropped`), so out-of-order arrivals within the window
// still land in their bucket.
//
// Each epoch holds one uint64 count; queries sum the trailing K seconds and
// derive rates. A window configured with a reservoir additionally keeps up
// to `reservoir` samples per epoch, filled by Algorithm R with a
// *deterministic* substream draw — the j-th sample of epoch e keeps or
// replaces based on splitmix64(substream_seed(seed, e) + j), so the
// retained set is a pure function of (seed, per-epoch arrival order),
// never of a random_device. Quantile queries merge the live epochs'
// samples into a pre-reserved scratch buffer and read nearest-rank
// quantiles. A window with no reservoir is a counter.
//
// A window is fed through add() (counted events) or through observe()
// (sampled values, one count each), never both: the epoch count doubles
// as the reservoir's arrival index.
//
// Recording is runtime-gated on metrics_enabled(), never allocates after
// construction, never throws, never reads a clock, and draws only the
// substream hash above — provable inside the
// `requires(noalloc, noexcept, noclock, det)` lint contracts. Queries are
// export-time conveniences and take the same spinlock.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/metrics.hpp"  // metrics_enabled() gate, SpinLock

namespace wifisense::common {

struct WindowConfig {
    /// Width of one epoch bucket in stream-time seconds.
    double epoch_seconds = 1.0;
    /// Ring length: the window covers epochs * epoch_seconds of stream time.
    std::size_t epochs = 60;
    /// Samples retained per epoch for quantile queries; 0 = counter only.
    std::size_t reservoir = 0;
    /// Substream seed for the deterministic reservoir draws.
    std::uint64_t seed = 0x77F15EED5EEDull;
};

/// Samples per epoch of a latency window (resilient.predict_us, SLOs).
inline constexpr std::size_t kLatencyReservoir = 128;

/// Ring of per-epoch counts over stream time, with an optional per-epoch
/// deterministic reservoir for quantile queries.
class SlidingWindow {
public:
    explicit SlidingWindow(const WindowConfig& cfg);

    /// Count `n` events at stream time `stream_t` (seconds).
    void add(double stream_t, std::uint64_t n = 1);
    /// Count one sample at stream time `stream_t` and offer it to the
    /// epoch's reservoir. NaN samples are dropped.
    void observe(double stream_t, double v);

    /// Events counted in the trailing `seconds` of the window (clamped to
    /// the window span), ending at the newest epoch seen.
    [[nodiscard]] std::uint64_t count_last(double seconds) const;
    /// Events per second over the trailing `seconds`.
    [[nodiscard]] double rate_per_s(double seconds) const;
    /// Nearest-rank quantile over the samples retained in the trailing
    /// `seconds` (0 when empty). Not a hot-path call: merges into
    /// pre-reserved scratch and sorts.
    [[nodiscard]] double quantile_last(double seconds, double q) const;
    /// Records dropped because they predate the whole window.
    [[nodiscard]] std::uint64_t late_dropped() const {
        return late_dropped_.load(std::memory_order_relaxed);
    }
    /// Stream-time span of the whole window in seconds.
    [[nodiscard]] double span_s() const {
        return static_cast<double>(cfg_.epochs) * cfg_.epoch_seconds;
    }
    [[nodiscard]] const WindowConfig& config() const { return cfg_; }
    void reset();

private:
    /// Gate, epoch rotation, late drop and count for add() and observe();
    /// `sample` is the value offered to the reservoir, or null.
    void record(double stream_t, std::uint64_t n, const double* sample);
    /// Rotate the ring forward so `epoch` is representable; true if `epoch`
    /// is inside the window afterwards. Caller holds the lock.
    bool advance(std::int64_t epoch);

    WindowConfig cfg_;
    mutable SpinLock lock_;
    std::vector<std::uint64_t> counts_;    ///< cfg_.epochs slots, fixed
    std::vector<double> samples_;          ///< epochs * reservoir, fixed
    mutable std::vector<double> scratch_;  ///< merge buffer for queries
    std::int64_t newest_epoch_ = 0;
    bool has_epoch_ = false;
    std::atomic<std::uint64_t> late_dropped_{0};
};

/// Registry lookup-or-create (defined in common/metrics.cpp, beside the
/// other instruments). The config is applied on first registration; later
/// lookups of the same name keep the original window shape.
SlidingWindow& obs_window(std::string_view name, const WindowConfig& cfg = {});

}  // namespace wifisense::common
