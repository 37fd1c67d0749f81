// Declarative SLOs with multi-window burn-rate evaluation (DESIGN.md §19).
//
// An SloSpec states two objectives over a request stream:
//
//   - availability: at least `availability_pct` of requests succeed;
//   - latency: the `latency_quantile` of request latency stays at or
//     below `latency_objective_us`.
//
// Evaluation follows the multi-window burn-rate rule: with error budget
// eb = 1 - availability_pct/100, the burn rate of a window is
// (error fraction in window) / eb — burn 1.0 consumes the budget exactly
// at the sustainable pace, burn N consumes it N times too fast. A breach
// requires BOTH the fast window (reacts in seconds) and the slow window
// (confirms it is not a blip) to exceed their thresholds; one window alone
// is a warning. Latency is judged the same way: the windowed quantile
// (telemetry/sliding_window.hpp reservoirs) must exceed the objective in
// both windows to breach.
//
// SloMonitor::record() sits on the serving path and holds the
// `requires(noalloc, noexcept)` contract (it feeds two counting windows and
// one sampling window — all fixed memory). evaluate() is an export-time
// call: it may allocate, and on a breach it drops an "slo" event into the
// flight recorder so the snapshot shows *when* the budget died.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "common/telemetry/sliding_window.hpp"

namespace wifisense::common {

struct SloSpec {
    std::string name = "serve";
    /// Latency objective: the `latency_quantile` of request latency must
    /// stay <= `latency_objective_us`. 0 disables the latency objective.
    double latency_quantile = 0.99;
    double latency_objective_us = 0.0;
    /// Availability objective in percent (e.g. 99.5). 0 disables it.
    double availability_pct = 0.0;
    /// Window spans in stream-time seconds.
    double fast_window_s = 5.0;
    double slow_window_s = 60.0;
    /// Burn-rate thresholds (fast reacts, slow confirms).
    double fast_burn_max = 14.0;
    double slow_burn_max = 6.0;

    /// Render back to the parse_slo_spec() format.
    [[nodiscard]] std::string to_spec() const;
};

/// Parse "name=serve,p99<=800,avail>=99.5,fast=5,slow=60,fast_burn=14,
/// slow_burn=6". The latency key is any of p50/p90/p99/p999 (objective in
/// microseconds); every key is optional but at least one objective
/// (latency or availability) must be present.
[[nodiscard]] Result<SloSpec> parse_slo_spec(std::string_view spec);

enum class SloState { kOk, kWarn, kBreach };
[[nodiscard]] const char* to_string(SloState s);

/// The typed gate result the serving loop / benches act on.
struct SloVerdict {
    SloState state = SloState::kOk;
    bool availability_breach = false;  ///< both windows over burn threshold
    bool latency_breach = false;       ///< both windows over the objective
    double fast_burn = 0.0;
    double slow_burn = 0.0;
    double availability_fast_pct = 100.0;
    double availability_slow_pct = 100.0;
    double latency_fast_us = 0.0;  ///< windowed quantile, fast window
    double latency_slow_us = 0.0;
    std::uint64_t requests_fast = 0;
    std::uint64_t requests_slow = 0;
};

class SloMonitor {
public:
    explicit SloMonitor(SloSpec spec);

    /// Record one request outcome at stream time `stream_t`: `ok` is the
    /// availability signal, `latency_us` the request latency. Holds the
    /// `requires(noalloc, noexcept)` serving-path contract.
    void record(double stream_t, double latency_us, bool ok);

    /// Evaluate both windows as of the newest stream time seen. On a
    /// breach, drops an "slo" event into the flight recorder. Not a
    /// hot-path call (the windowed quantile query sorts its scratch).
    [[nodiscard]] SloVerdict evaluate() const;

    [[nodiscard]] const SloSpec& spec() const { return spec_; }
    [[nodiscard]] double last_stream_t() const { return last_t_; }
    void reset();

private:
    SloSpec spec_;
    SlidingWindow total_;
    SlidingWindow errors_;  ///< !ok requests (availability objective)
    SlidingWindow latency_;
    double last_t_ = 0.0;
};

/// Registry lookup-or-create by spec.name (defined in common/metrics.cpp;
/// the first registration's spec wins). metrics_reset() resets registered
/// monitors, and the telemetry snapshot exports their verdicts.
SloMonitor& obs_slo(const SloSpec& spec);

/// Render a human-readable verdict table (quickstart --slo output).
std::string format_verdict_table(const SloSpec& spec, const SloVerdict& v);

}  // namespace wifisense::common
