// Per-stream health tracking for the degradation policy: an exponentially
// weighted validity average (continuous-time EWMA, so irregular observation
// spacing is handled correctly) plus a staleness clock on the last good
// observation. MultiLinkDetector keeps one tracker per input stream (fused
// CSI, environmental) and steps down its tier ladder on their state, plus a
// LinkHealthBank — one tracker per receiver link — to decide which links
// still deserve a vote.
#pragma once

#include <cstddef>
#include <vector>

namespace wifisense::core {

struct StreamHealthConfig {
    /// EWMA time constant: a stream that goes fully dark decays from 1
    /// toward 0 with this constant, so ~tau seconds of outage drop health
    /// to ~0.37.
    double tau_s = 30.0;
    /// With no valid observation for this long the stream is "stale":
    /// held values from it may no longer be trusted at all.
    double stale_after_s = 10.0;
};

class StreamHealth {
public:
    explicit StreamHealth(StreamHealthConfig cfg = {});

    /// Record one observation instant: `valid` is whether the stream
    /// delivered a usable value at time `t`. Observations must arrive in
    /// non-decreasing time order.
    void observe(double t, bool valid);

    /// Validity EWMA in [0,1]; 1 before any observation (optimistic start:
    /// a detector should not boot into degraded mode).
    double health() const { return health_; }

    /// True when no valid observation landed within `stale_after_s` of `t`.
    bool stale(double t) const;

    void reset();

private:
    StreamHealthConfig cfg_;
    double health_ = 1.0;
    double last_t_ = 0.0;
    bool has_last_ = false;
    double last_good_t_ = 0.0;
    bool ever_good_ = false;
};

/// A fixed bank of per-link StreamHealth trackers sharing one config. The
/// fusion stage observes each link every sample instant (valid == "this link
/// contributed a usable frame") and gates contributions on per-link health.
class LinkHealthBank {
public:
    explicit LinkHealthBank(std::size_t n_links, StreamHealthConfig cfg = {});

    StreamHealth& link(std::size_t i) { return links_[i]; }

    void observe(std::size_t link, double t, bool valid) {
        links_[link].observe(t, valid);
    }

    /// Mean health across every link (1.0 for an empty bank).
    double mean_health() const;

    void reset();

private:
    std::vector<StreamHealth> links_;
};

}  // namespace wifisense::core
