#include "core/resilient_detector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/metrics.hpp"
#include "common/telemetry/flight_recorder.hpp"
#include "common/telemetry/quantile_sketch.hpp"
#include "common/telemetry/sliding_window.hpp"
#include "common/trace.hpp"

namespace wifisense::core {

namespace {

/// The one label table for DetectorMode: string literals, so the flight
/// recorder can store them without allocating (to_string wraps it).
const char* mode_label(DetectorMode mode) {
    switch (mode) {
        case DetectorMode::kFull: return "full";
        case DetectorMode::kEnvOnly: return "env_only";
        case DetectorMode::kStaleHold: return "stale_hold";
    }
    return "unknown";
}

/// CSI repair follows the validator's defaults (5 s donor age, at most half
/// the subcarriers bad).
constexpr data::ValidationPolicy kCsiRepair{};

/// Observability hook for a degradation-state change: one instant event on
/// the trace timeline (named after the new mode), a per-target-mode
/// transition counter, and a flight-recorder event carrying the stream time
/// so post-mortems can replay the ladder walk. Purely observational — the
/// decision is already made.
void note_mode_transition(DetectorMode mode, double t) {
    switch (mode) {
        case DetectorMode::kFull:
            common::trace_instant("resilient.to_full");
            common::obs_counter("resilient.transitions_to_full").add(1);
            break;
        case DetectorMode::kEnvOnly:
            common::trace_instant("resilient.to_env_only");
            common::obs_counter("resilient.transitions_to_env_only").add(1);
            break;
        case DetectorMode::kStaleHold:
            common::trace_instant("resilient.to_stale_hold");
            common::obs_counter("resilient.transitions_to_stale_hold").add(1);
            break;
    }
    common::flight_record("mode", mode_label(mode), t, static_cast<double>(mode));
}

/// Observability hook for one model inference: microsecond latency feeds the
/// lifetime quantile sketch and the 60s sliding-window reservoir keyed on
/// stream time. The two observe() calls are proven noalloc/noexcept lint
/// roots, and process() inherits their proofs through this function.
// wifisense-lint: allow-call(obs_sketch, obs_window) registration runs once per process behind the function-local statics
void note_predict_latency(double stream_t, double us) {
    static common::QuantileSketch& sketch =
        common::obs_sketch("resilient.predict_us");
    static common::SlidingWindow& window = common::obs_window(
        "resilient.predict_us", {.reservoir = common::kLatencyReservoir});
    sketch.observe(us);
    window.observe(stream_t, us);
}

double clamp01(double v) {
    if (!(v > 0.0)) return 0.0;  // also maps NaN to 0
    return v < 1.0 ? v : 1.0;
}

bool env_finite(float t_c, float h_pct) {
    return std::isfinite(t_c) && std::isfinite(h_pct);
}

}  // namespace

Observation Observation::from_record(const data::SampleRecord& r) {
    Observation o;
    o.timestamp = r.timestamp;
    o.has_csi = true;
    o.csi = r.csi;
    o.has_env = true;
    o.temperature_c = r.temperature_c;
    o.humidity_pct = r.humidity_pct;
    return o;
}

std::string to_string(DetectorMode mode) { return mode_label(mode); }

ResilientDetector::ResilientDetector(ResilientConfig cfg)
    : cfg_(cfg),
      full_([&] {
          DetectorConfig c = cfg.full;
          c.features = data::FeatureSet::kCsiEnv;
          return c;
      }()),
      fallback_([&] {
          DetectorConfig c = cfg.fallback;
          c.features = data::FeatureSet::kEnv;
          return c;
      }()),
      csi_health_(cfg.csi_health),
      env_health_(cfg.env_health) {
    if (cfg_.csi_health_floor < 0.0 || cfg_.csi_health_floor > 1.0)
        throw std::invalid_argument("ResilientDetector: health floor outside [0,1]");
    if (cfg_.stale_confidence_tau_s <= 0.0)
        throw std::invalid_argument("ResilientDetector: non-positive stale tau");
}

void ResilientDetector::reset_stream() {
    csi_health_.reset();
    env_health_.reset();
    stats_ = ResilienceStats{};
    csi_donor_.valid = false;
    has_last_env_ = false;
    has_last_decision_ = false;
    last_decision_p_ = 0.5;
    has_prev_mode_ = false;
}

nn::TrainHistory ResilientDetector::fit(const data::DatasetView& train) {
    const nn::TrainHistory history = full_.fit(train);
    fallback_.fit(train);
    fitted_ = true;
    return history;
}

// wifisense-lint: requires(noalloc, noexcept)
// wifisense-lint: allow-call(obs_gauge, note_mode_transition, trace_now_ns) env-gated observability: gauge registration runs once per process behind function-local statics; transition events fire only on rare mode flips; the latency clock reads bracket predict_proba and never feed back into the decision
DetectorDecision ResilientDetector::process(const Observation& obs) {
    if (!fitted_)
        // wifisense-lint: allow(ipa.throw-leak) precondition guard: fires only
        // when process() is called before fit(), never on data content
        throw std::logic_error("ResilientDetector::process: not fitted");
    ++stats_.observations;
    const double t = obs.timestamp;

    // ---- CSI triage: raw -> (maybe) repaired -> usable frame. --------------
    std::array<float, data::kNumSubcarriers> frame = obs.csi;
    bool csi_usable = false;
    bool csi_repaired = false;
    if (obs.has_csi) {
        std::size_t bad = 0;
        for (const float a : frame)
            if (!std::isfinite(a)) ++bad;
        csi_usable =
            data::forward_fill_csi(frame, bad, t, csi_donor_, kCsiRepair);
        if (csi_usable && bad > 0) {
            csi_repaired = true;
            ++stats_.csi_frames_repaired;
            stats_.csi_values_imputed += bad;
        }
    }
    csi_health_.observe(t, csi_usable);
    if (csi_usable) csi_donor_ = data::CsiDonor{true, t, frame};

    // ---- Env triage: fresh reading, else forward-hold within budget. -------
    bool env_fresh = obs.has_env && env_finite(obs.temperature_c, obs.humidity_pct);
    env_health_.observe(t, env_fresh);
    float temp = obs.temperature_c;
    float hum = obs.humidity_pct;
    bool env_held = false;
    bool env_usable = env_fresh;
    if (env_fresh) {
        last_temp_ = temp;
        last_hum_ = hum;
        last_env_t_ = t;
        has_last_env_ = true;
    } else if (has_last_env_ && t - last_env_t_ <= cfg_.env_staleness_budget_s) {
        temp = last_temp_;
        hum = last_hum_;
        env_held = true;
        env_usable = true;
        ++stats_.env_ticks_held;
    }

    // ---- Mode policy. ------------------------------------------------------
    DetectorDecision d;
    d.csi_health = csi_health_.health();
    d.env_health = env_health_.health();
    d.csi_repaired = csi_repaired;
    d.env_held = env_held;

    const bool full_ok =
        csi_usable && env_usable && d.csi_health >= cfg_.csi_health_floor;
    if (full_ok) {
        d.mode = DetectorMode::kFull;
        ++stats_.full_mode;
        data::SampleRecord r;
        r.timestamp = t;
        r.csi = frame;
        r.temperature_c = temp;
        r.humidity_pct = hum;
        const std::uint64_t t0 =
            common::metrics_enabled() ? common::trace_now_ns() : 0;
        d.probability = clamp01(full_.predict_proba(r));
        if (t0 != 0)
            note_predict_latency(
                t, static_cast<double>(common::trace_now_ns() - t0) * 1e-3);
        d.confidence = clamp01(2.0 * std::abs(d.probability - 0.5) * d.csi_health);
    } else if (env_usable) {
        d.mode = DetectorMode::kEnvOnly;
        ++stats_.env_only_mode;
        data::SampleRecord r;
        r.timestamp = t;
        r.temperature_c = temp;
        r.humidity_pct = hum;
        const std::uint64_t t0 =
            common::metrics_enabled() ? common::trace_now_ns() : 0;
        d.probability = clamp01(fallback_.predict_proba(r));
        if (t0 != 0)
            note_predict_latency(
                t, static_cast<double>(common::trace_now_ns() - t0) * 1e-3);
        d.confidence = clamp01(2.0 * std::abs(d.probability - 0.5) * d.env_health);
    } else {
        // Both streams dark: hold the last model-backed estimate, shrinking
        // it toward the 0.5 prior so a long outage converges to "don't know"
        // instead of confidently repeating stale state.
        d.mode = DetectorMode::kStaleHold;
        ++stats_.stale_hold_mode;
        if (has_last_decision_) {
            const double age = std::max(0.0, t - last_decision_t_);
            const double decay = std::exp(-age / cfg_.stale_confidence_tau_s);
            d.probability = clamp01(0.5 + (last_decision_p_ - 0.5) * decay);
            d.confidence = clamp01(2.0 * std::abs(d.probability - 0.5));
        } else {
            d.probability = 0.5;
            d.confidence = 0.0;
        }
    }

    if (d.mode != DetectorMode::kStaleHold) {
        has_last_decision_ = true;
        last_decision_t_ = t;
        last_decision_p_ = d.probability;
    }
    d.prediction = d.probability > 0.5 ? 1 : 0;

    // Observability: EWMA health gauges every tick, a transition event when
    // the degradation state machine moved. Never feeds back into decisions.
    if (common::metrics_enabled() || common::trace_enabled()) {
        static common::Gauge& csi_gauge = common::obs_gauge("resilient.csi_health");
        static common::Gauge& env_gauge = common::obs_gauge("resilient.env_health");
        csi_gauge.set(d.csi_health);
        env_gauge.set(d.env_health);
        if (!has_prev_mode_ || prev_mode_ != d.mode)
            note_mode_transition(d.mode, t);
    }
    prev_mode_ = d.mode;
    has_prev_mode_ = true;
    return d;
}

}  // namespace wifisense::core
