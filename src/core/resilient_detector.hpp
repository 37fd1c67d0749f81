// Graceful-degradation front end for the occupancy detector.
//
// The plain OccupancyDetector assumes every record carries a full, finite
// CSI frame and fresh environmental readings — exactly what a Nexmon
// capture on a busy channel does NOT guarantee. ResilientDetector wraps two
// models (full CSI+Env and an Env-only fallback) behind a stream-health
// state machine with an explicit policy:
//
//   kFull       CSI frame usable this tick (raw, or repaired within the
//               staleness budget) and CSI health above the floor
//               -> CSI+Env model.
//   kEnvOnly    CSI stream unhealthy/absent but environmental values fresh
//               within their budget -> Env-only model (the paper's Table IV
//               shows Env alone still reaches ~93-98% on most folds).
//   kStaleHold  both streams dark -> hold the last model-backed probability,
//               decaying its confidence toward the 0.5 prior with time
//               constant `stale_confidence_tau_s`. Never extrapolates.
//
// Contract: once fitted, process() never throws on data content and never
// emits NaN/Inf — under 100% CSI loss it reports degraded health and keeps
// producing finite, clamped probabilities.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/occupancy_detector.hpp"
#include "core/stream_health.hpp"
#include "data/record.hpp"
#include "data/record_validator.hpp"

namespace wifisense::core {

/// One inference instant as delivered by the (possibly faulty) pipeline.
/// `has_csi == false` models a dropped/withheld frame; a present frame may
/// still contain NaN/Inf amplitudes from corruption.
struct Observation {
    double timestamp = 0.0;
    bool has_csi = false;
    std::array<float, data::kNumSubcarriers> csi{};
    bool has_env = false;
    float temperature_c = 0.0f;
    float humidity_pct = 0.0f;

    /// Convenience: an Observation seeing everything the record carries.
    static Observation from_record(const data::SampleRecord& r);
};

enum class DetectorMode : std::uint8_t {
    kFull = 0,
    kEnvOnly = 1,
    kStaleHold = 2,
};

std::string to_string(DetectorMode mode);

struct DetectorDecision {
    /// P(occupied); always finite, in [0,1].
    double probability = 0.5;
    int prediction = 0;  ///< probability > 0.5
    /// 2*|p-0.5| scaled by the health of the stream that produced it; decays
    /// exponentially in kStaleHold. In [0,1].
    double confidence = 0.0;
    DetectorMode mode = DetectorMode::kStaleHold;
    double csi_health = 0.0;
    double env_health = 0.0;
    bool csi_repaired = false;  ///< bad subcarriers imputed this tick
    bool env_held = false;      ///< env values forward-held this tick
};

struct ResilientConfig {
    /// Model configurations. Feature sets are forced (kCsiEnv / kEnv) by
    /// ResilientDetector regardless of what these say.
    DetectorConfig full;
    DetectorConfig fallback;

    StreamHealthConfig csi_health;
    StreamHealthConfig env_health;

    /// Below this CSI validity EWMA the full model is not trusted even when
    /// an individual frame arrives (a mostly-dead stream yields frames the
    /// training distribution never covered).
    double csi_health_floor = 0.5;

    // Per-subcarrier repair (NaN/Inf amplitudes imputed from the last
    // usable frame) follows the data::ValidationPolicy defaults: a 5 s
    // staleness budget and at most half the subcarriers bad.

    /// Env readings are forward-held up to this age (temperature/humidity
    /// move on minute scales, so the budget is generous).
    double env_staleness_budget_s = 120.0;

    /// kStaleHold confidence decay time constant.
    double stale_confidence_tau_s = 60.0;
};

/// Counters over the lifetime of the processed stream.
struct ResilienceStats {
    std::uint64_t observations = 0;
    std::uint64_t full_mode = 0;
    std::uint64_t env_only_mode = 0;
    std::uint64_t stale_hold_mode = 0;
    std::uint64_t csi_frames_repaired = 0;
    std::uint64_t csi_values_imputed = 0;
    std::uint64_t env_ticks_held = 0;
};

class ResilientDetector {
public:
    explicit ResilientDetector(ResilientConfig cfg = {});

    /// Trains both models (full on CSI+Env, fallback on Env) on the same
    /// fold. Returns the full model's history.
    nn::TrainHistory fit(const data::DatasetView& train);

    /// Triage + inference for one observation. Observations must arrive in
    /// non-decreasing timestamp order. Never throws on data content (only
    /// std::logic_error when unfitted).
    DetectorDecision process(const Observation& obs);

    /// Forget all stream state (health trackers, forward-fill donors, held
    /// decision) and zero the counters, keeping the trained models. Use
    /// between independent evaluation streams.
    void reset_stream();

    const ResilienceStats& stats() const { return stats_; }
    bool fitted() const { return fitted_; }
    const ResilientConfig& config() const { return cfg_; }
    OccupancyDetector& full_model() { return full_; }
    OccupancyDetector& fallback_model() { return fallback_; }

private:
    ResilientConfig cfg_;
    OccupancyDetector full_;
    OccupancyDetector fallback_;
    bool fitted_ = false;

    StreamHealth csi_health_;
    StreamHealth env_health_;
    ResilienceStats stats_;

    // Forward-fill state.
    data::CsiDonor csi_donor_;
    bool has_last_env_ = false;
    double last_env_t_ = 0.0;
    float last_temp_ = 0.0f;
    float last_hum_ = 0.0f;

    // Last model-backed decision, for kStaleHold.
    bool has_last_decision_ = false;
    double last_decision_t_ = 0.0;
    double last_decision_p_ = 0.5;

    // Previous tick's mode, for degradation-transition observability events
    // (common/trace.hpp instants + transition counters; never decision-bearing).
    bool has_prev_mode_ = false;
    DetectorMode prev_mode_ = DetectorMode::kFull;
};

}  // namespace wifisense::core
