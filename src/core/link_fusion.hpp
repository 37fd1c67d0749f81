// Graceful-degradation front end for the occupancy detector: N receiver
// links fused into one CSI observation, two models (full CSI+Env and an
// Env-only fallback) and one ladder that steps down as links die and
// streams go dark, instead of falling over.
//
//   kFullFusion    every link voted -> element-wise mean CSI over all N
//                  links (what the fused model trained on) -> CSI+Env model.
//   kSubsetFusion  1 < k < N links voted -> mean over the survivors;
//                  confidence scaled by sqrt(k/N) (fewer independent looks
//                  at the room, higher variance of the fused frame).
//   kSingleLink    one of N > 1 links voted -> its frame alone, sqrt(1/N)
//                  confidence scale.
//   kEnvOnly       no vote, or the fused stream's CSI health under its
//                  floor, but env values fresh or forward-held within their
//                  budget -> Env-only model (the paper's Table IV shows Env
//                  alone still reaches ~93-98% on most folds).
//   kStaleHold     both streams dark -> hold the last model-backed
//                  probability, decaying it toward the 0.5 prior with time
//                  constant `stale_confidence_tau_s`. Never extrapolates.
//
// A present frame first has its non-finite amplitudes forward-filled from
// that link's own last usable frame (data::forward_fill_csi under the
// data::ValidationPolicy defaults: a 5 s donor age, at most half the
// subcarriers bad). A link then votes when its frame is usable and, with
// N > 1, its validity EWMA (core/stream_health.hpp LinkHealthBank) sits at
// or above the configured floor and is not stale — a mostly-dead link's
// occasional frame is worse than no frame, because the fused mean would mix
// training-distribution frames with outliers. With one link there is no
// mean to pollute, so only the fused stream's own CSI health floor applies,
// and a one-link detector is the single-stream detector exactly.
//
// Subset re-centering: each link sees the room through its own multipath
// geometry, so per-link amplitude baselines differ, and a mean over k < N
// survivors sits at a systematically shifted baseline the fused model never
// trained on — far enough off-manifold to saturate the MLP the wrong way.
// calibrate_links() records per-link per-subcarrier amplitude means from a
// representative clean window; degraded fusion then re-centers the
// survivors' mean onto the all-link baseline
// (fused += mean_all(mu) - mean_survivors(mu)), which cancels the
// first-order baseline shift while leaving the occupancy-driven deviations
// (shared across links) intact. The correction applies only when
// used < n_links, so the full-fusion path is bitwise unaffected; without
// calibration the detector behaves exactly as before.
//
// Contract: once fitted, process() never throws on data content and never
// emits NaN/Inf — under 100% CSI loss it reports degraded health and keeps
// producing finite, clamped probabilities.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/occupancy_detector.hpp"
#include "core/stream_health.hpp"
#include "data/dataset.hpp"
#include "data/record.hpp"
#include "data/record_validator.hpp"

namespace wifisense::core {

/// One link's contribution to a fusion instant. `present == false` models a
/// link that delivered nothing this tick (outage, decode loss, reassembly
/// gap); a present frame may still carry NaN/Inf amplitudes.
struct LinkFrame {
    bool present = false;
    std::array<float, data::kNumSubcarriers> csi{};
};

/// One multi-link inference instant.
struct MultiLinkObservation {
    double timestamp = 0.0;
    bool has_env = false;
    float temperature_c = 0.0f;
    float humidity_pct = 0.0f;
    /// One entry per configured link, indexed by link id.
    std::span<const LinkFrame> links;
};

enum class FusionTier : std::uint8_t {
    kFullFusion = 0,
    kSubsetFusion = 1,
    kSingleLink = 2,
    kEnvOnly = 3,
    kStaleHold = 4,
};

std::string to_string(FusionTier tier);

struct DetectorDecision {
    /// P(occupied); always finite, in [0,1].
    double probability = 0.5;
    int prediction = 0;  ///< probability > 0.5
    /// 2*|p-0.5| scaled by the health of the stream that produced it (and
    /// by sqrt(k/N) below full fusion); decays exponentially in kStaleHold.
    /// In [0,1].
    double confidence = 0.0;
    double csi_health = 0.0;    ///< EWMA of "some link voted"
    double env_health = 0.0;
    bool csi_repaired = false;  ///< a link's bad subcarriers imputed this tick
    bool env_held = false;      ///< env values forward-held this tick
};

struct FusionDecision {
    DetectorDecision base;
    FusionTier tier = FusionTier::kStaleHold;
    std::uint32_t links_used = 0;
    double mean_link_health = 0.0;
};

struct MultiLinkConfig {
    std::size_t n_links = 4;
    /// Model configurations. Feature sets are forced (kCsiEnv / kEnv)
    /// regardless of what these say.
    DetectorConfig full;
    DetectorConfig fallback;

    StreamHealthConfig csi_health;
    StreamHealthConfig env_health;
    StreamHealthConfig link_health;

    /// Below this fused-stream CSI validity EWMA the full model is not
    /// trusted even when a frame arrives (a mostly-dead stream yields frames
    /// the training distribution never covered).
    double csi_health_floor = 0.5;
    /// With more than one link, a link below this validity EWMA (or stale)
    /// loses its vote even when a usable frame shows up.
    double link_health_floor = 0.3;

    /// Env readings are forward-held up to this age (temperature/humidity
    /// move on minute scales, so the budget is generous).
    double env_staleness_budget_s = 120.0;

    /// kStaleHold confidence decay time constant.
    double stale_confidence_tau_s = 60.0;
};

/// Counters over the lifetime of the processed stream.
struct FusionStats {
    std::uint64_t observations = 0;
    std::uint64_t full_fusion = 0;
    std::uint64_t subset_fusion = 0;
    std::uint64_t single_link = 0;
    std::uint64_t env_only = 0;
    std::uint64_t stale_hold = 0;
    std::uint64_t link_frames_seen = 0;
    std::uint64_t link_frames_rejected = 0;  ///< present but unusable/unhealthy
    std::uint64_t csi_frames_repaired = 0;
    std::uint64_t csi_values_imputed = 0;
    std::uint64_t env_ticks_held = 0;
};

/// The benchmark under perfbench/ still names the stats by this alias.
using ResilienceStats = FusionStats;

/// Fit on the fused training stream (see fused_dataset), then feed one
/// MultiLinkObservation per sample instant.
class MultiLinkDetector {
public:
    explicit MultiLinkDetector(MultiLinkConfig cfg = {});

    /// Trains both models (full on CSI+Env, fallback on Env) on the same
    /// (already fused) fold. Returns the full model's history.
    nn::TrainHistory fit(const data::DatasetView& fused_train);

    /// Record per-link per-subcarrier amplitude baselines over rows
    /// [row_begin, min(row_end, link size)) of each link's record stream
    /// (pass the training range of the same collection the fused model was
    /// fit on). Non-finite amplitudes are skipped. Enables subset
    /// re-centering (header comment); full-fusion output is unaffected.
    /// Survives reset_stream() like the trained models do. Returns
    /// kInvalidArgument (leaving calibration untouched) when the link count
    /// disagrees with the config or any link's row window is empty.
    [[nodiscard]] common::Status calibrate_links(
        std::span<const data::Dataset> links, std::size_t row_begin = 0,
        std::size_t row_end = static_cast<std::size_t>(-1));
    [[nodiscard]] bool calibrated() const { return calibrated_; }

    /// Repair, fuse, triage and infer one instant. Observations must arrive
    /// in non-decreasing timestamp order; obs.links.size() must equal
    /// config().n_links. Throws only on that API misuse or when unfitted.
    FusionDecision process(const MultiLinkObservation& obs);

    /// Forget all stream state (health trackers, forward-fill donors, held
    /// values and decision) and zero the counters, keeping the trained
    /// models and the calibration. Use between independent streams.
    void reset_stream();

    [[nodiscard]] const FusionStats& stats() const { return stats_; }
    [[nodiscard]] const MultiLinkConfig& config() const { return cfg_; }
    [[nodiscard]] bool fitted() const { return fitted_; }
    OccupancyDetector& full_model() { return full_; }
    OccupancyDetector& fallback_model() { return fallback_; }
    /// The benchmark under perfbench/ still reaches the models through it.
    MultiLinkDetector& detector() { return *this; }

private:
    MultiLinkConfig cfg_;
    OccupancyDetector full_;
    OccupancyDetector fallback_;
    bool fitted_ = false;

    LinkHealthBank health_;
    StreamHealth csi_health_;
    StreamHealth env_health_;
    FusionStats stats_;

    // Forward-fill state: one CSI donor per link, the last fresh env reading.
    std::vector<data::CsiDonor> donors_;
    bool has_last_env_ = false;
    double last_env_t_ = 0.0;
    float last_temp_ = 0.0f;
    float last_hum_ = 0.0f;

    // Last model-backed decision, for kStaleHold.
    bool has_last_decision_ = false;
    double last_decision_t_ = 0.0;
    double last_decision_p_ = 0.5;

    /// Last emitted tier and per-link voting mask, so the flight recorder
    /// logs transitions and vote flips instead of every tick.
    FusionTier prev_tier_ = FusionTier::kStaleHold;
    bool has_prev_tier_ = false;
    std::uint64_t prev_voting_mask_ = 0;

    bool calibrated_ = false;
    /// Per-link per-subcarrier amplitude baseline (calibrate_links).
    std::vector<std::array<double, data::kNumSubcarriers>> link_mu_;
    /// Mean of link_mu_ over every link: the baseline the fused model saw.
    std::array<double, data::kNumSubcarriers> all_mu_{};
};

/// Element-wise mean of per-link record streams: record i of the result
/// carries the mean CSI over links, with timestamps, env values and labels
/// taken from link 0 (all links sample the same room at the same instants).
/// Throws std::invalid_argument when the streams disagree in length or
/// timestamps. This is the training-time counterpart of kFullFusion.
data::Dataset fused_dataset(std::span<const data::Dataset> links);

/// Link-dropout training augmentation: row i of the result fuses a seeded
/// random subset of the links (all of them with probability `full_fraction`,
/// else a uniform 1..N-1 of a seeded shuffle), re-centered onto the all-link
/// baseline exactly like the degraded inference path — so a model trained on
/// this stream has seen every fusion tier at its deployed distribution, not
/// just kFullFusion. Subset draws are pure functions of (seed, row), making
/// the stream bitwise reproducible. With full_fraction = 1 the result equals
/// fused_dataset over the same rows. Rows [row_begin, min(row_end, size)).
data::Dataset link_dropout_fused(std::span<const data::Dataset> links,
                                 std::size_t row_begin = 0,
                                 std::size_t row_end =
                                     static_cast<std::size_t>(-1),
                                 std::uint64_t seed = 0x9E3779B9u,
                                 double full_fraction = 0.5);

}  // namespace wifisense::core
