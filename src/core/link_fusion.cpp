#include "core/link_fusion.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/telemetry/flight_recorder.hpp"
#include "common/telemetry/quantile_sketch.hpp"
#include "common/telemetry/sliding_window.hpp"
#include "common/trace.hpp"

namespace wifisense::core {

namespace {

/// The one label table for FusionTier: string literals, so flight recording
/// stays allocation-free (to_string below wraps it for export).
const char* tier_label(FusionTier tier) {
    switch (tier) {
        case FusionTier::kFullFusion: return "full-fusion";
        case FusionTier::kSubsetFusion: return "subset-fusion";
        case FusionTier::kSingleLink: return "single-link";
        case FusionTier::kEnvOnly: return "env-only";
        case FusionTier::kStaleHold: return "stale-hold";
    }
    return "unknown";
}

/// Per-link per-subcarrier amplitude means over rows [row_begin, row_end),
/// skipping non-finite amplitudes (a subcarrier with no finite sample in the
/// window gets baseline 0). Shared by calibrate_links and the link-dropout
/// augmentation so training and inference re-center identically.
std::vector<std::array<double, data::kNumSubcarriers>> link_baselines(
    std::span<const data::Dataset> links, std::size_t row_begin,
    std::size_t row_end) {
    std::vector<std::array<double, data::kNumSubcarriers>> mu(links.size());
    for (std::size_t l = 0; l < links.size(); ++l) {
        const std::size_t end = std::min(row_end, links[l].size());
        if (row_begin >= end)
            throw std::invalid_argument(
                "link_baselines: empty calibration row window");
        std::array<double, data::kNumSubcarriers> sum{};
        std::array<double, data::kNumSubcarriers> cnt{};
        for (std::size_t i = row_begin; i < end; ++i) {
            const auto& csi = links[l][i].csi;
            for (std::size_t k = 0; k < sum.size(); ++k) {
                const double a = static_cast<double>(csi[k]);
                if (std::isfinite(a)) {
                    sum[k] += a;
                    cnt[k] += 1.0;
                }
            }
        }
        for (std::size_t k = 0; k < sum.size(); ++k)
            mu[l][k] = cnt[k] > 0.0 ? sum[k] / cnt[k] : 0.0;
    }
    return mu;
}

std::uint64_t next_draw(std::uint64_t& h) {
    h = common::splitmix64(h + 0x9E3779B97F4A7C15ull);
    return h;
}

double uniform01(std::uint64_t v) {
    return static_cast<double>(v >> 11) * 0x1.0p-53;
}

/// CSI repair follows the validator's defaults (5 s donor age, at most half
/// the subcarriers bad).
constexpr data::ValidationPolicy kCsiRepair{};

DetectorConfig with_features(DetectorConfig c, data::FeatureSet features) {
    c.features = features;
    return c;
}

double clamp01(double v) {
    if (!(v > 0.0)) return 0.0;  // also maps NaN to 0
    return v < 1.0 ? v : 1.0;
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

/// One clamped model inference, timed into resilient.predict_us when
/// metrics are on.
// wifisense-lint: allow-call(trace_now_ns) env-gated observability: the latency clock reads bracket predict_proba and never feed back into the decision
double timed_predict(OccupancyDetector& model, const data::SampleRecord& r) {
    const std::uint64_t t0 =
        common::metrics_enabled() ? common::trace_now_ns() : 0;
    const double p = clamp01(model.predict_proba(r));
    if (t0 != 0)
        note_predict_latency(
            r.timestamp,
            static_cast<double>(common::trace_now_ns() - t0) * 1e-3);
    return p;
}

}  // namespace

std::string to_string(FusionTier tier) { return tier_label(tier); }

MultiLinkDetector::MultiLinkDetector(MultiLinkConfig cfg)
    : cfg_(cfg),
      full_(with_features(cfg.full, data::FeatureSet::kCsiEnv)),
      fallback_(with_features(cfg.fallback, data::FeatureSet::kEnv)),
      health_(cfg.n_links == 0 ? 1 : cfg.n_links, cfg.link_health),
      csi_health_(cfg.csi_health),
      env_health_(cfg.env_health),
      donors_(cfg.n_links) {
    if (cfg_.n_links == 0)
        throw std::invalid_argument("MultiLinkDetector: zero links");
    if (cfg_.link_health_floor < 0.0 || cfg_.link_health_floor > 1.0 ||
        cfg_.csi_health_floor < 0.0 || cfg_.csi_health_floor > 1.0)
        throw std::invalid_argument(
            "MultiLinkDetector: health floor outside [0,1]");
    if (cfg_.stale_confidence_tau_s <= 0.0)
        throw std::invalid_argument("MultiLinkDetector: non-positive stale tau");
}

nn::TrainHistory MultiLinkDetector::fit(const data::DatasetView& fused_train) {
    const nn::TrainHistory history = full_.fit(fused_train);
    fallback_.fit(fused_train);
    // One single-record predict per model sizes its workspaces here, so the
    // first decision of each tier does not allocate.
    const data::SampleRecord warm;
    (void)full_.predict_proba(warm);
    (void)fallback_.predict_proba(warm);
    fitted_ = true;
    return history;
}

common::Status MultiLinkDetector::calibrate_links(
    std::span<const data::Dataset> links, std::size_t row_begin,
    std::size_t row_end) {
    if (links.size() != cfg_.n_links)
        return common::Status(
            common::StatusCode::kInvalidArgument,
            "MultiLinkDetector::calibrate_links: link count != configured "
            "links");
    // Validated up front so link_baselines' throwing guard stays unreachable
    // and a failed call leaves the previous calibration intact.
    for (const auto& d : links)
        if (row_begin >= std::min(row_end, d.size()))
            return common::Status(
                common::StatusCode::kInvalidArgument,
                "MultiLinkDetector::calibrate_links: empty calibration row "
                "window");
    link_mu_ = link_baselines(links, row_begin, row_end);
    all_mu_.fill(0.0);
    for (const auto& m : link_mu_)
        for (std::size_t k = 0; k < all_mu_.size(); ++k) all_mu_[k] += m[k];
    for (double& v : all_mu_) v /= static_cast<double>(cfg_.n_links);
    calibrated_ = true;
    return common::Status::ok();
}

void MultiLinkDetector::reset_stream() {
    health_.reset();
    csi_health_.reset();
    env_health_.reset();
    stats_ = FusionStats{};
    for (data::CsiDonor& donor : donors_) donor.valid = false;
    has_last_env_ = false;
    has_last_decision_ = false;
    last_decision_p_ = 0.5;
    prev_tier_ = FusionTier::kStaleHold;
    has_prev_tier_ = false;
    prev_voting_mask_ = 0;
}

// wifisense-lint: requires(noalloc, noexcept)
// wifisense-lint: allow-call(obs_gauge) env-gated observability: gauge registration runs once per process behind function-local statics
FusionDecision MultiLinkDetector::process(const MultiLinkObservation& obs) {
    if (!fitted_)
        // wifisense-lint: allow(ipa.throw-leak) precondition guard: fires only
        // when process() is called before fit(), never on data content
        throw std::logic_error("MultiLinkDetector::process: not fitted");
    if (obs.links.size() != cfg_.n_links)
        // wifisense-lint: allow(ipa.throw-leak) precondition guard: fires only
        // on caller API misuse (wrong links span length), never on data content
        throw std::invalid_argument(
            "MultiLinkDetector: observation link count != configured links");
    ++stats_.observations;
    const double t = obs.timestamp;

    // ---- CSI triage per link: repair from the link's own donor, then vote.
    // Health is observed BEFORE gating so a recovering link earns its vote
    // back; with one link there is no fused mean to protect, so no gate.
    std::array<double, data::kNumSubcarriers> sum{};
    std::array<double, data::kNumSubcarriers> mu_used{};
    std::uint32_t used = 0;
    std::uint64_t voting_mask = 0;
    bool csi_repaired = false;
    std::array<float, data::kNumSubcarriers> repaired{};  // copy of a bad frame
    for (std::size_t l = 0; l < obs.links.size(); ++l) {
        const LinkFrame& f = obs.links[l];
        const std::array<float, data::kNumSubcarriers>* frame = &f.csi;
        bool usable = false;
        if (f.present) {
            ++stats_.link_frames_seen;
            std::size_t bad = 0;
            for (const float a : f.csi)
                if (!std::isfinite(a)) ++bad;
            usable = bad == 0;
            if (!usable) {
                repaired = f.csi;
                usable = data::forward_fill_csi(repaired, bad, t, donors_[l],
                                                kCsiRepair);
                if (usable) {
                    frame = &repaired;
                    csi_repaired = true;
                    ++stats_.csi_frames_repaired;
                    stats_.csi_values_imputed += bad;
                }
            }
        }
        health_.observe(l, t, usable);
        if (usable) donors_[l] = data::CsiDonor{true, t, *frame};
        const bool voting =
            usable && (cfg_.n_links == 1 ||
                       (health_.link(l).health() >= cfg_.link_health_floor &&
                        !health_.link(l).stale(t)));
        if (f.present && !voting) ++stats_.link_frames_rejected;
        if (!voting) continue;
        if (l < 64) voting_mask |= std::uint64_t{1} << l;
        for (std::size_t k = 0; k < sum.size(); ++k)
            sum[k] += static_cast<double>((*frame)[k]);
        if (calibrated_)
            for (std::size_t k = 0; k < mu_used.size(); ++k)
                mu_used[k] += link_mu_[l][k];
        ++used;
    }
    csi_health_.observe(t, used > 0);

    // ---- Env triage: fresh reading, else forward-hold within budget. -------
    const bool env_fresh = obs.has_env && std::isfinite(obs.temperature_c) &&
                           std::isfinite(obs.humidity_pct);
    env_health_.observe(t, env_fresh);
    data::SampleRecord r;
    r.timestamp = t;
    r.temperature_c = obs.temperature_c;
    r.humidity_pct = obs.humidity_pct;
    bool env_held = false;
    if (env_fresh) {
        last_temp_ = r.temperature_c;
        last_hum_ = r.humidity_pct;
        last_env_t_ = t;
        has_last_env_ = true;
    } else if (has_last_env_ && t - last_env_t_ <= cfg_.env_staleness_budget_s) {
        r.temperature_c = last_temp_;
        r.humidity_pct = last_hum_;
        env_held = true;
        ++stats_.env_ticks_held;
    }
    const bool env_usable = env_fresh || env_held;

    // ---- Tier policy. ------------------------------------------------------
    FusionDecision out;
    DetectorDecision& d = out.base;
    d.csi_health = csi_health_.health();
    d.env_health = env_health_.health();
    d.csi_repaired = csi_repaired;
    d.env_held = env_held;
    out.links_used = used;
    out.mean_link_health = health_.mean_health();

    if (used > 0 && env_usable && d.csi_health >= cfg_.csi_health_floor) {
        // Subset re-centering (header comment): shift the survivors' mean
        // onto the all-link baseline. Skipped at full fusion so that path
        // stays bitwise identical with and without calibration.
        const bool recenter = calibrated_ && used < cfg_.n_links;
        const double dn = static_cast<double>(used);
        for (std::size_t k = 0; k < sum.size(); ++k) {
            double v = sum[k] / dn;
            if (recenter) v += all_mu_[k] - mu_used[k] / dn;
            r.csi[k] = static_cast<float>(v);
        }
        out.tier = used >= cfg_.n_links ? FusionTier::kFullFusion
                   : used == 1          ? FusionTier::kSingleLink
                                        : FusionTier::kSubsetFusion;
        d.probability = timed_predict(full_, r);
        d.confidence = clamp01(2.0 * std::abs(d.probability - 0.5) * d.csi_health);
        // Confidence decays with the surviving-link count: the fused frame
        // is a mean of `used` looks at the room where the model trained on
        // n_links, so scale by sqrt(used/n) (standard-error growth of a mean
        // losing terms).
        if (out.tier != FusionTier::kFullFusion) {
            const double scale = std::sqrt(static_cast<double>(used) /
                                           static_cast<double>(cfg_.n_links));
            d.confidence = std::clamp(d.confidence * scale, 0.0, 1.0);
        }
    } else if (env_usable) {
        out.tier = FusionTier::kEnvOnly;
        d.probability = timed_predict(fallback_, r);
        d.confidence = clamp01(2.0 * std::abs(d.probability - 0.5) * d.env_health);
    } else {
        // Both streams dark: hold the last model-backed estimate, shrinking
        // it toward the 0.5 prior so a long outage converges to "don't know"
        // instead of confidently repeating stale state.
        out.tier = FusionTier::kStaleHold;
        if (has_last_decision_) {
            const double age = std::max(0.0, t - last_decision_t_);
            const double decay = std::exp(-age / cfg_.stale_confidence_tau_s);
            d.probability = clamp01(0.5 + (last_decision_p_ - 0.5) * decay);
            d.confidence = clamp01(2.0 * std::abs(d.probability - 0.5));
        }
    }
    switch (out.tier) {
        case FusionTier::kFullFusion: ++stats_.full_fusion; break;
        case FusionTier::kSubsetFusion: ++stats_.subset_fusion; break;
        case FusionTier::kSingleLink: ++stats_.single_link; break;
        case FusionTier::kEnvOnly: ++stats_.env_only; break;
        case FusionTier::kStaleHold: ++stats_.stale_hold; break;
    }
    if (out.tier != FusionTier::kStaleHold) {
        has_last_decision_ = true;
        last_decision_t_ = t;
        last_decision_p_ = d.probability;
    }
    d.prediction = d.probability > 0.5 ? 1 : 0;

    // Observability, never fed back into the decision: the health gauges
    // every tick, and the one transition hook — a flight event per tier
    // change plus one per link vote flip, so a snapshot's recorder tail
    // replays the degradation walk.
    if (common::metrics_enabled() || common::trace_enabled()) {
        static common::Gauge& csi_gauge = common::obs_gauge("resilient.csi_health");
        static common::Gauge& env_gauge = common::obs_gauge("resilient.env_health");
        csi_gauge.set(d.csi_health);
        env_gauge.set(d.env_health);
    }
    if (common::flight_enabled()) {
        if (!has_prev_tier_ || prev_tier_ != out.tier)
            common::flight_record("tier", tier_label(out.tier), t,
                                  static_cast<double>(used),
                                  static_cast<double>(out.tier));
        const std::uint64_t flips = voting_mask ^ prev_voting_mask_;
        if (has_prev_tier_ && flips != 0) {
            for (std::size_t l = 0; l < cfg_.n_links && l < 64; ++l) {
                if ((flips >> l) & 1u)
                    common::flight_record(
                        "link", ((voting_mask >> l) & 1u) != 0 ? "up" : "down",
                        t, static_cast<double>(l), health_.link(l).health());
            }
        }
    }
    prev_tier_ = out.tier;
    has_prev_tier_ = true;
    prev_voting_mask_ = voting_mask;
    return out;
}

data::Dataset fused_dataset(std::span<const data::Dataset> links) {
    if (links.empty())
        throw std::invalid_argument("fused_dataset: no link datasets");
    const std::size_t n = links[0].size();
    for (const auto& d : links) {
        if (d.size() != n)
            throw std::invalid_argument(
                "fused_dataset: link datasets differ in length");
    }
    data::Dataset out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        data::SampleRecord rec = links[0][i];
        std::array<double, data::kNumSubcarriers> sum{};
        for (const auto& d : links) {
            if (d[i].timestamp != rec.timestamp)
                throw std::invalid_argument(
                    "fused_dataset: link timestamps disagree");
            for (std::size_t k = 0; k < sum.size(); ++k)
                sum[k] += static_cast<double>(d[i].csi[k]);
        }
        for (std::size_t k = 0; k < sum.size(); ++k)
            rec.csi[k] = static_cast<float>(sum[k] /
                                            static_cast<double>(links.size()));
        out.push_back(rec);
    }
    return out;
}

data::Dataset link_dropout_fused(std::span<const data::Dataset> links,
                                 std::size_t row_begin, std::size_t row_end,
                                 std::uint64_t seed, double full_fraction) {
    if (links.empty())
        throw std::invalid_argument("link_dropout_fused: no link datasets");
    const std::size_t n_links = links.size();
    const std::size_t n = links[0].size();
    for (const auto& d : links) {
        if (d.size() != n)
            throw std::invalid_argument(
                "link_dropout_fused: link datasets differ in length");
    }
    const std::size_t end = std::min(row_end, n);
    if (row_begin >= end)
        throw std::invalid_argument("link_dropout_fused: empty row window");

    const auto mu = link_baselines(links, row_begin, end);
    std::array<double, data::kNumSubcarriers> all_mu{};
    for (const auto& m : mu)
        for (std::size_t k = 0; k < all_mu.size(); ++k) all_mu[k] += m[k];
    for (double& v : all_mu) v /= static_cast<double>(n_links);

    data::Dataset out;
    out.reserve(end - row_begin);
    std::vector<std::size_t> order(n_links);
    for (std::size_t i = row_begin; i < end; ++i) {
        data::SampleRecord rec = links[0][i];
        // Subset draw: pure function of (seed, row) via its own substream.
        std::uint64_t h = common::substream_seed(seed, i);
        std::size_t used = n_links;
        std::iota(order.begin(), order.end(), std::size_t{0});
        if (n_links > 1 && uniform01(next_draw(h)) >= full_fraction) {
            used = 1 + static_cast<std::size_t>(next_draw(h) % (n_links - 1));
            for (std::size_t j = 0; j + 1 < n_links && j < used; ++j) {
                const std::size_t pick =
                    j + static_cast<std::size_t>(next_draw(h) % (n_links - j));
                std::swap(order[j], order[pick]);
            }
        }

        std::array<double, data::kNumSubcarriers> sum{};
        std::array<double, data::kNumSubcarriers> mu_used{};
        for (std::size_t j = 0; j < used; ++j) {
            const data::SampleRecord& src = links[order[j]][i];
            if (src.timestamp != rec.timestamp)
                throw std::invalid_argument(
                    "link_dropout_fused: link timestamps disagree");
            for (std::size_t k = 0; k < sum.size(); ++k) {
                sum[k] += static_cast<double>(src.csi[k]);
                mu_used[k] += mu[order[j]][k];
            }
        }
        // Same mean + re-centering arithmetic as the inference path.
        const double dn = static_cast<double>(used);
        for (std::size_t k = 0; k < sum.size(); ++k) {
            double v = sum[k] / dn;
            if (used < n_links) v += all_mu[k] - mu_used[k] / dn;
            rec.csi[k] = static_cast<float>(v);
        }
        out.push_back(rec);
    }
    return out;
}

}  // namespace wifisense::core
