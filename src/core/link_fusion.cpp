#include "core/link_fusion.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/telemetry/flight_recorder.hpp"

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

}  // namespace

std::string to_string(FusionTier tier) { return tier_label(tier); }

MultiLinkDetector::MultiLinkDetector(MultiLinkConfig cfg)
    : cfg_(cfg),
      detector_(cfg.resilient),
      health_(cfg.n_links == 0 ? 1 : cfg.n_links, cfg.link_health) {
    if (cfg_.n_links == 0)
        throw std::invalid_argument("MultiLinkDetector: zero links");
    if (cfg_.link_health_floor < 0.0 || cfg_.link_health_floor > 1.0)
        throw std::invalid_argument(
            "MultiLinkDetector: link_health_floor outside [0,1]");
}

nn::TrainHistory MultiLinkDetector::fit(const data::DatasetView& fused_train) {
    return detector_.fit(fused_train);
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
    detector_.reset_stream();
    health_.reset();
    stats_ = FusionStats{};
    prev_tier_ = FusionTier::kStaleHold;
    has_prev_tier_ = false;
    prev_voting_mask_ = 0;
}

// wifisense-lint: requires(noalloc, noexcept)
FusionDecision MultiLinkDetector::process(const MultiLinkObservation& obs) {
    if (obs.links.size() != cfg_.n_links)
        // wifisense-lint: allow(ipa.throw-leak) precondition guard: fires only
        // on caller API misuse (wrong links span length), never on data content
        throw std::invalid_argument(
            "MultiLinkDetector: observation link count != configured links");
    stats_.observations++;

    // Which links get a vote this instant: a present, all-finite frame from
    // a link whose validity EWMA is above the floor and not stale. Health is
    // observed BEFORE gating so a recovering link earns its vote back.
    std::array<double, data::kNumSubcarriers> sum{};
    std::array<double, data::kNumSubcarriers> mu_used{};
    std::uint32_t used = 0;
    std::uint64_t voting_mask = 0;
    for (std::size_t l = 0; l < obs.links.size(); ++l) {
        const LinkFrame& f = obs.links[l];
        bool finite = f.present;
        if (f.present) {
            stats_.link_frames_seen++;
            for (const float a : f.csi) {
                if (!std::isfinite(a)) {
                    finite = false;
                    break;
                }
            }
        }
        health_.observe(l, obs.timestamp, finite);
        const bool voting = finite &&
                            health_.link(l).health() >= cfg_.link_health_floor &&
                            !health_.link(l).stale(obs.timestamp);
        if (f.present && !voting) stats_.link_frames_rejected++;
        if (!voting) continue;
        if (l < 64) voting_mask |= std::uint64_t{1} << l;
        for (std::size_t k = 0; k < sum.size(); ++k)
            sum[k] += static_cast<double>(f.csi[k]);
        if (calibrated_)
            for (std::size_t k = 0; k < mu_used.size(); ++k)
                mu_used[k] += link_mu_[l][k];
        used++;
    }

    Observation fused;
    fused.timestamp = obs.timestamp;
    fused.has_env = obs.has_env;
    fused.temperature_c = obs.temperature_c;
    fused.humidity_pct = obs.humidity_pct;
    fused.has_csi = used > 0;
    if (used > 0) {
        // Subset re-centering (header comment): shift the survivors' mean
        // onto the all-link baseline. Skipped at full fusion so that path
        // stays bitwise identical with and without calibration.
        const bool recenter = calibrated_ && used < cfg_.n_links;
        const double dn = static_cast<double>(used);
        for (std::size_t k = 0; k < sum.size(); ++k) {
            double v = sum[k] / dn;
            if (recenter) v += all_mu_[k] - mu_used[k] / dn;
            fused.csi[k] = static_cast<float>(v);
        }
    }

    FusionDecision out;
    out.base = detector_.process(fused);
    out.links_used = used;
    out.mean_link_health = health_.mean_health();

    if (out.base.mode == DetectorMode::kEnvOnly) {
        out.tier = FusionTier::kEnvOnly;
        stats_.env_only++;
    } else if (out.base.mode == DetectorMode::kStaleHold) {
        out.tier = FusionTier::kStaleHold;
        stats_.stale_hold++;
    } else if (used >= cfg_.n_links) {
        out.tier = FusionTier::kFullFusion;
        stats_.full_fusion++;
    } else if (used == 1) {
        out.tier = FusionTier::kSingleLink;
        stats_.single_link++;
    } else {
        out.tier = FusionTier::kSubsetFusion;
        stats_.subset_fusion++;
    }

    // Confidence decays with the surviving-link count: the fused frame is a
    // mean of `used` looks at the room where the model trained on n_links, so
    // scale by sqrt(used/n) (standard-error growth of a mean losing terms).
    if (out.tier == FusionTier::kSubsetFusion ||
        out.tier == FusionTier::kSingleLink) {
        const double scale = std::sqrt(static_cast<double>(used) /
                                       static_cast<double>(cfg_.n_links));
        out.base.confidence =
            std::clamp(out.base.confidence * scale, 0.0, 1.0);
    }

    // Flight recorder: tier ladder transitions and per-link vote flips, so a
    // snapshot's recorder tail replays the degradation walk. Observational
    // only — never feeds back into the decision.
    if (common::flight_enabled()) {
        if (!has_prev_tier_ || prev_tier_ != out.tier)
            common::flight_record("tier", tier_label(out.tier), obs.timestamp,
                                  static_cast<double>(used),
                                  static_cast<double>(out.tier));
        const std::uint64_t flips = voting_mask ^ prev_voting_mask_;
        if (has_prev_tier_ && flips != 0) {
            for (std::size_t l = 0; l < cfg_.n_links && l < 64; ++l) {
                if ((flips >> l) & 1u)
                    common::flight_record(
                        "link", ((voting_mask >> l) & 1u) != 0 ? "up" : "down",
                        obs.timestamp, static_cast<double>(l),
                        health_.link(l).health());
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
