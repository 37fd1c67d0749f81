// Robustness curve: occupancy-detection accuracy on Table IV fold 1 as the
// sensing pipeline degrades. The same trained one-link MultiLinkDetector
// (full CSI+Env model + Env-only fallback + stale-hold policy) is evaluated
// under fault intensities of 0 / 1 / 5 / 10 / 25 %, where intensity x% scales a
// reference fault mix (frame drops, NaN/Inf/saturation corruption,
// subcarrier dropout, outage bursts, env-sensor stalls) by x/100. The
// 0%-point must match the plain detector bitwise — fault decision streams
// are independent of the world RNG by construction.
#include <algorithm>
#include <cstdio>
#include <span>

#include "bench_common.hpp"
#include "common/fault.hpp"
#include "core/link_fusion.hpp"
#include "envsim/simulation.hpp"

namespace {

/// Reference mix at intensity 100%: dominated by frame loss, with corruption
/// and windowed faults riding along. At the bench's 25% ceiling this means
/// 25% dropped frames, ~12% corrupted-or-holed frames, one ~1 min outage
/// burst per hour and one sensor stall every two hours.
wifisense::common::FaultConfig reference_mix() {
    wifisense::common::FaultConfig f;
    f.frame_drop_rate = 1.0;
    f.nan_rate = 0.25;
    f.inf_rate = 0.05;
    f.saturate_rate = 0.10;
    f.subcarrier_dropout_rate = 0.25;
    f.burst_rate_per_h = 4.0;
    f.burst_len_s = 60.0;
    f.env_stall_rate_per_h = 2.0;
    f.env_stall_len_s = 180.0;
    f.seed = 0x5eed;
    return f;
}

struct FaultyEvalResult {
    double accuracy_pct = 0.0;
    double full_frac = 0.0;
    double env_only_frac = 0.0;
    double stale_frac = 0.0;
};

/// Stream a test fold through the detector with the fault plan applied on
/// top of the clean records (drops/bursts withhold the frame, corruption
/// mangles amplitudes, stalls withhold env readings).
FaultyEvalResult evaluate_under_faults(wifisense::core::MultiLinkDetector& det,
                                       const wifisense::data::DatasetView& fold,
                                       const wifisense::common::FaultPlan& plan,
                                       double full_scale) {
    using namespace wifisense;
    FaultyEvalResult r;
    std::uint64_t correct = 0;
    for (std::size_t i = 0; i < fold.size(); ++i) {
        const data::SampleRecord& rec = fold[i];
        core::LinkFrame frame;
        core::MultiLinkObservation obs;
        obs.timestamp = rec.timestamp;
        obs.links = std::span<const core::LinkFrame>(&frame, 1);

        const common::PacketFault fault = plan.packet_fault(i);
        const bool lost =
            plan.active() && (fault.dropped || plan.csi_offline(rec.timestamp));
        if (!lost) {
            frame.present = true;
            frame.csi = rec.csi;
            if (fault.any())
                common::apply_packet_fault(
                    frame.csi, fault, full_scale,
                    plan.config().subcarrier_dropout_fraction);
        }

        if (!plan.env_stalled(rec.timestamp)) {
            obs.has_env = true;
            obs.temperature_c = rec.temperature_c;
            obs.humidity_pct = rec.humidity_pct;
        }

        const core::FusionDecision d = det.process(obs);
        if (d.base.prediction == static_cast<int>(rec.occupancy)) ++correct;
        switch (d.tier) {
            case core::FusionTier::kEnvOnly: r.env_only_frac += 1.0; break;
            case core::FusionTier::kStaleHold: r.stale_frac += 1.0; break;
            default: r.full_frac += 1.0; break;  // one link: full fusion
        }
    }
    const double n = static_cast<double>(fold.size());
    r.accuracy_pct = 100.0 * static_cast<double>(correct) / n;
    r.full_frac /= n;
    r.env_only_frac /= n;
    r.stale_frac /= n;
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace wifisense;
    bench::configure_observability(argc, argv);
    bench::print_header("robustness - accuracy vs fault intensity (fold 1)");
    bench::BenchReport report("robustness");

    const data::Dataset ds = bench::generate_dataset();
    report.set_rows(ds.size());
    report.metric("generate_s", report.elapsed_s());
    const data::FoldSplit split = data::split_paper_folds(ds);
    const data::DatasetView fold1 = split.test[0];

    core::MultiLinkConfig cfg;
    cfg.n_links = 1;
    cfg.full.train_stride = std::max<std::size_t>(1, split.train.size() / 25000);
    cfg.fallback.train_stride = cfg.full.train_stride;

    const std::uint64_t t0 = common::trace_now_ns();
    core::MultiLinkDetector det(cfg);
    det.fit(split.train);
    report.metric("train_s", common::trace_seconds_since(t0));

    // Reference point: the plain full model on the clean fold (what
    // bench_table4's MLP/CSI+Env fold-1 cell reports).
    report.metric("acc_pct_plain_full_model",
                  100.0 * det.full_model().evaluate_accuracy(fold1));

    const double full_scale = envsim::paper_config().receiver.full_scale;
    const common::FaultConfig base = reference_mix();
    constexpr int kLevels[] = {0, 1, 5, 10, 25};

    std::printf("fault%%   accuracy   full    env-only  stale\n");
    for (const int pct : kLevels) {
        const common::FaultPlan plan(base.scaled(pct / 100.0));
        // Same trained weights at every level; only the stream state (health
        // EWMAs, fill donors, backoff) resets so levels stay independent.
        det.reset_stream();
        const FaultyEvalResult r =
            evaluate_under_faults(det, fold1, plan, full_scale);
        std::printf("%5d   %7.2f%%  %5.1f%%   %5.1f%%   %5.1f%%\n", pct,
                    r.accuracy_pct, 100.0 * r.full_frac,
                    100.0 * r.env_only_frac, 100.0 * r.stale_frac);
        char key[64];
        std::snprintf(key, sizeof(key), "acc_pct_fault_%02d", pct);
        report.metric(key, r.accuracy_pct);
        std::snprintf(key, sizeof(key), "mode_full_frac_%02d", pct);
        report.metric(key, r.full_frac);
        std::snprintf(key, sizeof(key), "mode_env_only_frac_%02d", pct);
        report.metric(key, r.env_only_frac);
        std::snprintf(key, sizeof(key), "mode_stale_frac_%02d", pct);
        report.metric(key, r.stale_frac);
    }

    report.write();
    std::printf(
        "\nexpected shape: the 0%% point equals the plain CSI+Env model;\n"
        "accuracy degrades smoothly with fault intensity instead of\n"
        "collapsing — frame repair absorbs light corruption, the Env-only\n"
        "fallback (~93-98%% on fold 1 per Table IV) catches outage bursts.\n");
    return 0;
}
