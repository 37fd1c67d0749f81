// Multi-link degradation curve: occupancy-detection accuracy on fold 1 as
// receiver links die. A 4-link collection (one room, four receivers) is
// fused for training; at evaluation time every surviving link's records are
// framed by a LinkEncoder and served through core::Pipeline (decode,
// reassemble, join, fuse), so the curve measures the deployed pipeline, not
// an idealized one. Levels kill 3 / 2 / 1 / 0 of the 4 links (highest ids
// first; link 0 is the paper's receiver), walking the fusion ladder from
// kSingleLink up to kFullFusion.
//
// Hard invariants (exit 1 on violation): every decision carries its own
// instant's time (frames are joined by sequence number), and on a clean
// wire full-fusion accuracy is at least single-link accuracy — fusing four
// independent looks at the room must not be worse than the best the
// paper's single receiver does alone.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/telemetry/sliding_window.hpp"
#include "core/link_fusion.hpp"
#include "core/pipeline.hpp"
#include "data/telemetry.hpp"
#include "envsim/simulation.hpp"

namespace {

constexpr std::size_t kLinks = 4;

/// Scores each decided instant of fold 1 against link 0's record.
struct LevelScore final : wifisense::core::DecisionSink {
    const wifisense::data::SampleRecord* fold = nullptr;
    std::size_t n = 0;
    std::uint64_t correct = 0;
    /// Decisions whose time is not their own instant's (must be 0).
    std::uint64_t misaligned = 0;

    void on_decision(std::uint32_t seq,
                     const wifisense::core::MultiLinkObservation& obs,
                     const wifisense::core::FusionDecision& d) override {
        if (seq >= n || obs.timestamp != fold[seq].timestamp)
            ++misaligned;
        else if (d.base.prediction == static_cast<int>(fold[seq].occupancy))
            ++correct;
    }
};

}  // namespace

int main(int argc, char** argv) {
    using namespace wifisense;
    bench::configure_observability(argc, argv);
    bench::print_header("multi-link - accuracy vs links down (fold 1)");
    bench::BenchReport report("multilink");

    // Optional wire fault injection: --fault-plan=SPEC (or the
    // WIFISENSE_BENCH_FAULTS environment variable) feeds every link's
    // encoder a common::FaultPlan; the default run stays byte-identical.
    common::FaultPlan faults;
    {
        const char* spec = std::getenv("WIFISENSE_BENCH_FAULTS");
        for (int i = 1; i < argc; ++i)
            if (std::strncmp(argv[i], "--fault-plan=", 13) == 0)
                spec = argv[i] + 13;
        if (spec != nullptr && spec[0] != '\0') {
            auto parsed = common::parse_fault_spec(spec);
            if (!parsed.is_ok()) {
                std::fprintf(stderr, "bench_multilink: %s\n",
                             parsed.status().to_string().c_str());
                return 2;
            }
            faults = common::FaultPlan(parsed.value());
            std::printf("fault plan: %s\n\n",
                        common::to_spec(faults.config()).c_str());
        }
    }

    // 4-link collection over the paper timeline.
    const double rate = bench::bench_rate();
    envsim::SimulationConfig cfg = envsim::paper_config(rate);
    const std::vector<csi::Vec3> positions =
        envsim::default_link_positions(cfg.room, kLinks);
    cfg.extra_rx.assign(positions.begin() + 1, positions.end());

    std::printf("generating %zu-link collection: 74.5 h @ %.2f Hz (%zu threads) ...\n",
                kLinks, rate, common::thread_count());
    const std::uint64_t tg = common::trace_now_ns();
    std::vector<data::Dataset> links(kLinks);
    envsim::OfficeSimulator sim(cfg);
    sim.run_links([&](std::uint8_t link, const data::SampleRecord& rec) {
        links[link].push_back(rec);
    });
    std::printf("  %zu samples x %zu links in %.1f s\n\n", links[0].size(),
                kLinks, common::trace_seconds_since(tg));
    report.set_rows(links[0].size() * kLinks);
    report.metric("generate_s", report.elapsed_s());

    const data::Dataset fused = core::fused_dataset(links);
    const data::FoldSplit split = data::split_paper_folds(fused);
    const data::DatasetView fold1 = split.test[0];
    const std::size_t base = static_cast<std::size_t>(
        fold1.records().data() - fused.records().data());
    const std::size_t n = fold1.size();

    core::MultiLinkConfig mcfg;
    mcfg.n_links = kLinks;
    mcfg.full.train_stride =
        std::max<std::size_t>(1, split.train.size() / 25000);
    mcfg.fallback.train_stride = mcfg.full.train_stride;

    const std::uint64_t t0 = common::trace_now_ns();
    core::MultiLinkDetector det(mcfg);
    // Link-dropout-augmented training + per-link amplitude baselines: the
    // model sees every fusion tier at its deployed (re-centered)
    // distribution, and degraded inference re-centers the survivors' mean
    // onto the all-link baseline the model trained on (full fusion frames
    // are fused exactly as fused_dataset builds them).
    det.calibrate_links(links, 0, split.train.size()).throw_if_error();
    const data::Dataset aug_train =
        core::link_dropout_fused(links, 0, split.train.size());
    det.fit(aug_train.view());
    report.metric("train_s", common::trace_seconds_since(t0));

    double acc[kLinks] = {0.0, 0.0, 0.0, 0.0};
    const common::FaultPlan* plan = faults.active() ? &faults : nullptr;
    LevelScore score;
    score.fold = fold1.records().data();
    score.n = n;
    core::Pipeline pipeline(det, score);
    std::vector<std::uint8_t> chunk;
    std::printf("links-down  alive  accuracy   full    subset  single  other\n");
    // Levels run from one link up to all four. reset() makes them
    // independent, so the order moves no number; it only decides what the
    // flight recorder keeps: under --fault-plan the last level (every link,
    // real outages) walks full -> subset -> single inside the exported tail.
    // Every level replays fold 1 with the same timestamps, so the
    // stream-time latency window restarts with each level too; otherwise
    // levels 2-4 would arrive in its past and drop as late.
    for (std::size_t alive = 1; alive <= kLinks; ++alive) {
        const std::size_t down = kLinks - alive;
        pipeline.reset();
        score.correct = 0;
        if (common::metrics_enabled())
            common::obs_window("resilient.predict_us",
                               {.reservoir = common::kLatencyReservoir})
                .reset();
        // Encoders number the fold rows 0..n-1; bytes go in instant by instant.
        std::vector<data::LinkEncoder> encoders;
        encoders.reserve(alive);
        for (std::size_t l = 0; l < alive; ++l)
            encoders.emplace_back(static_cast<std::uint8_t>(l), /*channel=*/6, plan);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t l = 0; l < alive; ++l) {
                chunk.clear();
                encoders[l].encode(links[l][base + i], chunk);
                if (i + 1 == n) encoders[l].flush(chunk);
                pipeline.push(l, chunk);
            }
        }
        pipeline.finish();
        std::uint64_t frames_decoded = 0;
        for (std::size_t l = 0; l < alive; ++l)
            frames_decoded += pipeline.decoder(l).stats().frames_decoded;
        const core::FusionStats& st = det.stats();
        const double dn = static_cast<double>(n);
        acc[down] = 100.0 * static_cast<double>(score.correct) / dn;
        const double full = static_cast<double>(st.full_fusion) / dn;
        const double subset = static_cast<double>(st.subset_fusion) / dn;
        const double single = static_cast<double>(st.single_link) / dn;
        const double other = static_cast<double>(
            n - st.full_fusion - st.subset_fusion - st.single_link) / dn;
        std::printf("%9zu  %5zu  %7.2f%%  %5.1f%%  %5.1f%%  %5.1f%%  %5.1f%%\n",
                    down, alive, acc[down], 100.0 * full, 100.0 * subset,
                    100.0 * single, 100.0 * other);
        char key[64];
        std::snprintf(key, sizeof(key), "acc_pct_links_down_%zu", down);
        report.metric(key, acc[down]);
        std::snprintf(key, sizeof(key), "tier_full_frac_%zu", down);
        report.metric(key, full);
        std::snprintf(key, sizeof(key), "tier_subset_frac_%zu", down);
        report.metric(key, subset);
        std::snprintf(key, sizeof(key), "tier_single_frac_%zu", down);
        report.metric(key, single);
        std::snprintf(key, sizeof(key), "wire_frames_decoded_%zu", down);
        report.metric(key, static_cast<double>(frames_decoded));
    }

    report.write();

    if (score.misaligned > 0) {
        std::fprintf(stderr,
                     "FAIL: %llu decisions carry another instant's time — "
                     "frames must be joined by sequence number\n",
                     static_cast<unsigned long long>(score.misaligned));
        return 1;
    }
    // The ordering invariant is a clean-wire property; an injected fault plan
    // degrades tiers non-uniformly, so the gate applies to default runs only.
    if (!faults.active() && acc[0] < acc[kLinks - 1]) {
        std::fprintf(stderr,
                     "FAIL: full fusion (%.2f%%) is worse than single link "
                     "(%.2f%%) — fusing %zu looks at the room must not lose "
                     "to one\n",
                     acc[0], acc[kLinks - 1], kLinks);
        return 1;
    }
    std::printf(
        "\nexpected shape: accuracy decays gracefully as links die; the\n"
        "0-down point (full fusion over %zu links) stays at or above the\n"
        "3-down point (the paper's single receiver through the same wire).\n",
        kLinks);
    return 0;
}
