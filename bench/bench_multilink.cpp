// Multi-link degradation curve: occupancy-detection accuracy on fold 1 as
// receiver links die. A 4-link collection (one room, four receivers) is
// fused for training; at evaluation time every surviving link's records run
// the full telemetry wire path — LinkEncoder framing, TelemetryDecoder,
// LinkReassembler — before fusion, so the curve measures the deployed
// pipeline, not an idealized one. Levels kill 3 / 2 / 1 / 0 of the 4 links
// (highest ids first; link 0 is the paper's receiver), walking the fusion
// ladder from kSingleLink up to kFullFusion.
//
// Hard invariants (exit 1 on violation): every fused frame carries the
// record of its own instant (frames are joined by sequence number), and on
// a clean wire full-fusion accuracy is at least single-link accuracy —
// fusing four independent looks at the room must not be worse than the
// best the paper's single receiver does alone.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "bench_common.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/telemetry/sliding_window.hpp"
#include "core/link_fusion.hpp"
#include "data/link_ingest.hpp"
#include "data/telemetry.hpp"
#include "envsim/simulation.hpp"

namespace {

constexpr std::size_t kLinks = 4;

struct CollectFrames final : wifisense::data::WireSink {
    std::vector<wifisense::data::TelemetryFrame>* out;
    explicit CollectFrames(std::vector<wifisense::data::TelemetryFrame>& o)
        : out(&o) {}
    void on_frame(const wifisense::data::TelemetryFrame& f) override {
        out->push_back(f);
    }
};

struct LevelResult {
    double accuracy_pct = 0.0;
    double full_frac = 0.0;
    double subset_frac = 0.0;
    double single_frac = 0.0;
    double other_frac = 0.0;  ///< env-only + stale-hold
    std::uint64_t frames_decoded = 0;
    /// Fused frames whose record belongs to another instant (must be 0).
    std::uint64_t misaligned = 0;
};

/// Run fold rows [base, base+n) of each alive link through the wire
/// (encode -> decode -> reassemble), fuse per instant, and score. A non-null
/// fault plan injects wire/outage faults at the encoder (--fault-plan=SPEC).
LevelResult evaluate_links_down(
    wifisense::core::MultiLinkDetector& det,
    std::span<const wifisense::data::Dataset> links, std::size_t base,
    std::size_t n, std::size_t alive,
    const wifisense::common::FaultPlan* faults) {
    using namespace wifisense;
    LevelResult r;

    // Wire round-trip per alive link. Frames are joined to instants by
    // sequence number (the encoder numbers the fold rows 0..n-1), so a frame
    // lost to an outage or a CRC failure leaves a hole at its own instant
    // instead of shifting the link's later frames.
    std::vector<std::vector<data::TelemetryFrame>> frames(alive);
    for (std::size_t l = 0; l < alive; ++l) {
        data::LinkEncoder enc(static_cast<std::uint8_t>(l), /*channel=*/6,
                              faults);
        std::vector<std::uint8_t> stream;
        stream.reserve(n * data::kWireFrameBytes);
        for (std::size_t i = 0; i < n; ++i)
            enc.encode(links[l][base + i], stream);
        enc.flush(stream);

        frames[l].reserve(n);
        struct Reassembled final : data::FrameSink {
            std::vector<data::TelemetryFrame>* out;
            void on_frame(const data::TelemetryFrame& f) override {
                out->push_back(f);
            }
        } ordered;
        std::vector<data::TelemetryFrame> raw;
        raw.reserve(n);
        CollectFrames raw_collect(raw);
        data::TelemetryDecoder dec;
        dec.push(stream, raw_collect);
        dec.finish(raw_collect);
        r.frames_decoded += dec.stats().frames_decoded;

        data::LinkReassembler reasm;
        ordered.out = &frames[l];
        for (const data::TelemetryFrame& f : raw) reasm.push(f, ordered);
        reasm.flush(ordered);
    }

    std::vector<std::vector<const data::TelemetryFrame*>> by_seq(
        alive, std::vector<const data::TelemetryFrame*>(n, nullptr));
    for (std::size_t l = 0; l < alive; ++l)
        for (const data::TelemetryFrame& f : frames[l])
            if (f.sequence < n) by_seq[l][f.sequence] = &f;

    std::uint64_t correct = 0;
    std::vector<core::LinkFrame> obs_links(kLinks);
    for (std::size_t i = 0; i < n; ++i) {
        const data::SampleRecord& ref = links[0][base + i];
        for (std::size_t l = 0; l < kLinks; ++l) {
            obs_links[l] = core::LinkFrame{};
            const data::TelemetryFrame* f = l < alive ? by_seq[l][i] : nullptr;
            if (f != nullptr) {
                obs_links[l].present = true;
                obs_links[l].csi = f->record.csi;
                if (f->record.timestamp != ref.timestamp) ++r.misaligned;
            }
        }
        core::MultiLinkObservation obs;
        obs.timestamp = ref.timestamp;
        obs.has_env = true;
        obs.temperature_c = ref.temperature_c;
        obs.humidity_pct = ref.humidity_pct;
        obs.links = obs_links;

        const core::FusionDecision d = det.process(obs);
        if (d.base.prediction == static_cast<int>(ref.occupancy)) ++correct;
        switch (d.tier) {
            case core::FusionTier::kFullFusion: r.full_frac += 1.0; break;
            case core::FusionTier::kSubsetFusion: r.subset_frac += 1.0; break;
            case core::FusionTier::kSingleLink: r.single_frac += 1.0; break;
            default: r.other_frac += 1.0; break;
        }
    }
    const double dn = static_cast<double>(n);
    r.accuracy_pct = 100.0 * static_cast<double>(correct) / dn;
    r.full_frac /= dn;
    r.subset_frac /= dn;
    r.single_frac /= dn;
    r.other_frac /= dn;
    return r;
}

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
    mcfg.resilient.full.train_stride =
        std::max<std::size_t>(1, split.train.size() / 25000);
    mcfg.resilient.fallback.train_stride = mcfg.resilient.full.train_stride;

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
    std::uint64_t misaligned = 0;
    std::printf("links-down  alive  accuracy   full    subset  single  other\n");
    // Levels run from one link up to all four. reset_stream() makes them
    // independent, so the order moves no number; it only decides what the
    // flight recorder keeps: under --fault-plan the last level (every link,
    // real outages) walks full -> subset -> single inside the exported tail.
    // Every level replays fold 1 with the same timestamps, so the
    // stream-time latency window restarts with each level too; otherwise
    // levels 2-4 would arrive in its past and drop as late.
    for (std::size_t alive = 1; alive <= kLinks; ++alive) {
        const std::size_t down = kLinks - alive;
        det.reset_stream();
        if (common::metrics_enabled())
            common::obs_window("resilient.predict_us",
                               {.reservoir = common::kLatencyReservoir})
                .reset();
        const LevelResult r = evaluate_links_down(
            det, links, base, n, alive, faults.active() ? &faults : nullptr);
        acc[down] = r.accuracy_pct;
        misaligned += r.misaligned;
        std::printf("%9zu  %5zu  %7.2f%%  %5.1f%%  %5.1f%%  %5.1f%%  %5.1f%%\n",
                    down, alive, r.accuracy_pct, 100.0 * r.full_frac,
                    100.0 * r.subset_frac, 100.0 * r.single_frac,
                    100.0 * r.other_frac);
        char key[64];
        std::snprintf(key, sizeof(key), "acc_pct_links_down_%zu", down);
        report.metric(key, r.accuracy_pct);
        std::snprintf(key, sizeof(key), "tier_full_frac_%zu", down);
        report.metric(key, r.full_frac);
        std::snprintf(key, sizeof(key), "tier_subset_frac_%zu", down);
        report.metric(key, r.subset_frac);
        std::snprintf(key, sizeof(key), "tier_single_frac_%zu", down);
        report.metric(key, r.single_frac);
        std::snprintf(key, sizeof(key), "wire_frames_decoded_%zu", down);
        report.metric(key, static_cast<double>(r.frames_decoded));
    }

    report.write();

    if (misaligned > 0) {
        std::fprintf(stderr,
                     "FAIL: %llu fused frames carry a record from another "
                     "instant — frames must be joined by sequence number\n",
                     static_cast<unsigned long long>(misaligned));
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
