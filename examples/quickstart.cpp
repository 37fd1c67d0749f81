// Quickstart: simulate a CSI collection, train the paper's occupancy
// detector, evaluate on unseen days, and round-trip the model through disk.
//
//   ./quickstart [sample_rate_hz] [--links=N] [--fault-plan=SPEC]
//               [--trace-out=FILE] [--snapshot-out=FILE] [--slo=SPEC]
//               [--slo-strict]
//
// The optional fault plan injects deterministic sensing faults into the
// simulated collection (frame drops, NaN/Inf/saturated amplitudes,
// subcarrier dropout, receiver outage bursts, env-sensor stalls), e.g.
//
//   ./quickstart 0.25 --fault-plan=drop=0.05,nan=0.02,burst_rate=1,seed=42
//
// and the corrupted stream is then cleaned by data::sanitize_records before
// training, demonstrating the validating-ingest path end to end.
//
// --links=N (2..8) collects N receiver links over the same room, pushes
// every link through the packed telemetry wire format (LinkEncoder ->
// TelemetryDecoder -> LinkReassembler, with the fault plan's wire faults
// applied when one is given), trains on the fused stream, and prints the
// fold-1 accuracy ladder as links are taken down — full fusion down to a
// single link (DESIGN.md §17). Link 0 is bitwise identical to the
// single-link collection, so steps 1-5 are unchanged by the flag.
//
// --trace-out=FILE records the run's spans into a Chrome-trace JSON (open
// in chrome://tracing or Perfetto); --snapshot-out=FILE writes the telemetry
// snapshot (metrics + sketches + windows + SLO verdicts + flight-recorder
// tail, DESIGN.md §19). The WIFISENSE_TRACE / WIFISENSE_SNAPSHOT environment
// variables do the same without flags; the benches parse both the same way
// (common::configure_observability).
//
// --slo=SPEC (e.g. --slo=name=serve,p99<=2000,avail>=95) replays fold 1
// through the trained detector as a serving stream, records every request
// into a multi-window SLO monitor, and prints the burn-rate verdict table.
// With --slo-strict a breach exits 3, so CI can gate on serving health.
//
// The defaults finish in under a minute on a laptop.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/telemetry/flight_recorder.hpp"
#include "common/telemetry/slo.hpp"
#include "common/trace.hpp"
#include "core/experiments.hpp"
#include "core/link_fusion.hpp"
#include "core/occupancy_detector.hpp"
#include "data/folds.hpp"
#include "data/link_ingest.hpp"
#include "data/record_validator.hpp"
#include "data/simtime.hpp"
#include "data/telemetry.hpp"
#include "envsim/simulation.hpp"

int main(int argc, char** argv) {
    using namespace wifisense;

    double rate = 0.25;
    std::size_t n_links = 1;
    common::FaultConfig faults;  // inert by default
    bool have_faults = false;
    common::SloSpec slo_spec;
    bool have_slo = false;
    bool slo_strict = false;
    const common::ObservabilityEnv obs =
        common::configure_observability(argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--slo=", 6) == 0) {
            auto parsed = common::parse_slo_spec(argv[i] + 6);
            if (!parsed.is_ok()) {
                std::fprintf(stderr, "bad --slo: %s\n",
                             parsed.status().message().c_str());
                return 1;
            }
            slo_spec = parsed.value();
            have_slo = true;
            // The monitor's windows are metric instruments, so the SLO flag
            // arms the registry (and the recorder, for breach events).
            common::metrics_enable();
            common::flight_enable();
        } else if (std::strcmp(argv[i], "--slo-strict") == 0) {
            slo_strict = true;
        } else if (std::strncmp(argv[i], "--links=", 8) == 0) {
            const long v = std::strtol(argv[i] + 8, nullptr, 10);
            if (v < 1 || v > 8) {
                std::fprintf(stderr, "bad --links: want 1..8, got '%s'\n",
                             argv[i] + 8);
                return 1;
            }
            n_links = static_cast<std::size_t>(v);
        } else if (std::strncmp(argv[i], "--fault-plan=", 13) == 0) {
            auto parsed = common::parse_fault_spec(argv[i] + 13);
            if (!parsed.is_ok()) {
                std::fprintf(stderr, "bad --fault-plan: %s\n",
                             parsed.status().message().c_str());
                return 1;
            }
            faults = parsed.value();
            have_faults = true;
        } else {
            rate = std::atof(argv[i]);
        }
    }

    std::printf("1) simulating the 74.5 h office collection @ %.2f Hz...\n", rate);
    envsim::SimulationConfig sim_cfg = envsim::paper_config(rate);
    sim_cfg.faults = faults;
    std::vector<data::Dataset> link_sets;
    data::Dataset dataset;
    if (n_links > 1) {
        const std::vector<csi::Vec3> positions =
            envsim::default_link_positions(sim_cfg.room, n_links);
        sim_cfg.extra_rx.assign(positions.begin() + 1, positions.end());
        link_sets.resize(n_links);
        envsim::OfficeSimulator(sim_cfg).run_links(
            [&](std::uint8_t link, const data::SampleRecord& rec) {
                link_sets[link].push_back(rec);
            });
        dataset = link_sets[0];  // bitwise the single-link collection
    } else {
        dataset = envsim::OfficeSimulator(sim_cfg).run();
    }
    std::printf("   %zu samples, %.1f%% empty\n", dataset.size(),
                100.0 * dataset.view().occupancy_distribution().empty_fraction());

    if (have_faults) {
        std::printf("   fault plan: %s\n", common::to_spec(faults).c_str());
        data::CleanIngest clean = data::sanitize_records(dataset.records());
        std::printf("   %s\n", clean.stats.summary().c_str());
        dataset = std::move(clean.dataset);
    }

    std::printf("2) temporal 70/30 split with 5 test folds (Table III protocol)\n");
    const data::FoldSplit split = data::split_paper_folds(dataset);

    std::printf("3) training the CSI-only MLP detector (paper Section IV-B)...\n");
    core::OccupancyDetector detector;
    const auto history = detector.fit(split.train);
    std::printf("   %zu epochs, train BCE %.4f -> %.4f\n", history.epoch_loss.size(),
                history.epoch_loss.front(), history.final_loss());
    std::printf("   model: %zu parameters, %.1f KiB weights\n",
                detector.network().parameter_count(),
                static_cast<double>(detector.model_bytes()) / 1024.0);

    std::printf("4) evaluating on the five unseen-day folds:\n");
    for (std::size_t f = 0; f < data::kNumTestFolds; ++f) {
        const data::DatasetView& fold = split.test[f];
        std::printf("   fold %zu  %s -> %s  accuracy %.1f%%\n", f + 1,
                    data::format_timestamp(fold.start_time()).c_str(),
                    data::format_timestamp(fold.end_time()).c_str(),
                    100.0 * detector.evaluate_accuracy(fold));
    }

    std::printf("5) saving and reloading the model...\n");
    const char* path = "/tmp/wifisense_quickstart_model.bin";
    detector.save(path);
    core::OccupancyDetector loaded = core::OccupancyDetector::load(path);
    const data::SampleRecord& probe = split.test[4][100];
    std::printf("   reloaded model: P(occupied) for a fold-5 sample = %.3f "
                "(ground truth: %d)\n",
                loaded.predict_proba(probe), static_cast<int>(probe.occupancy));

    common::SloVerdict slo_verdict;
    if (have_slo) {
        const data::DatasetView fold = split.test[0];
        std::printf("SLO) replaying fold 1 (%zu requests) against '%s'...\n",
                    fold.size(), slo_spec.name.c_str());
        common::SloMonitor& mon = common::obs_slo(slo_spec);
        for (std::size_t i = 0; i < fold.size(); ++i) {
            const data::SampleRecord& rec = fold[i];
            const std::uint64_t t0 = common::trace_now_ns();
            const double p = detector.predict_proba(rec);
            const double us =
                static_cast<double>(common::trace_now_ns() - t0) * 1e-3;
            const bool ok =
                (p > 0.5 ? 1 : 0) == static_cast<int>(rec.occupancy);
            mon.record(rec.timestamp, us, ok);
        }
        slo_verdict = mon.evaluate();
        std::printf("%s",
                    common::format_verdict_table(mon.spec(), slo_verdict).c_str());
    }

    if (n_links > 1) {
        std::printf("6) multi-link: %zu receivers -> telemetry wire -> fusion "
                    "ladder (DESIGN.md §17)\n",
                    n_links);
        common::FaultPlan wire_plan(faults);

        // Wire round-trip every link: encode (wire faults applied when a plan
        // is active) -> decode -> reassemble back into sequence order.
        struct Ordered final : data::FrameSink {
            std::vector<data::TelemetryFrame> frames;
            void on_frame(const data::TelemetryFrame& f) override {
                frames.push_back(f);
            }
        };
        struct Raw final : data::WireSink {
            std::vector<data::TelemetryFrame> frames;
            void on_frame(const data::TelemetryFrame& f) override {
                frames.push_back(f);
            }
        };
        const std::size_t n_records = link_sets[0].size();
        std::uint64_t decoded = 0, defects = 0, gaps = 0, missing = 0, dups = 0;
        std::vector<Ordered> ordered(n_links);
        for (std::size_t l = 0; l < n_links; ++l) {
            data::LinkEncoder enc(static_cast<std::uint8_t>(l), /*channel=*/6,
                                  have_faults ? &wire_plan : nullptr);
            std::vector<std::uint8_t> stream;
            stream.reserve(n_records * data::kWireFrameBytes);
            for (const data::SampleRecord& rec : link_sets[l].records())
                enc.encode(rec, stream);
            enc.flush(stream);

            Raw raw;
            data::TelemetryDecoder dec;
            dec.push(stream, raw);
            dec.finish(raw);
            data::LinkReassembler reasm;
            ordered[l].frames.reserve(raw.frames.size());
            for (const data::TelemetryFrame& f : raw.frames)
                reasm.push(f, ordered[l]);
            reasm.flush(ordered[l]);
            decoded += dec.stats().frames_decoded;
            defects += dec.stats().defects;
            gaps += reasm.stats().gaps;
            missing += reasm.stats().missing_frames;
            dups += reasm.stats().duplicates_dropped;
        }
        std::printf("   wire: %llu frames decoded, %llu defects, %llu gaps "
                    "(%llu frames lost), %llu duplicates dropped\n",
                    static_cast<unsigned long long>(decoded),
                    static_cast<unsigned long long>(defects),
                    static_cast<unsigned long long>(gaps),
                    static_cast<unsigned long long>(missing),
                    static_cast<unsigned long long>(dups));

        // Frames indexed by sequence so faulted holes stay holes.
        std::vector<std::vector<const data::TelemetryFrame*>> slot(
            n_links, std::vector<const data::TelemetryFrame*>(n_records, nullptr));
        for (std::size_t l = 0; l < n_links; ++l)
            for (const data::TelemetryFrame& f : ordered[l].frames)
                if (f.sequence < n_records) slot[l][f.sequence] = &f;

        // Train on the link-dropout-augmented fused stream (pre-wire): each
        // training row fuses a seeded random link subset, re-centered like
        // the degraded inference path, so every fusion tier is
        // in-distribution. Sanitize first when the sim faults were on.
        const data::Dataset fused = core::fused_dataset(link_sets);
        const data::FoldSplit msplit = data::split_paper_folds(fused);
        core::MultiLinkConfig mcfg;
        mcfg.n_links = n_links;
        mcfg.resilient.full.train_stride =
            std::max<std::size_t>(1, msplit.train.size() / 25000);
        mcfg.resilient.fallback.train_stride = mcfg.resilient.full.train_stride;
        core::MultiLinkDetector mdet(mcfg);
        mdet.calibrate_links(link_sets, 0, msplit.train.size())
            .throw_if_error();
        data::Dataset aug_train =
            core::link_dropout_fused(link_sets, 0, msplit.train.size());
        if (have_faults)
            aug_train = std::move(
                data::sanitize_records(std::move(aug_train.records())).dataset);
        mdet.fit(aug_train.view());

        // Fold-1 accuracy ladder: kill links highest-id first and watch the
        // fusion tier step down instead of the detector falling over.
        const data::DatasetView fold1 = msplit.test[0];
        const std::size_t base = static_cast<std::size_t>(
            fold1.records().data() - fused.records().data());
        const std::size_t n = fold1.size();
        std::vector<core::LinkFrame> obs_links(n_links);
        std::printf("   links-down  alive  accuracy   full    subset  single  other\n");
        for (std::size_t down = 0; down < n_links; ++down) {
            const std::size_t alive = n_links - down;
            mdet.reset_stream();
            std::uint64_t correct = 0, full = 0, subset = 0, single = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const data::SampleRecord& ref = fold1[i];
                for (std::size_t l = 0; l < n_links; ++l) {
                    obs_links[l] = core::LinkFrame{};
                    const data::TelemetryFrame* f = slot[l][base + i];
                    if (l < alive && f != nullptr) {
                        obs_links[l].present = true;
                        obs_links[l].csi = f->record.csi;
                    }
                }
                core::MultiLinkObservation mobs;
                mobs.timestamp = ref.timestamp;
                mobs.has_env = true;
                mobs.temperature_c = ref.temperature_c;
                mobs.humidity_pct = ref.humidity_pct;
                mobs.links = obs_links;
                const core::FusionDecision d = mdet.process(mobs);
                if (d.base.prediction == static_cast<int>(ref.occupancy))
                    ++correct;
                if (d.tier == core::FusionTier::kFullFusion) ++full;
                else if (d.tier == core::FusionTier::kSubsetFusion) ++subset;
                else if (d.tier == core::FusionTier::kSingleLink) ++single;
            }
            const double dn = static_cast<double>(n);
            std::printf("   %9zu  %5zu  %7.2f%%  %5.1f%%  %5.1f%%  %5.1f%%  %5.1f%%\n",
                        down, alive,
                        100.0 * static_cast<double>(correct) / dn,
                        100.0 * static_cast<double>(full) / dn,
                        100.0 * static_cast<double>(subset) / dn,
                        100.0 * static_cast<double>(single) / dn,
                        100.0 * static_cast<double>(n - full - subset - single) / dn);
        }
    }

    common::write_observability_outputs(obs);

    if (have_slo && slo_strict &&
        slo_verdict.state == common::SloState::kBreach) {
        std::fprintf(stderr, "SLO '%s' breached (--slo-strict)\n",
                     slo_spec.name.c_str());
        return 3;
    }
    std::printf("done.\n");
    return 0;
}
