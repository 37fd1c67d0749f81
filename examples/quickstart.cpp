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
// --links=N (2..8) collects N receiver links over the same room, trains on
// the fused stream, and prints the fold-1 accuracy ladder as links are
// taken down — full fusion down to a single link (DESIGN.md §17). Each
// level frames the alive links' fold-1 rows (LinkEncoder, with the fault
// plan's wire faults when one is given) and serves the bytes through
// core::Pipeline. Link 0 is bitwise identical to the single-link
// collection, so steps 1-5 are unchanged by the flag.
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
#include "core/pipeline.hpp"
#include "data/folds.hpp"
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
        std::printf("6) multi-link: %zu receivers -> telemetry wire -> core::Pipeline "
                    "-> fusion ladder (DESIGN.md §17)\n",
                    n_links);

        // Train on the link-dropout-augmented fused stream (pre-wire): each
        // training row fuses a seeded random link subset, re-centered like
        // the degraded inference path, so every fusion tier is
        // in-distribution. Sanitize first when the sim faults were on.
        const data::Dataset fused = core::fused_dataset(link_sets);
        const data::FoldSplit msplit = data::split_paper_folds(fused);
        core::MultiLinkConfig mcfg;
        mcfg.n_links = n_links;
        mcfg.full.train_stride =
            std::max<std::size_t>(1, msplit.train.size() / 25000);
        mcfg.fallback.train_stride = mcfg.full.train_stride;
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
        // fusion tier step down instead of the detector falling over. Each
        // level serves the alive links' fold-1 wire, instant by instant.
        const data::DatasetView fold1 = msplit.test[0];
        const std::size_t base = static_cast<std::size_t>(
            fold1.records().data() - fused.records().data());
        const std::size_t n = fold1.size();
        struct Score final : core::DecisionSink {
            data::DatasetView fold;
            std::uint64_t correct = 0;
            void on_decision(std::uint32_t seq, const core::MultiLinkObservation&,
                             const core::FusionDecision& d) override {
                if (seq < fold.size() &&
                    d.base.prediction == static_cast<int>(fold[seq].occupancy))
                    ++correct;
            }
        } score;
        score.fold = fold1;
        core::Pipeline pipeline(mdet, score);
        const common::FaultPlan wire_plan(faults);
        std::vector<std::uint8_t> chunk;
        std::printf("   links-down  alive  accuracy   full    subset  single  other"
                    "   frames  defects  gaps\n");
        for (std::size_t down = 0; down < n_links; ++down) {
            const std::size_t alive = n_links - down;
            pipeline.reset();
            score.correct = 0;
            std::vector<data::LinkEncoder> encoders;
            for (std::size_t l = 0; l < alive; ++l)
                encoders.emplace_back(static_cast<std::uint8_t>(l), /*channel=*/6,
                                      have_faults ? &wire_plan : nullptr);
            for (std::size_t i = 0; i < n; ++i) {
                for (std::size_t l = 0; l < alive; ++l) {
                    chunk.clear();
                    encoders[l].encode(link_sets[l][base + i], chunk);
                    if (i + 1 == n) encoders[l].flush(chunk);
                    pipeline.push(l, chunk);
                }
            }
            pipeline.finish();
            unsigned long long frames = 0, defects = 0, gaps = 0;
            for (std::size_t l = 0; l < alive; ++l) {
                frames += pipeline.decoder(l).stats().frames_decoded;
                defects += pipeline.decoder(l).stats().defects;
                gaps += pipeline.reassembler(l).stats().gaps;
            }
            const core::FusionStats& st = mdet.stats();
            const double dn = static_cast<double>(n);
            const std::uint64_t csi = st.full_fusion + st.subset_fusion + st.single_link;
            std::printf("   %9zu  %5zu  %7.2f%%  %5.1f%%  %5.1f%%  %5.1f%%  %5.1f%%"
                        "  %7llu  %7llu  %4llu\n",
                        down, alive,
                        100.0 * static_cast<double>(score.correct) / dn,
                        100.0 * static_cast<double>(st.full_fusion) / dn,
                        100.0 * static_cast<double>(st.subset_fusion) / dn,
                        100.0 * static_cast<double>(st.single_link) / dn,
                        100.0 * static_cast<double>(n - csi) / dn, frames, defects,
                        gaps);
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
