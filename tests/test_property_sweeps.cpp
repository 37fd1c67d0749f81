// Parameterized property sweeps: invariants that must hold across seeds,
// shapes, scales, and configurations.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <random>
#include <span>

#include "common/alloc_counter.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "core/link_fusion.hpp"
#include "core/pipeline.hpp"
#include "data/telemetry.hpp"
#include "csi/channel.hpp"
#include "csi/receiver.hpp"
#include "data/scaler.hpp"
#include "envsim/fleet.hpp"
#include "envsim/simulation.hpp"
#include "ml/random_forest.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "stats/adf.hpp"
#include "stats/metrics.hpp"

namespace {
using namespace wifisense;

nn::Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> u(-2.0f, 2.0f);
    nn::Matrix m(r, c);
    for (float& v : m.data()) v = u(rng);
    return m;
}

}  // namespace

// --- serialization round-trip across architectures ----------------------------

class SerializeArchSweep
    : public ::testing::TestWithParam<std::vector<std::size_t>> {};

TEST_P(SerializeArchSweep, RoundTripExactForAnyArchitecture) {
    std::mt19937_64 rng(11);
    nn::Mlp net(GetParam(), nn::Init::kKaimingUniform, rng);
    std::stringstream buf;
    nn::save_mlp(net, buf);
    nn::Mlp loaded = nn::load_mlp(buf);
    const nn::Matrix x = random_matrix(5, GetParam().front(), 12);
    EXPECT_LT(nn::max_abs_diff(net.forward(x), loaded.forward(x)), 1e-7f);
    EXPECT_EQ(loaded.parameter_count(), net.parameter_count());
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, SerializeArchSweep,
    ::testing::Values(std::vector<std::size_t>{1, 1},
                      std::vector<std::size_t>{3, 7, 2},
                      std::vector<std::size_t>{64, 128, 256, 128, 1},
                      std::vector<std::size_t>{10, 5, 5, 5, 3}));

// --- BCE loss bounds across logit scales ---------------------------------------

class BceScaleSweep : public ::testing::TestWithParam<float> {};

TEST_P(BceScaleSweep, LossAndGradAlwaysFiniteAndBounded) {
    const nn::BceWithLogitsLoss loss;
    nn::Matrix out = random_matrix(16, 1, 13);
    nn::scale_inplace(out, GetParam());
    nn::Matrix tgt(16, 1);
    for (std::size_t i = 0; i < 16; ++i) tgt.at(i, 0) = static_cast<float>(i % 2);
    const nn::LossResult r = loss.compute(out, tgt);
    EXPECT_TRUE(std::isfinite(r.value));
    EXPECT_GE(r.value, 0.0);
    for (const float g : r.grad.data()) {
        EXPECT_TRUE(std::isfinite(g));
        EXPECT_LE(std::abs(g), 1.0f / 16.0f + 1e-6f);  // |sigmoid - y| <= 1 / N
    }
}

INSTANTIATE_TEST_SUITE_P(Scales, BceScaleSweep,
                         ::testing::Values(0.01f, 1.0f, 30.0f, 1000.0f));

// --- scaler: transform is exact inverse of the statistics ----------------------

class ScalerSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ScalerSweep, ZScoresHaveUnitSampleVariance) {
    const nn::Matrix x = random_matrix(400, 5, GetParam());
    data::StandardScaler scaler;
    const nn::Matrix z = scaler.fit_transform(x);
    for (std::size_t c = 0; c < 5; ++c) {
        double mean = 0.0;
        for (std::size_t r = 0; r < z.rows(); ++r) mean += z.at(r, c);
        mean /= static_cast<double>(z.rows());
        double var = 0.0;
        for (std::size_t r = 0; r < z.rows(); ++r) {
            const double d = z.at(r, c) - mean;
            var += d * d;
        }
        var /= static_cast<double>(z.rows() - 1);
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-3);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScalerSweep, ::testing::Range(21u, 27u));

// --- channel physics: amplitude scaling laws ------------------------------------

class ChannelDistanceSweep : public ::testing::TestWithParam<double> {};

TEST_P(ChannelDistanceSweep, LosAmplitudeFollowsInverseDistance) {
    csi::ChannelConfig cfg;
    cfg.surfaces = {0.0, 0.0, 0.0};
    cfg.n_furniture = 0;
    csi::RoomGeometry room;
    room.rx.x = room.tx.x + GetParam();
    const csi::ChannelModel ch(room, cfg, 5);
    // Vapor density 0 disables the humidity attenuation term.
    const auto h = ch.frequency_response({21.0, 0.0}, {});
    const double lambda = 299792458.0 / cfg.center_freq_hz;
    EXPECT_NEAR(std::abs(h[0]), lambda / (4.0 * 3.14159265358979 * GetParam()),
                1e-6);
}

INSTANTIATE_TEST_SUITE_P(Distances, ChannelDistanceSweep,
                         ::testing::Values(1.0, 2.0, 4.0, 6.0));

// --- channel: humidity attenuation is monotone ---------------------------------

class HumiditySweep : public ::testing::TestWithParam<double> {};

TEST_P(HumiditySweep, MeanAmplitudeDecreasesWithVapor) {
    const csi::ChannelModel ch(csi::RoomGeometry{}, csi::ChannelConfig{}, 6);
    const auto mean_amp = [&](double vapor) {
        const auto h = ch.frequency_response({21.0, vapor}, {});
        double acc = 0.0;
        for (const auto& v : h) acc += std::abs(v);
        return acc / static_cast<double>(h.size());
    };
    EXPECT_GT(mean_amp(GetParam()), mean_amp(GetParam() + 3.0));
}

INSTANTIATE_TEST_SUITE_P(VaporLevels, HumiditySweep,
                         ::testing::Values(2.0, 5.0, 8.0, 11.0));

// --- receiver determinism across seeds ------------------------------------------

class ReceiverSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReceiverSeedSweep, SameSeedSameSamples) {
    const csi::ChannelModel ch(csi::RoomGeometry{}, csi::ChannelConfig{}, 7);
    const auto h = ch.frequency_response(csi::EnvironmentState{}, {});
    csi::Receiver a(csi::ReceiverConfig{}, GetParam());
    csi::Receiver b(csi::ReceiverConfig{}, GetParam());
    const auto sa = a.sample_amplitudes(h);
    const auto sb = b.sample_amplitudes(h);
    for (std::size_t k = 0; k < sa.size(); ++k) ASSERT_EQ(sa[k], sb[k]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReceiverSeedSweep,
                         ::testing::Values(1u, 42u, 31337u));

// --- random forest: accuracy is stable across seeds ------------------------------

class ForestSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForestSeedSweep, XorAccuracyStableAcrossSeeds) {
    std::mt19937_64 data_rng(99);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    nn::Matrix x(2'000, 2);
    std::vector<int> y(2'000);
    for (std::size_t i = 0; i < 2'000; ++i) {
        x.at(i, 0) = u(data_rng);
        x.at(i, 1) = u(data_rng);
        y[i] = x.at(i, 0) * x.at(i, 1) > 0.0f ? 1 : 0;
    }
    ml::RandomForest forest({.n_trees = 15, .seed = GetParam()});
    forest.fit(x, y);
    const std::vector<int> pred = forest.predict(x);
    std::size_t hit = 0;
    for (std::size_t i = 0; i < pred.size(); ++i) hit += pred[i] == y[i] ? 1u : 0u;
    EXPECT_GT(static_cast<double>(hit) / 2'000.0, 0.92);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForestSeedSweep, ::testing::Values(1u, 7u, 42u, 99u));

// --- ADF size/power across AR coefficients ---------------------------------------

class AdfPhiSweep : public ::testing::TestWithParam<double> {};

TEST_P(AdfPhiSweep, VerdictMatchesProcessClass) {
    std::mt19937_64 rng(55);
    std::normal_distribution<double> step(0.0, 1.0);
    std::vector<double> xs(6'000);
    xs[0] = 0.0;
    const double phi = GetParam();
    for (std::size_t i = 1; i < xs.size(); ++i) xs[i] = phi * xs[i - 1] + step(rng);
    const stats::AdfResult r = stats::adf_test(std::span<const double>(xs), 4);
    if (phi <= 0.9) EXPECT_TRUE(r.stationary_5pct) << "phi=" << phi;
    if (phi >= 1.0) EXPECT_FALSE(r.stationary_5pct) << "phi=" << phi;
}

INSTANTIATE_TEST_SUITE_P(Phi, AdfPhiSweep,
                         ::testing::Values(0.0, 0.5, 0.8, 0.9, 1.0));

// --- training convergence across learning rates ----------------------------------

class LrSweep : public ::testing::TestWithParam<double> {};

TEST_P(LrSweep, BlobsSeparableAtAnyReasonableLr) {
    std::mt19937_64 data_rng(66);
    std::normal_distribution<float> noise(0.0f, 0.5f);
    nn::Matrix x(1'000, 2), y(1'000, 1);
    for (std::size_t i = 0; i < 1'000; ++i) {
        const int label = static_cast<int>(i % 2);
        x.at(i, 0) = noise(data_rng) + (label != 0 ? 1.5f : -1.5f);
        x.at(i, 1) = noise(data_rng);
        y.at(i, 0) = static_cast<float>(label);
    }
    std::mt19937_64 rng(3);
    nn::Mlp net({2, 8, 1}, nn::Init::kKaimingUniform, rng);
    const nn::BceWithLogitsLoss loss;
    nn::TrainConfig cfg;
    cfg.epochs = 40;
    cfg.learning_rate = GetParam();
    nn::train(net, x, y, loss, cfg);
    const std::vector<int> pred = nn::predict_binary(net, x);
    std::size_t hit = 0;
    for (std::size_t i = 0; i < pred.size(); ++i)
        hit += pred[i] == static_cast<int>(y.at(i, 0)) ? 1u : 0u;
    EXPECT_GT(static_cast<double>(hit) / 1'000.0, 0.97) << "lr=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(LearningRates, LrSweep,
                         ::testing::Values(2e-3, 5e-3, 1e-2, 2e-2));

// --- chaos soak: random fault plans through the full pipeline ------------------
//
// ROADMAP follow-up to the fault-injection layer: ~50 randomly drawn (but
// seeded) FaultPlans pushed through the simulator and a fitted one-link
// MultiLinkDetector. The invariant under ANY plan: process() never throws,
// never emits NaN/Inf, and probability/confidence/health all stay in [0, 1].
// Plan parameters are derived from substreams of one master seed, so a
// failure reproduces exactly from the printed plan index.

namespace {

wifisense::common::FaultConfig random_fault_config(std::uint64_t master_seed,
                                                   std::uint64_t plan_index) {
    namespace common = wifisense::common;
    std::mt19937_64 rng = common::substream(master_seed, plan_index);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    common::FaultConfig f;
    f.frame_drop_rate = 0.5 * u(rng);
    // Corruption rates must sum to at most 1 (FaultPlan validation).
    f.nan_rate = 0.15 * u(rng);
    f.inf_rate = 0.15 * u(rng);
    f.saturate_rate = 0.15 * u(rng);
    f.subcarrier_dropout_rate = 0.3 * u(rng);
    f.subcarrier_dropout_fraction = 0.05 + 0.9 * u(rng);
    f.burst_rate_per_h = 4.0 * u(rng);
    f.burst_len_s = 5.0 + 115.0 * u(rng);
    f.env_stall_rate_per_h = 3.0 * u(rng);
    f.env_stall_len_s = 10.0 + 290.0 * u(rng);
    f.env_clock_skew_s = 3.0 * u(rng);
    f.seed = common::substream_seed(master_seed, plan_index ^ 0xFA17);
    return f;
}

/// One decision's invariant check. Returns a diagnostic, or empty when sane.
std::string decision_violation(const wifisense::core::DetectorDecision& d) {
    const auto in01 = [](double v) { return std::isfinite(v) && v >= 0.0 && v <= 1.0; };
    if (!in01(d.probability)) return "probability outside [0,1] or non-finite";
    if (!in01(d.confidence)) return "confidence outside [0,1] or non-finite";
    if (!in01(d.csi_health)) return "csi_health outside [0,1] or non-finite";
    if (!in01(d.env_health)) return "env_health outside [0,1] or non-finite";
    if (d.prediction != 0 && d.prediction != 1) return "prediction not binary";
    return {};
}

}  // namespace

TEST(ChaosSoak, RandomFaultPlansNeverThrowNeverNaN) {
    namespace common = wifisense::common;
    namespace core = wifisense::core;
    namespace envsim = wifisense::envsim;
    constexpr std::uint64_t kMasterSeed = 0xC4A05;
    constexpr std::uint64_t kPlans = 50;

    // Fit once on a clean simulated capture; stream state (not the trained
    // models) is reset between plans.
    envsim::SimulationConfig train_cfg = envsim::paper_config(2.0, 7);
    train_cfg.duration_s = 1200.0;
    const wifisense::data::Dataset train_set =
        envsim::OfficeSimulator(train_cfg).run();
    core::MultiLinkConfig cfg;
    cfg.n_links = 1;
    cfg.full.training.epochs = 3;
    cfg.fallback.training.epochs = 3;
    cfg.env_staleness_budget_s = 10.0;
    core::MultiLinkDetector det(cfg);
    det.fit(train_set.view());

    for (std::uint64_t plan_i = 0; plan_i < kPlans; ++plan_i) {
        SCOPED_TRACE("plan " + std::to_string(plan_i));
        const common::FaultConfig fcfg = random_fault_config(kMasterSeed, plan_i);
        ASSERT_NO_THROW({ common::FaultPlan probe(fcfg); });

        envsim::SimulationConfig sim_cfg = envsim::paper_config(2.0, 7);
        sim_cfg.duration_s = 600.0;
        sim_cfg.seed = common::substream_seed(kMasterSeed, 1000 + plan_i);
        sim_cfg.faults = fcfg;

        wifisense::data::Dataset stream;
        ASSERT_NO_THROW(stream = envsim::OfficeSimulator(sim_cfg).run());

        // The simulator already dropped/corrupted frames; layer the plan's
        // packet decisions on top so the absent-frame and has_env=false
        // triage paths are exercised even on surviving records.
        const common::FaultPlan plan(fcfg);
        det.reset_stream();
        std::size_t violations = 0;
        std::string first_violation;
        for (std::size_t i = 0; i < stream.size(); ++i) {
            core::LinkFrame frame;
            frame.present = !plan.packet_fault(i).dropped;
            frame.csi = stream[i].csi;
            core::MultiLinkObservation obs;
            obs.timestamp = stream[i].timestamp;
            obs.has_env = !plan.env_stalled(obs.timestamp);
            obs.temperature_c = stream[i].temperature_c;
            obs.humidity_pct = stream[i].humidity_pct;
            obs.links = std::span<const core::LinkFrame>(&frame, 1);
            core::FusionDecision d;
            try {
                d = det.process(obs);
            } catch (const std::exception& e) {
                FAIL() << "process() threw on record " << i << ": " << e.what();
            }
            const std::string why = decision_violation(d.base);
            if (!why.empty() && ++violations == 1)
                first_violation = "record " + std::to_string(i) + ": " + why;
        }
        EXPECT_EQ(violations, 0u) << first_violation;
        EXPECT_EQ(det.stats().observations, stream.size());
    }
}

TEST(ChaosSoak, FaultyFleetNeverThrowsNeverNaN) {
    // Fleet extension of the soak: a 4-room fleet where EVERY room draws a
    // random availability-fault plan (frame drops, saturation, bursts,
    // sensor stalls, clock skew) from its scenario substream. The invariant
    // under any such fleet: run() never throws, every emitted field is
    // finite (scenario plans never draw NaN/Inf corruption), labels stay
    // sane, and the output is reproducible record-for-record.
    namespace envsim = wifisense::envsim;
    namespace data = wifisense::data;

    envsim::FleetConfig cfg;
    cfg.n_rooms = 4;
    cfg.duration_s = 900.0;
    cfg.sample_rate_hz = 1.0;
    cfg.faulty_fraction = 1.0;

    for (const std::uint64_t seed : {0xC4A05ull, 0xF1EE7ull, 3ull}) {
        SCOPED_TRACE("fleet seed " + std::to_string(seed));
        cfg.seed = seed;

        data::Dataset ds;
        envsim::FleetRunStats stats;
        ASSERT_NO_THROW(ds = envsim::FleetSimulator(cfg).run(&stats));
        EXPECT_EQ(stats.rooms, cfg.n_rooms);
        EXPECT_GT(ds.size(), 0u);

        std::size_t violations = 0;
        std::string first_violation;
        const auto flag = [&](std::size_t i, const char* why) {
            if (++violations == 1)
                first_violation = "record " + std::to_string(i) + ": " + why;
        };
        for (std::size_t i = 0; i < ds.size(); ++i) {
            const data::SampleRecord& r = ds[i];
            if (!std::isfinite(r.timestamp)) flag(i, "non-finite timestamp");
            for (const float a : r.csi)
                if (!std::isfinite(a)) {
                    flag(i, "non-finite CSI amplitude");
                    break;
                }
            if (!std::isfinite(r.temperature_c) || !std::isfinite(r.humidity_pct))
                flag(i, "non-finite env reading");
            if (r.occupancy != 0 && r.occupancy != 1)
                flag(i, "occupancy not binary");
            if ((r.occupant_count > 0) != (r.occupancy == 1))
                flag(i, "occupancy label disagrees with occupant count");
            if (r.room_id >= cfg.n_rooms) flag(i, "room_id out of range");
        }
        EXPECT_EQ(violations, 0u) << first_violation;

        // Rooms stay contiguous and ordered even with per-room fault plans.
        const std::vector<data::RoomSlice> slices = data::room_slices(ds.view());
        ASSERT_EQ(slices.size(), cfg.n_rooms);
        for (std::size_t room = 0; room < slices.size(); ++room)
            EXPECT_EQ(slices[room].room_id, room);

        // And the whole faulty fleet is reproducible bit for bit.
        envsim::FleetRunStats again;
        (void)envsim::FleetSimulator(cfg).run(&again);
        EXPECT_EQ(again.digest, stats.digest);
        EXPECT_EQ(again.rows, stats.rows);
    }
}

TEST(ChaosSoak, TotalBlackoutHoldsFiniteOutputs) {
    // Degenerate plan the random sweep is unlikely to draw exactly: 100%
    // frame loss AND stalled env. The detector must ride kStaleHold with
    // decaying confidence, never NaN.
    namespace core = wifisense::core;
    namespace envsim = wifisense::envsim;
    envsim::SimulationConfig train_cfg = envsim::paper_config(2.0, 11);
    train_cfg.duration_s = 900.0;
    const wifisense::data::Dataset train_set =
        envsim::OfficeSimulator(train_cfg).run();
    core::MultiLinkConfig cfg;
    cfg.n_links = 1;
    cfg.full.training.epochs = 3;
    cfg.fallback.training.epochs = 3;
    cfg.env_staleness_budget_s = 5.0;
    core::MultiLinkDetector det(cfg);
    det.fit(train_set.view());

    const core::LinkFrame absent;
    double last_confidence = 1.0;
    for (std::size_t i = 0; i < 2000; ++i) {
        core::MultiLinkObservation obs;
        obs.timestamp = static_cast<double>(i);
        obs.has_env = false;
        obs.links = std::span<const core::LinkFrame>(&absent, 1);
        const core::FusionDecision d = det.process(obs);
        EXPECT_TRUE(decision_violation(d.base).empty()) << "tick " << i;
        if (i > 10) {
            EXPECT_EQ(d.tier, core::FusionTier::kStaleHold) << "tick " << i;
            EXPECT_LE(d.base.confidence, last_confidence + 1e-12) << "tick " << i;
        }
        last_confidence = d.base.confidence;
    }
}

TEST(ChaosSoak, MultiLinkWireFaultsNeverThrowNeverNaN) {
    // Multi-link extension of the soak: one 4-link collection, then a sweep
    // of random wire-fault plans (corruption, truncation, reordering,
    // duplication, per-link outages, cross-link clock skew). Every link's
    // records are framed by a LinkEncoder and served through core::Pipeline,
    // each instant's chunk split at a random point. The invariant under ANY
    // plan: nothing throws, every instant is decided at most once and in
    // sequence order, probabilities and confidences stay finite in [0,1],
    // the tier counters account every decision, and nothing allocates from
    // the first push on.
    namespace common = wifisense::common;
    namespace core = wifisense::core;
    namespace data = wifisense::data;
    namespace envsim = wifisense::envsim;
    constexpr std::uint64_t kMasterSeed = 0x3717C4;
    constexpr std::size_t kLinks = 4;
    constexpr std::uint64_t kPlans = 12;

    envsim::SimulationConfig cfg = envsim::paper_config(2.0, 7);
    cfg.duration_s = 900.0;
    const std::vector<wifisense::csi::Vec3> positions =
        envsim::default_link_positions(cfg.room, kLinks);
    cfg.extra_rx.assign(positions.begin() + 1, positions.end());
    std::vector<data::Dataset> links(kLinks);
    envsim::OfficeSimulator(cfg).run_links(
        [&](std::uint8_t link, const data::SampleRecord& rec) {
            links[link].push_back(rec);
        });
    const data::Dataset fused = core::fused_dataset(links);

    core::MultiLinkConfig mcfg;
    mcfg.n_links = kLinks;
    mcfg.full.training.epochs = 3;
    mcfg.fallback.training.epochs = 3;
    core::MultiLinkDetector det(mcfg);
    det.fit(fused.view());

    struct Check final : core::DecisionSink {
        std::uint64_t decisions = 0;
        std::uint64_t out_of_order = 0;
        std::size_t violations = 0;
        std::string first_violation;
        void on_decision(std::uint32_t seq, const core::MultiLinkObservation&,
                         const core::FusionDecision& d) override {
            // Exactly once and in order: the k-th decision is sequence k.
            if (seq != decisions++) ++out_of_order;
            std::string why = decision_violation(d.base);
            if (why.empty() &&
                !(std::isfinite(d.mean_link_health) &&
                  d.mean_link_health >= 0.0 && d.mean_link_health <= 1.0))
                why = "mean_link_health outside [0,1] or non-finite";
            if (why.empty() && d.links_used > kLinks)
                why = "links_used exceeds link count";
            if (!why.empty() && ++violations == 1)
                first_violation = "sequence " + std::to_string(seq) + ": " + why;
        }
    } check;
    core::Pipeline pipeline(det, check);

    const std::size_t n = links[0].size();
    for (std::uint64_t plan_i = 0; plan_i < kPlans; ++plan_i) {
        SCOPED_TRACE("wire plan " + std::to_string(plan_i));
        std::mt19937_64 rng = common::substream(kMasterSeed, plan_i);
        std::uniform_real_distribution<double> u(0.0, 1.0);
        common::FaultConfig f;
        f.wire_corrupt_rate = 0.3 * u(rng);
        f.wire_truncate_rate = 0.2 * u(rng);
        f.wire_reorder_rate = 0.3 * u(rng);
        f.wire_duplicate_rate = 0.3 * u(rng);
        f.link_outage_rate_per_h = 8.0 * u(rng);
        f.link_outage_len_s = 10.0 + 170.0 * u(rng);
        f.link_clock_skew_s = 2.0 * u(rng);
        f.seed = common::substream_seed(kMasterSeed, plan_i ^ 0x3717);
        const common::FaultPlan plan(f);

        // Each link's bytes, cut after every instant's frames (sequence i
        // carries record i: an outage still consumes its sequence).
        std::vector<std::vector<std::uint8_t>> wire(kLinks);
        std::vector<std::vector<std::size_t>> cut(kLinks, std::vector<std::size_t>(n));
        for (std::size_t l = 0; l < kLinks; ++l) {
            data::LinkEncoder enc(static_cast<std::uint8_t>(l), 6, &plan);
            for (std::size_t i = 0; i < n; ++i) {
                enc.encode(links[l][i], wire[l]);
                cut[l][i] = wire[l].size();
            }
            enc.flush(wire[l]);
            cut[l][n - 1] = wire[l].size();
        }

        pipeline.reset();
        check = Check{};
        const wifisense::alloc::AllocationProbe probe;
        try {
            for (std::size_t i = 0; i < n; ++i) {
                for (std::size_t l = 0; l < kLinks; ++l) {
                    const std::span<const std::uint8_t> all(wire[l]);
                    const std::size_t begin = i == 0 ? 0 : cut[l][i - 1];
                    const std::size_t len = cut[l][i] - begin;
                    const std::size_t split = rng() % (len + 1);
                    pipeline.push(l, all.subspan(begin, split));
                    pipeline.push(l, all.subspan(begin + split, len - split));
                }
            }
            pipeline.finish();
        } catch (const std::exception& e) {
            FAIL() << "the pipeline threw: " << e.what();
        }
        EXPECT_EQ(probe.delta(), 0u);
        EXPECT_EQ(check.violations, 0u) << check.first_violation;
        EXPECT_EQ(check.out_of_order, 0u);
        EXPECT_LE(check.decisions, n);
        const core::FusionStats& st = det.stats();
        EXPECT_EQ(st.observations, check.decisions);
        EXPECT_EQ(st.full_fusion + st.subset_fusion + st.single_link +
                      st.env_only + st.stale_hold,
                  st.observations);
    }
}
