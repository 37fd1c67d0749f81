// Fault-injection layer: determinism of the plan, the bitwise-identity
// guarantees of the simulator hooks, quarantine/imputation accounting, and
// the detector degradation policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "common/alloc_counter.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/link_fusion.hpp"
#include "core/pipeline.hpp"
#include "core/stream_health.hpp"
#include "data/link_ingest.hpp"
#include "data/record_validator.hpp"
#include "data/telemetry.hpp"
#include "envsim/simulation.hpp"

namespace common = wifisense::common;
namespace core = wifisense::core;
namespace data = wifisense::data;
namespace envsim = wifisense::envsim;

namespace {

/// Short collection (2 h at 2 Hz) for the simulator-level checks.
envsim::SimulationConfig short_config() {
    envsim::SimulationConfig cfg = envsim::paper_config(2.0, 7);
    cfg.duration_s = 2.0 * 3600.0;
    return cfg;
}

bool records_equal(const data::SampleRecord& a, const data::SampleRecord& b) {
    return std::memcmp(&a.timestamp, &b.timestamp, sizeof(double)) == 0 &&
           std::memcmp(a.csi.data(), b.csi.data(),
                       a.csi.size() * sizeof(float)) == 0 &&
           std::memcmp(&a.temperature_c, &b.temperature_c, sizeof(float)) == 0 &&
           std::memcmp(&a.humidity_pct, &b.humidity_pct, sizeof(float)) == 0 &&
           a.occupant_count == b.occupant_count && a.occupancy == b.occupancy &&
           a.activity == b.activity;
}

struct ThreadGuard {
    explicit ThreadGuard(std::size_t n) {
        common::set_execution_config({n});
    }
    ~ThreadGuard() { common::set_execution_config({1}); }
};

common::FaultConfig busy_config() {
    common::FaultConfig f;
    f.frame_drop_rate = 0.2;
    f.nan_rate = 0.1;
    f.inf_rate = 0.05;
    f.saturate_rate = 0.05;
    f.subcarrier_dropout_rate = 0.1;
    f.burst_rate_per_h = 2.0;
    f.burst_len_s = 45.0;
    f.env_stall_rate_per_h = 1.5;
    f.env_stall_len_s = 90.0;
    f.seed = 1234;
    return f;
}

}  // namespace

// ---------------------------------------------------------------------------
// FaultPlan purity / determinism
// ---------------------------------------------------------------------------

TEST(FaultPlan, InactiveByDefault) {
    const common::FaultPlan plan;
    EXPECT_FALSE(plan.active());
    EXPECT_FALSE(plan.packet_fault(0).any());
    EXPECT_FALSE(plan.csi_offline(1000.0));
    EXPECT_FALSE(plan.env_stalled(1000.0));
    EXPECT_EQ(plan.env_skew_s(), 0.0);

    const common::FaultPlan zero{common::FaultConfig{}};
    EXPECT_FALSE(zero.active());
}

TEST(FaultPlan, RejectsInvalidConfigs) {
    common::FaultConfig bad = busy_config();
    bad.frame_drop_rate = 1.5;
    EXPECT_THROW(common::FaultPlan{bad}, std::invalid_argument);
    bad = busy_config();
    bad.nan_rate = 0.6;
    bad.inf_rate = 0.6;
    EXPECT_THROW(common::FaultPlan{bad}, std::invalid_argument);
    bad = busy_config();
    bad.burst_len_s = -1.0;
    EXPECT_THROW(common::FaultPlan{bad}, std::invalid_argument);
}

TEST(FaultPlan, PacketDecisionsArePureFunctionsOfIndex) {
    const common::FaultPlan plan(busy_config());
    constexpr std::size_t kN = 5000;

    std::vector<common::PacketFault> serial(kN);
    for (std::size_t i = kN; i-- > 0;)  // reverse order: no hidden state
        serial[i] = plan.packet_fault(i);

    for (const std::size_t threads : {1u, 2u, 8u}) {
        ThreadGuard guard(threads);
        std::vector<common::PacketFault> parallel(kN);
        common::parallel_for(kN, [&](std::size_t i) {
            parallel[i] = plan.packet_fault(i);
        });
        for (std::size_t i = 0; i < kN; ++i) {
            EXPECT_EQ(parallel[i].dropped, serial[i].dropped) << i;
            EXPECT_EQ(parallel[i].corrupt, serial[i].corrupt) << i;
            EXPECT_EQ(parallel[i].corrupt_mask_seed, serial[i].corrupt_mask_seed);
            EXPECT_EQ(parallel[i].dropout_mask_seed, serial[i].dropout_mask_seed);
        }
    }
}

TEST(FaultPlan, RatesAreRealizedApproximately) {
    common::FaultConfig cfg;
    cfg.frame_drop_rate = 0.25;
    cfg.subcarrier_dropout_rate = 0.1;
    const common::FaultPlan plan(cfg);
    constexpr std::size_t kN = 40000;
    std::size_t drops = 0, holes = 0;
    for (std::size_t i = 0; i < kN; ++i) {
        const common::PacketFault f = plan.packet_fault(i);
        drops += f.dropped;
        holes += f.dropout_mask_seed != 0;
    }
    EXPECT_NEAR((double)drops / kN, 0.25, 0.02);
    // Dropped frames have no payload, so dropout only hits survivors.
    EXPECT_NEAR((double)holes / (double)(kN - drops), 0.10, 0.02);
}

TEST(FaultPlan, WindowFaultsAreStatelessAndOrderFree) {
    const common::FaultPlan plan(busy_config());
    // Query a timeline forward, then backward: answers must match.
    std::vector<char> forward;
    for (std::size_t k = 0; k * 7 < 7200; ++k)
        forward.push_back(plan.csi_offline(7.0 * (double)k) ? 1 : 0);
    for (std::size_t k = forward.size(); k-- > 0;)
        EXPECT_EQ(plan.csi_offline(7.0 * (double)k), forward[k] != 0) << k;
    // With the chosen rate some windows must be offline and most online.
    const std::size_t offline =
        (std::size_t)std::count(forward.begin(), forward.end(), 1);
    EXPECT_GT(offline, 0u);
    EXPECT_LT(offline, forward.size() / 2);
}

TEST(FaultSpec, ParseRoundTripAndErrors) {
    const auto parsed = common::parse_fault_spec(
        "drop=0.05,nan=0.01,dropout=0.02,burst_rate=0.5,burst_len=45,seed=99");
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_DOUBLE_EQ(parsed.value().frame_drop_rate, 0.05);
    EXPECT_DOUBLE_EQ(parsed.value().burst_len_s, 45.0);
    EXPECT_EQ(parsed.value().seed, 99u);

    const auto back = common::parse_fault_spec(common::to_spec(parsed.value()));
    ASSERT_TRUE(back.is_ok());
    EXPECT_DOUBLE_EQ(back.value().frame_drop_rate, 0.05);

    EXPECT_FALSE(common::parse_fault_spec("bogus=1").is_ok());
    EXPECT_FALSE(common::parse_fault_spec("drop").is_ok());
    EXPECT_FALSE(common::parse_fault_spec("drop=abc").is_ok());
    EXPECT_FALSE(common::parse_fault_spec("drop=1.5").is_ok());
    EXPECT_TRUE(common::parse_fault_spec("").is_ok());
}

// ---------------------------------------------------------------------------
// Simulator integration: bitwise guarantees
// ---------------------------------------------------------------------------

TEST(FaultSim, ZeroFaultConfigIsBitwiseIdenticalToSeedAtAnyThreadCount) {
    envsim::SimulationConfig cfg = short_config();
    const data::Dataset baseline = [&] {
        ThreadGuard guard(1);
        return envsim::OfficeSimulator(cfg).run();
    }();
    ASSERT_GT(baseline.size(), 1000u);

    // Default (all-zero) FaultConfig, any thread count: identical stream.
    for (const std::size_t threads : {1u, 2u, 8u}) {
        ThreadGuard guard(threads);
        envsim::SimulationConfig faulted = short_config();
        faulted.faults = common::FaultConfig{};  // explicit inert plan
        const data::Dataset out = envsim::OfficeSimulator(faulted).run();
        ASSERT_EQ(out.size(), baseline.size()) << threads << " threads";
        for (std::size_t i = 0; i < out.size(); ++i)
            ASSERT_TRUE(records_equal(out[i], baseline[i]))
                << "record " << i << " at " << threads << " threads";
    }
}

TEST(FaultSim, DropOnlySurvivorsAreBitwiseSubsetOfCleanRun) {
    envsim::SimulationConfig clean_cfg = short_config();
    ThreadGuard guard(2);
    const data::Dataset clean = envsim::OfficeSimulator(clean_cfg).run();

    envsim::SimulationConfig faulty_cfg = short_config();
    faulty_cfg.faults.frame_drop_rate = 0.3;
    faulty_cfg.faults.burst_rate_per_h = 2.0;
    faulty_cfg.faults.burst_len_s = 60.0;
    const data::Dataset faulty = envsim::OfficeSimulator(faulty_cfg).run();

    ASSERT_LT(faulty.size(), clean.size());
    ASSERT_GT(faulty.size(), clean.size() / 2);

    // Every surviving record equals the clean record with its timestamp.
    std::size_t ci = 0;
    for (std::size_t fi = 0; fi < faulty.size(); ++fi) {
        while (ci < clean.size() && clean[ci].timestamp < faulty[fi].timestamp)
            ++ci;
        ASSERT_LT(ci, clean.size());
        ASSERT_TRUE(records_equal(faulty[fi], clean[ci])) << "record " << fi;
    }
}

TEST(FaultSim, CorruptionProducesNonFiniteAmplitudesDeterministically) {
    envsim::SimulationConfig cfg = short_config();
    cfg.faults.nan_rate = 0.1;
    cfg.faults.inf_rate = 0.05;
    cfg.faults.subcarrier_dropout_rate = 0.1;
    ThreadGuard guard(2);
    const data::Dataset a = envsim::OfficeSimulator(cfg).run();
    const data::Dataset b = envsim::OfficeSimulator(cfg).run();
    ASSERT_EQ(a.size(), b.size());
    std::size_t nonfinite_rows = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(records_equal(a[i], b[i])) << i;
        for (const float amp : a[i].csi)
            if (!std::isfinite(amp)) {
                ++nonfinite_rows;
                break;
            }
    }
    EXPECT_GT(nonfinite_rows, a.size() / 20);  // faults actually landed
    EXPECT_LT(nonfinite_rows, a.size() / 2);
}

TEST(FaultSim, EnvStallRepeatsReadingsWithoutPerturbingTheRest) {
    envsim::SimulationConfig cfg = short_config();
    cfg.faults.env_stall_rate_per_h = 6.0;
    cfg.faults.env_stall_len_s = 120.0;
    ThreadGuard guard(1);
    const data::Dataset stalled = envsim::OfficeSimulator(cfg).run();
    const data::Dataset clean =
        envsim::OfficeSimulator(short_config()).run();
    ASSERT_EQ(stalled.size(), clean.size());

    const common::FaultPlan plan(cfg.faults);
    std::size_t stalled_ticks = 0, diffs = 0;
    for (std::size_t i = 0; i < stalled.size(); ++i) {
        // CSI and labels are untouched by an env-sensor stall.
        ASSERT_EQ(0, std::memcmp(stalled[i].csi.data(), clean[i].csi.data(),
                                 stalled[i].csi.size() * sizeof(float)));
        if (plan.env_stalled(stalled[i].timestamp)) ++stalled_ticks;
        if (stalled[i].temperature_c != clean[i].temperature_c ||
            stalled[i].humidity_pct != clean[i].humidity_pct)
            ++diffs;
    }
    EXPECT_GT(stalled_ticks, 0u);
    EXPECT_GT(diffs, 0u);           // the stall visibly froze some readings
    EXPECT_LE(diffs, stalled_ticks);  // ...but only within stall windows
}

// ---------------------------------------------------------------------------
// Validating ingest
// ---------------------------------------------------------------------------

namespace {

data::SampleRecord valid_record(double t) {
    data::SampleRecord r;
    r.timestamp = t;
    for (std::size_t k = 0; k < data::kNumSubcarriers; ++k)
        r.csi[k] = 0.002f + 0.0001f * (float)k;
    r.temperature_c = 21.5f;
    r.humidity_pct = 38.0f;
    r.occupancy = 1;
    r.occupant_count = 1;
    return r;
}

}  // namespace

TEST(RecordValidator, AccountingIsExactAndOutputFinite) {
    std::vector<data::SampleRecord> rows;
    for (int i = 0; i < 100; ++i) rows.push_back(valid_record(i));
    rows[10].csi[3] = std::numeric_limits<float>::quiet_NaN();   // repairable
    rows[20].temperature_c = std::numeric_limits<float>::infinity();
    for (auto& a : rows[30].csi) a = std::numeric_limits<float>::quiet_NaN();
    rows[40].timestamp = 5.0;  // goes backwards
    rows[50].humidity_pct = 140.0f;  // out of range

    const data::CleanIngest clean = data::sanitize_records(rows);
    const data::IngestStats& s = clean.stats;
    EXPECT_EQ(s.total, 100u);
    EXPECT_EQ(s.accepted + s.repaired + s.quarantined, s.total);
    EXPECT_EQ(s.quarantined, 2u);  // all-NaN frame + nonmonotonic row
    EXPECT_EQ(s.repaired, 3u);
    EXPECT_EQ(s.csi_values_imputed, 1u);
    EXPECT_EQ(s.env_values_imputed, 2u);
    EXPECT_EQ(s.nonmonotonic_timestamps, 1u);
    EXPECT_EQ(clean.dataset.size(), 98u);

    for (const auto& r : clean.dataset.records()) {
        for (const float a : r.csi) EXPECT_TRUE(std::isfinite(a));
        EXPECT_TRUE(std::isfinite(r.temperature_c));
        EXPECT_TRUE(std::isfinite(r.humidity_pct));
    }
    EXPECT_NE(clean.stats.summary().find("100 records"), std::string::npos);
}

TEST(RecordValidator, StalenessBudgetBoundsImputation) {
    data::ValidationPolicy policy;
    policy.staleness_budget_s = 2.0;
    data::RecordValidator v(policy);

    data::SampleRecord good = valid_record(0.0);
    EXPECT_EQ(v.ingest(good), data::RecordDisposition::kAccepted);

    data::SampleRecord fresh_bad = valid_record(1.0);
    fresh_bad.csi[0] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(v.ingest(fresh_bad), data::RecordDisposition::kRepaired);
    EXPECT_FLOAT_EQ(fresh_bad.csi[0], good.csi[0]);

    data::SampleRecord stale_bad = valid_record(10.0);
    stale_bad.csi[0] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(v.ingest(stale_bad), data::RecordDisposition::kQuarantined);
}

TEST(RecordValidator, SaturatedFramesAreQuarantined) {
    data::RecordValidator v;
    data::SampleRecord r = valid_record(0.0);
    for (auto& a : r.csi) a = 0.02f;  // pinned at full scale
    EXPECT_EQ(v.ingest(r), data::RecordDisposition::kQuarantined);
    EXPECT_EQ(v.stats().saturated_frames, 1u);
}

TEST(RecordValidator, ResampleForwardFillRespectsBudget) {
    std::vector<data::SampleRecord> rows;
    for (int i = 0; i < 10; ++i) rows.push_back(valid_record(i));
    for (int i = 30; i < 40; ++i) rows.push_back(valid_record(i));  // 20 s hole
    const data::Dataset ds(std::move(rows));

    data::ValidationPolicy policy;
    policy.staleness_budget_s = 3.0;
    const data::CleanIngest out =
        data::resample_forward_fill(ds.view(), 1.0, policy);

    // Grid spans [0, 39]: 40 points. The hole [10, 26] stays a hole (ages
    // 1..17 s beyond the 3 s budget allow only 10,11,12).
    EXPECT_EQ(out.stats.total, 40u);
    EXPECT_EQ(out.dataset.size(), 23u);
    EXPECT_GT(out.stats.gaps, 0u);
    EXPECT_GT(out.stats.rows_forward_filled, 0u);
    for (std::size_t i = 1; i < out.dataset.size(); ++i)
        EXPECT_GT(out.dataset[i].timestamp, out.dataset[i - 1].timestamp);
}

// ---------------------------------------------------------------------------
// Stream health + degradation policy
// ---------------------------------------------------------------------------

TEST(StreamHealth, EwmaTracksValidityAndStaleness) {
    core::StreamHealthConfig cfg;
    cfg.tau_s = 10.0;
    cfg.stale_after_s = 5.0;
    core::StreamHealth h(cfg);
    EXPECT_DOUBLE_EQ(h.health(), 1.0);
    EXPECT_TRUE(h.stale(0.0));  // nothing seen yet

    h.observe(0.0, true);
    EXPECT_DOUBLE_EQ(h.health(), 1.0);
    EXPECT_FALSE(h.stale(3.0));
    EXPECT_TRUE(h.stale(6.0));

    double prev = h.health();
    for (double t = 1.0; t <= 30.0; t += 1.0) {
        h.observe(t, false);
        EXPECT_LT(h.health(), prev);
        prev = h.health();
    }
    EXPECT_LT(h.health(), 0.1);  // ~3 tau of outage
    EXPECT_TRUE(h.stale(30.0));
}

namespace {

/// Tiny trainable dataset: occupancy flips every 50 records; CSI and env
/// both carry the label so either model can learn it.
data::Dataset trainable_dataset(std::size_t n) {
    data::Dataset ds;
    for (std::size_t i = 0; i < n; ++i) {
        const int occ = (i / 50) % 2;
        data::SampleRecord r;
        r.timestamp = (double)i;
        for (std::size_t k = 0; k < data::kNumSubcarriers; ++k)
            r.csi[k] = 0.004f + 0.002f * (float)occ +
                       0.0001f * (float)((i * 7 + k * 13) % 10);
        r.temperature_c = 20.0f + 3.0f * (float)occ +
                          0.1f * (float)((i * 3) % 5);
        r.humidity_pct = 35.0f + 6.0f * (float)occ + 0.2f * (float)(i % 4);
        r.occupancy = (std::uint8_t)occ;
        r.occupant_count = (std::uint8_t)occ;
        ds.push_back(r);
    }
    return ds;
}

/// What one instant of a single-link stream delivers.
struct OneLinkTick {
    double t = 0.0;
    core::LinkFrame frame;
    bool has_env = false;
    float temperature_c = 0.0f;
    float humidity_pct = 0.0f;

    /// An instant seeing everything the record carries.
    static OneLinkTick from_record(const data::SampleRecord& r) {
        OneLinkTick tick;
        tick.t = r.timestamp;
        tick.frame.present = true;
        tick.frame.csi = r.csi;
        tick.has_env = true;
        tick.temperature_c = r.temperature_c;
        tick.humidity_pct = r.humidity_pct;
        return tick;
    }
};

core::FusionDecision feed(core::MultiLinkDetector& det, const OneLinkTick& tick) {
    core::MultiLinkObservation obs;
    obs.timestamp = tick.t;
    obs.has_env = tick.has_env;
    obs.temperature_c = tick.temperature_c;
    obs.humidity_pct = tick.humidity_pct;
    obs.links = std::span<const core::LinkFrame>(&tick.frame, 1);
    return det.process(obs);
}

core::FusionDecision feed(core::MultiLinkDetector& det, const data::SampleRecord& r) {
    return feed(det, OneLinkTick::from_record(r));
}

core::MultiLinkDetector fitted_detector() {
    core::MultiLinkConfig cfg;
    cfg.n_links = 1;
    cfg.full.training.epochs = 4;
    cfg.fallback.training.epochs = 4;
    // Short env hold so a total blackout reaches kStaleHold within the test
    // horizon (records are 1 s apart).
    cfg.env_staleness_budget_s = 5.0;
    core::MultiLinkDetector det(cfg);
    det.fit(trainable_dataset(600).view());
    return det;
}

}  // namespace

TEST(OneLinkLadder, ThrowsOnlyWhenUnfitted) {
    core::MultiLinkConfig cfg;
    cfg.n_links = 1;
    core::MultiLinkDetector det(cfg);
    EXPECT_THROW(feed(det, OneLinkTick{}), std::logic_error);
}

TEST(OneLinkLadder, FullFusionOnCleanStream) {
    core::MultiLinkDetector det = fitted_detector();
    const data::Dataset ds = trainable_dataset(600);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < ds.size(); ++i) {
        const auto d = feed(det, ds[i]);
        EXPECT_EQ(d.tier, core::FusionTier::kFullFusion);
        EXPECT_TRUE(std::isfinite(d.base.probability));
        correct += d.base.prediction == (int)ds[i].occupancy;
    }
    EXPECT_GT((double)correct / (double)ds.size(), 0.9);
    EXPECT_EQ(det.stats().full_fusion, ds.size());
}

TEST(OneLinkLadder, DegradesThroughEnvOnlyToStaleHoldAndRecovers) {
    core::MultiLinkDetector det = fitted_detector();
    const data::Dataset ds = trainable_dataset(400);

    // Phase 1: healthy.
    for (std::size_t i = 0; i < 100; ++i) {
        const auto d = feed(det, ds[i]);
        EXPECT_EQ(d.tier, core::FusionTier::kFullFusion);
    }

    // Phase 2: CSI dies, env alive -> env-only once health crosses the floor.
    core::FusionTier last_tier = core::FusionTier::kFullFusion;
    for (std::size_t i = 100; i < 200; ++i) {
        OneLinkTick tick = OneLinkTick::from_record(ds[i]);
        tick.frame.present = false;
        const auto d = feed(det, tick);
        EXPECT_TRUE(std::isfinite(d.base.probability));
        last_tier = d.tier;
    }
    EXPECT_EQ(last_tier, core::FusionTier::kEnvOnly);
    EXPECT_GT(det.stats().env_only, 50u);

    // Phase 3: both streams dark. Env values are forward-held for the first
    // few seconds (env-only), then the detector enters stale hold with
    // monotonically decaying confidence — and never NaN.
    double prev_conf = 1.1;
    std::size_t stale_ticks = 0;
    for (std::size_t i = 200; i < 300; ++i) {
        OneLinkTick tick;
        tick.t = ds[i].timestamp;
        const auto d = feed(det, tick);
        ASSERT_TRUE(std::isfinite(d.base.probability));
        EXPECT_GE(d.base.probability, 0.0);
        EXPECT_LE(d.base.probability, 1.0);
        EXPECT_NE(d.tier, core::FusionTier::kFullFusion);
        if (d.tier == core::FusionTier::kStaleHold) {
            if (stale_ticks > 0) EXPECT_LE(d.base.confidence, prev_conf);
            prev_conf = d.base.confidence;
            ++stale_ticks;
        }
    }
    EXPECT_GT(stale_ticks, 80u);  // the hold budget expires quickly
    // ~95 s of blackout at tau=60 s: decay factor exp(-95/60) ~ 0.21.
    EXPECT_LT(prev_conf, 0.25);   // long outage decays toward "don't know"

    // Phase 4: CSI returns -> recovery to full once health rebuilds.
    core::FusionTier final_tier = core::FusionTier::kStaleHold;
    for (std::size_t i = 300; i < 400; ++i) {
        const auto d = feed(det, ds[i]);
        final_tier = d.tier;
        EXPECT_TRUE(std::isfinite(d.base.probability));
    }
    EXPECT_EQ(final_tier, core::FusionTier::kFullFusion);
}

TEST(OneLinkLadder, HundredPercentCsiDropoutNeverThrowsOrEmitsNaN) {
    core::MultiLinkDetector det = fitted_detector();
    const data::Dataset ds = trainable_dataset(500);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < ds.size(); ++i) {
        OneLinkTick tick = OneLinkTick::from_record(ds[i]);
        tick.frame.present = false;  // total CSI loss
        const auto d = feed(det, tick);
        ASSERT_TRUE(std::isfinite(d.base.probability));
        ASSERT_GE(d.base.probability, 0.0);
        ASSERT_LE(d.base.probability, 1.0);
        EXPECT_NE(d.tier, core::FusionTier::kFullFusion);
        correct += d.base.prediction == (int)ds[i].occupancy;
    }
    EXPECT_EQ(det.stats().full_fusion, 0u);
    // Env features still carry the label: the fallback keeps detecting.
    EXPECT_GT((double)correct / (double)ds.size(), 0.8);
}

TEST(OneLinkLadder, AllNaNFramesAreHandledLikeDrops) {
    core::MultiLinkDetector det = fitted_detector();
    const data::Dataset ds = trainable_dataset(300);
    for (std::size_t i = 0; i < ds.size(); ++i) {
        OneLinkTick tick = OneLinkTick::from_record(ds[i]);
        for (auto& a : tick.frame.csi) a = std::numeric_limits<float>::quiet_NaN();
        const auto d = feed(det, tick);
        ASSERT_TRUE(std::isfinite(d.base.probability));
        EXPECT_NE(d.tier, core::FusionTier::kFullFusion);
    }
}

TEST(OneLinkLadder, RepairsLightCorruptionWithinBudget) {
    core::MultiLinkDetector det = fitted_detector();
    const data::Dataset ds = trainable_dataset(300);
    // Healthy warm-up so a fresh donor frame exists.
    for (std::size_t i = 0; i < 10; ++i) feed(det, ds[i]);
    OneLinkTick tick = OneLinkTick::from_record(ds[10]);
    tick.frame.csi[5] = std::numeric_limits<float>::quiet_NaN();
    tick.frame.csi[17] = std::numeric_limits<float>::infinity();
    const auto d = feed(det, tick);
    EXPECT_EQ(d.tier, core::FusionTier::kFullFusion);
    EXPECT_TRUE(d.base.csi_repaired);
    EXPECT_TRUE(std::isfinite(d.base.probability));
    EXPECT_EQ(det.stats().csi_values_imputed, 2u);
}

TEST(OneLinkLadder, ResetStreamClearsStateButKeepsModels) {
    core::MultiLinkDetector det = fitted_detector();
    const data::Dataset ds = trainable_dataset(100);
    for (std::size_t i = 0; i < 50; ++i) {
        OneLinkTick tick = OneLinkTick::from_record(ds[i]);
        tick.frame.present = false;
        feed(det, tick);
    }
    EXPECT_GT(det.stats().observations, 0u);
    det.reset_stream();
    EXPECT_EQ(det.stats().observations, 0u);
    EXPECT_TRUE(det.fitted());
    const auto d = feed(det, ds[0]);
    EXPECT_EQ(d.tier, core::FusionTier::kFullFusion);  // health is fresh again
}

// ---------------------------------------------------------------------------
// Pinned ladder digests. The expected values were computed before the
// single-stream detector and the multi-link front end became one class: the
// one-link digest on the single-stream detector, the four-link digest on the
// multi-link front end of the time. Each hashes discrete per-tick fields only
// (tier, prediction, repaired/held flags, links used), so the pin does not
// depend on the kernel backend or on libm.
// ---------------------------------------------------------------------------

namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t fold_decision(std::uint64_t h, const core::FusionDecision& d,
                            bool with_links_used) {
    const std::uint8_t rec[5] = {static_cast<std::uint8_t>(d.tier),
                                 static_cast<std::uint8_t>(d.base.prediction),
                                 static_cast<std::uint8_t>(d.base.csi_repaired),
                                 static_cast<std::uint8_t>(d.base.env_held),
                                 static_cast<std::uint8_t>(d.links_used)};
    return fnv1a(h, rec, with_links_used ? 5 : 4);
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

bool in_window(double t, double begin, double end) { return t >= begin && t < end; }

/// 2,400 one-second instants of trainable_dataset under a fixed fault
/// script. Per-tick draws (splitmix64 of the index) drop 8% of frames,
/// blank 1-8 subcarriers of 8% (repairable while the donor is fresh),
/// blank 33-48 of 3% (past the half-frame repair limit) and make 2% of the
/// env readings NaN. Two CSI outages of 60 s and 90 s pull the link EWMA
/// to ~0.14 and ~0.05, under the multi-link vote floor; env stalls of 30 s
/// and 40 s outlast the 5 s hold budget (the second inside the 90 s outage,
/// so both streams go dark), and a 3 s stall is held.
std::vector<OneLinkTick> scripted_one_link_stream() {
    const data::Dataset ds = trainable_dataset(2400);
    std::vector<OneLinkTick> out;
    out.reserve(ds.size());
    for (std::size_t i = 0; i < ds.size(); ++i) {
        OneLinkTick s = OneLinkTick::from_record(ds[i]);
        const std::uint64_t h = common::splitmix64(0x1ADDE5ull + i);
        const std::uint64_t roll = h % 100;
        if (roll < 8) {
            s.frame.present = false;
        } else if (roll < 19) {
            const std::size_t n_bad =
                roll < 16 ? 1 + (h >> 8) % 8 : 33 + (h >> 8) % 16;
            const std::size_t start = (h >> 16) % data::kNumSubcarriers;
            for (std::size_t j = 0; j < n_bad; ++j) {
                float& a = s.frame.csi[(start + 5 * j) % data::kNumSubcarriers];
                a = j % 3 == 0   ? std::numeric_limits<float>::quiet_NaN()
                    : j % 3 == 1 ? std::numeric_limits<float>::infinity()
                                 : -std::numeric_limits<float>::infinity();
            }
        } else if (roll < 21) {
            s.temperature_c = std::numeric_limits<float>::quiet_NaN();
        }
        if (in_window(s.t, 600.0, 660.0) || in_window(s.t, 1500.0, 1590.0))
            s.frame.present = false;
        if (in_window(s.t, 900.0, 930.0) || in_window(s.t, 1540.0, 1580.0) ||
            in_window(s.t, 2000.0, 2003.0))
            s.has_env = false;
        out.push_back(s);
    }
    return out;
}

}  // namespace

TEST(LinkFusion, OneLinkDecisionsMatchPinnedDigest) {
    core::MultiLinkDetector det = fitted_detector();
    std::uint64_t h = kFnvBasis;
    double min_link_health = 1.0;
    for (const OneLinkTick& tick : scripted_one_link_stream()) {
        const core::FusionDecision d = feed(det, tick);
        h = fold_decision(h, d, /*with_links_used=*/false);
        min_link_health = std::min(min_link_health, d.mean_link_health);
    }
    // The outage pulled the link under the 0.3 vote floor: a one-link
    // detector that kept the multi-link vote gate would rejoin full fusion
    // at different ticks and miss the pin.
    EXPECT_LT(min_link_health, 0.3);
    const core::FusionStats& st = det.stats();
    EXPECT_EQ(st.full_fusion, 1945u);
    EXPECT_EQ(st.env_only, 395u);
    EXPECT_EQ(st.stale_hold, 60u);
    EXPECT_EQ(st.csi_frames_repaired, 154u);
    EXPECT_EQ(st.csi_values_imputed, 710u);
    EXPECT_EQ(st.env_ticks_held, 56u);
    EXPECT_EQ(h, 0x7b5d306426366f26ull);
}

namespace {

constexpr std::size_t kPinLinks = 4;

/// trainable_dataset seen by four links, each with its own amplitude offset
/// and noise pattern.
std::vector<data::Dataset> four_link_datasets(std::size_t n) {
    const data::Dataset base = trainable_dataset(n);
    std::vector<data::Dataset> links(kPinLinks);
    for (std::size_t l = 0; l < kPinLinks; ++l) {
        links[l].reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            data::SampleRecord r = base[i];
            for (std::size_t k = 0; k < data::kNumSubcarriers; ++k)
                r.csi[k] += 0.0004f * static_cast<float>(l) +
                            0.00005f * static_cast<float>((i * 11 + k * 3 + l * 5) % 7);
            links[l].push_back(r);
        }
    }
    return links;
}

core::MultiLinkConfig four_link_config() {
    core::MultiLinkConfig cfg;
    cfg.n_links = kPinLinks;
    cfg.full.training.epochs = 4;
    cfg.fallback.training.epochs = 4;
    cfg.env_staleness_budget_s = 5.0;
    return cfg;
}

/// Encode -> decode -> reassemble every link under `plan`; slot[l][i] is
/// link l's frame for instant i (joined by sequence number), or null when
/// the wire lost it.
struct WireArrivals {
    std::vector<std::vector<data::TelemetryFrame>> storage;
    std::vector<std::vector<const data::TelemetryFrame*>> slot;
};

WireArrivals transport(const std::vector<data::Dataset>& links,
                       const common::FaultPlan& plan) {
    const std::size_t n = links[0].size();
    WireArrivals w;
    w.storage.resize(links.size());
    w.slot.assign(links.size(),
                  std::vector<const data::TelemetryFrame*>(n, nullptr));
    for (std::size_t l = 0; l < links.size(); ++l) {
        data::LinkEncoder enc(static_cast<std::uint8_t>(l), 6, &plan);
        std::vector<std::uint8_t> bytes;
        for (std::size_t i = 0; i < n; ++i) enc.encode(links[l][i], bytes);
        enc.flush(bytes);
        struct Out final : data::FrameSink {
            std::vector<data::TelemetryFrame>* v;
            void on_frame(const data::TelemetryFrame& fr) override {
                v->push_back(fr);
            }
        } out;
        out.v = &w.storage[l];
        w.storage[l].reserve(n);
        data::LinkReassembler reasm;
        struct Raw final : data::WireSink {
            data::LinkReassembler* reasm;
            data::FrameSink* out;
            void on_frame(const data::TelemetryFrame& fr) override {
                reasm->push(fr, *out);
            }
        } raw;
        raw.reasm = &reasm;
        raw.out = &out;
        data::TelemetryDecoder dec;
        dec.push(bytes, raw);
        dec.finish(raw);
        reasm.flush(out);
        for (const data::TelemetryFrame& fr : w.storage[l])
            if (fr.sequence < n) w.slot[l][fr.sequence] = &fr;
    }
    return w;
}

}  // namespace

TEST(LinkFusion, FourLinkWireFaultDecisionsMatchPinnedDigest) {
    // ChaosSoak-style wire plan: corruption, truncation, reordering,
    // duplication and 120 s per-link outages (about three per link over
    // the 2,000 s stream), plus one 30 s env stall. Every delivered frame is
    // fully finite, so this pins the multi-link ladder as it was.
    const std::vector<data::Dataset> train = four_link_datasets(600);
    core::MultiLinkDetector det(four_link_config());
    ASSERT_TRUE(det.calibrate_links(train).is_ok());
    det.fit(core::link_dropout_fused(train).view());

    common::FaultConfig f;
    f.wire_corrupt_rate = 0.03;
    f.wire_truncate_rate = 0.02;
    f.wire_reorder_rate = 0.05;
    f.wire_duplicate_rate = 0.05;
    f.link_outage_rate_per_h = 6.0;
    f.link_outage_len_s = 120.0;
    f.seed = 0x91AEDull;
    const common::FaultPlan plan(f);
    const std::vector<data::Dataset> links = four_link_datasets(2000);
    const WireArrivals w = transport(links, plan);

    std::uint64_t h = kFnvBasis;
    std::vector<core::LinkFrame> frames(kPinLinks);
    for (std::size_t i = 0; i < links[0].size(); ++i) {
        for (std::size_t l = 0; l < kPinLinks; ++l) {
            frames[l] = core::LinkFrame{};
            if (w.slot[l][i] != nullptr) {
                frames[l].present = true;
                frames[l].csi = w.slot[l][i]->record.csi;
            }
        }
        const data::SampleRecord& r = links[0][i];
        core::MultiLinkObservation obs;
        obs.timestamp = r.timestamp;
        obs.has_env = !in_window(r.timestamp, 1200.0, 1230.0);
        obs.temperature_c = r.temperature_c;
        obs.humidity_pct = r.humidity_pct;
        obs.links = frames;
        h = fold_decision(h, det.process(obs), /*with_links_used=*/true);
    }
    const core::FusionStats& st = det.stats();
    EXPECT_EQ(st.full_fusion, 635u);
    EXPECT_EQ(st.subset_fusion, 1179u);
    EXPECT_EQ(st.single_link, 153u);
    EXPECT_EQ(st.env_only, 8u);
    EXPECT_EQ(st.stale_hold, 25u);
    EXPECT_EQ(st.link_frames_rejected, 140u);
    EXPECT_EQ(st.csi_frames_repaired, 0u);
    EXPECT_EQ(h, 0xf2861ab569729b2aull);
}

TEST(LinkFusion, RepairsPartlyCorruptLinkFromItsOwnDonor) {
    // A frame with a few bad subcarriers is forward-filled from its own
    // link's last usable frame and keeps its vote; a frame with more than
    // half its subcarriers bad is still rejected.
    const std::vector<data::Dataset> links = four_link_datasets(600);
    core::MultiLinkDetector det(four_link_config());
    det.fit(core::fused_dataset(links).view());
    std::vector<core::LinkFrame> frames(kPinLinks);
    const auto observe = [&](std::size_t i) {
        core::MultiLinkObservation obs;
        obs.timestamp = links[0][i].timestamp;
        obs.has_env = true;
        obs.temperature_c = links[0][i].temperature_c;
        obs.humidity_pct = links[0][i].humidity_pct;
        obs.links = frames;
        return det.process(obs);
    };
    const auto deliver = [&](std::size_t i) {
        for (std::size_t l = 0; l < kPinLinks; ++l) {
            frames[l].present = true;
            frames[l].csi = links[l][i].csi;
        }
    };
    for (std::size_t i = 0; i < 20; ++i) {  // every link's donor is fresh
        deliver(i);
        ASSERT_EQ(observe(i).tier, core::FusionTier::kFullFusion);
    }

    deliver(20);
    frames[2].csi[5] = std::numeric_limits<float>::quiet_NaN();
    frames[2].csi[40] = std::numeric_limits<float>::infinity();
    const core::FusionDecision repaired = observe(20);
    EXPECT_EQ(repaired.tier, core::FusionTier::kFullFusion);
    EXPECT_EQ(repaired.links_used, 4u);
    EXPECT_TRUE(repaired.base.csi_repaired);
    EXPECT_EQ(det.stats().csi_frames_repaired, 1u);
    EXPECT_EQ(det.stats().csi_values_imputed, 2u);
    EXPECT_EQ(det.stats().link_frames_rejected, 0u);

    deliver(21);
    for (std::size_t k = 0; k < 33; ++k)
        frames[1].csi[k] = std::numeric_limits<float>::quiet_NaN();
    const core::FusionDecision rejected = observe(21);
    EXPECT_EQ(rejected.tier, core::FusionTier::kSubsetFusion);
    EXPECT_EQ(rejected.links_used, 3u);
    EXPECT_FALSE(rejected.base.csi_repaired);
    EXPECT_EQ(det.stats().csi_frames_repaired, 1u);
    EXPECT_EQ(det.stats().link_frames_rejected, 1u);
}

TEST(LinkFusion, ProcessAllocatesNothingAfterFit) {
    // fit() leaves both models' single-record workspaces sized, so neither
    // the first full-fusion decision nor the first env-only one, which may
    // come hours into serving, touches the heap.
    const std::vector<data::Dataset> links = four_link_datasets(600);
    core::MultiLinkDetector det(four_link_config());
    det.fit(core::fused_dataset(links).view());
    std::vector<core::LinkFrame> frames(kPinLinks);
    const auto probed = [&](std::size_t i) {
        core::MultiLinkObservation obs;
        obs.timestamp = links[0][i].timestamp;
        obs.has_env = true;
        obs.temperature_c = links[0][i].temperature_c;
        obs.humidity_pct = links[0][i].humidity_pct;
        obs.links = frames;
        const wifisense::alloc::AllocationProbe probe;
        const core::FusionDecision d = det.process(obs);
        EXPECT_EQ(probe.delta(), 0u) << "tick " << i;
        return d.tier;
    };
    for (std::size_t i = 0; i < 20; ++i) {
        for (std::size_t l = 0; l < kPinLinks; ++l) {
            frames[l].present = true;
            frames[l].csi = links[l][i].csi;
        }
        ASSERT_EQ(probed(i), core::FusionTier::kFullFusion);
    }
    for (core::LinkFrame& f : frames) f.present = false;
    EXPECT_EQ(probed(20), core::FusionTier::kEnvOnly);
}

// ---------------------------------------------------------------------------
// core::Pipeline: per-link wire bytes in, one decision per instant out.
// ---------------------------------------------------------------------------

namespace {

/// Every field of a decision, doubles as raw bits.
std::uint64_t fold_full(std::uint64_t h, const core::FusionDecision& d) {
    const double v[5] = {d.base.probability, d.base.confidence, d.base.csi_health,
                         d.base.env_health, d.mean_link_health};
    const std::uint32_t u[5] = {static_cast<std::uint32_t>(d.tier),
                                static_cast<std::uint32_t>(d.base.prediction),
                                d.base.csi_repaired, d.base.env_held, d.links_used};
    return fnv1a(fnv1a(h, v, sizeof(v)), u, sizeof(u));
}

struct Decided {
    std::uint32_t seq;
    double t;
    bool has_env;
    core::FusionTier tier;
};

struct Recorder final : core::DecisionSink {
    std::vector<Decided> decided;
    std::uint64_t digest = kFnvBasis;
    void on_decision(std::uint32_t seq, const core::MultiLinkObservation& obs,
                     const core::FusionDecision& d) override {
        decided.push_back({seq, obs.timestamp, obs.has_env, d.tier});
        digest = fold_full(digest, d);
    }
};

enum class Chunking { kWhole, kByteByByte, kRandomSplits };

/// Frames links [0, pushed) (wire faults from `plan`, if any) and pushes
/// every instant's bytes link by link, cut as `chunking` says. Instants for
/// which `dark` holds are encoded but never pushed.
void serve(core::Pipeline& pipeline, const std::vector<data::Dataset>& links,
           std::size_t pushed, Chunking chunking,
           const common::FaultPlan* plan = nullptr,
           bool (*dark)(std::size_t) = nullptr) {
    std::mt19937_64 rng(0xC40C5);
    std::vector<data::LinkEncoder> encoders;
    for (std::size_t l = 0; l < pushed; ++l)
        encoders.emplace_back(static_cast<std::uint8_t>(l), 6, plan);
    std::vector<std::uint8_t> chunk;
    const std::size_t n = links[0].size();
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t l = 0; l < pushed; ++l) {
            chunk.clear();
            encoders[l].encode(links[l][i], chunk);
            if (i + 1 == n) encoders[l].flush(chunk);
            if (dark != nullptr && dark(i)) continue;
            std::span<const std::uint8_t> rest(chunk);
            while (!rest.empty()) {
                std::size_t take = rest.size();
                if (chunking == Chunking::kByteByByte) take = 1;
                if (chunking == Chunking::kRandomSplits) take = 1 + rng() % rest.size();
                pipeline.push(l, rest.first(take));
                rest = rest.subspan(take);
            }
        }
    }
    pipeline.finish();
}

core::MultiLinkDetector fitted_four_link_detector() {
    const std::vector<data::Dataset> train = four_link_datasets(600);
    core::MultiLinkDetector det(four_link_config());
    EXPECT_TRUE(det.calibrate_links(train).is_ok());
    det.fit(core::link_dropout_fused(train).view());
    return det;
}

}  // namespace

TEST(Pipeline, CleanWireMatchesDirectProcess) {
    // On a clean wire the pipeline must hand process() exactly what the
    // records say, wherever the chunks split and however many of the four
    // configured links deliver.
    core::MultiLinkDetector det = fitted_four_link_detector();
    const std::vector<data::Dataset> links = four_link_datasets(300);
    const std::size_t n = links[0].size();
    Recorder rec;
    core::Pipeline pipeline(det, rec);
    for (const std::size_t pushed : {std::size_t{4}, std::size_t{3}, std::size_t{1}}) {
        det.reset_stream();
        std::uint64_t want = kFnvBasis;
        std::vector<core::LinkFrame> frames(kPinLinks);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t l = 0; l < kPinLinks; ++l) {
                frames[l].present = l < pushed;
                frames[l].csi = links[l][i].csi;
            }
            core::MultiLinkObservation obs;
            obs.timestamp = links[0][i].timestamp;
            obs.has_env = true;
            obs.temperature_c = links[0][i].temperature_c;
            obs.humidity_pct = links[0][i].humidity_pct;
            obs.links = frames;
            want = fold_full(want, det.process(obs));
        }
        for (const Chunking c : {Chunking::kWhole, Chunking::kByteByByte,
                                 Chunking::kRandomSplits}) {
            SCOPED_TRACE(testing::Message() << pushed << " links pushed, chunking "
                                            << static_cast<int>(c));
            pipeline.reset();
            rec = Recorder{};
            serve(pipeline, links, pushed, c);
            EXPECT_EQ(rec.decided.size(), n);
            EXPECT_EQ(rec.digest, want);
        }
    }
}

TEST(Pipeline, DecisionsIgnoreGroundTruthFields) {
    // The payload carries the simulator's labels; zeroing them at encode
    // time must not move a single decision bit, faulted wire included.
    core::MultiLinkDetector det = fitted_four_link_detector();
    std::vector<data::Dataset> links = four_link_datasets(1200);
    for (data::Dataset& d : links)
        for (std::size_t i = 0; i < d.size(); ++i) {
            d[i].room_id = 3 + static_cast<std::uint32_t>(i % 5);
            d[i].activity = static_cast<std::uint8_t>(1 + i % 2);
        }
    std::vector<data::Dataset> blind = links;
    for (data::Dataset& d : blind)
        for (std::size_t i = 0; i < d.size(); ++i) {
            d[i].occupancy = 0;
            d[i].occupant_count = 0;
            d[i].activity = 0;
            d[i].room_id = 0;
        }
    common::FaultConfig f;
    f.wire_corrupt_rate = 0.05;
    f.wire_truncate_rate = 0.03;
    f.wire_reorder_rate = 0.05;
    f.wire_duplicate_rate = 0.05;
    f.link_outage_rate_per_h = 8.0;
    f.link_outage_len_s = 60.0;
    f.link_clock_skew_s = 0.5;
    f.seed = 0x6A0D;
    const common::FaultPlan plan(f);
    Recorder rec;
    core::Pipeline pipeline(det, rec);
    serve(pipeline, links, kPinLinks, Chunking::kRandomSplits, &plan);
    const Recorder labelled = rec;
    pipeline.reset();
    rec = Recorder{};
    serve(pipeline, blind, kPinLinks, Chunking::kRandomSplits, &plan);
    EXPECT_GT(pipeline.join_stats().timed_out_instants, 0u);
    ASSERT_EQ(rec.decided.size(), labelled.decided.size());
    EXPECT_EQ(rec.digest, labelled.digest);
}

TEST(Pipeline, DarkInstantsDecidedOnceAtSampleTime) {
    // Every link goes silent for 30 one-second instants, longer than the
    // join's 16-slot ring, and again for the last 3. The block is still
    // decided instant by instant at the records' own times, with no env:
    // the 5 s env hold covers its first five instants, then the ladder
    // falls to stale-hold. Instants after the last frame are not decided.
    core::MultiLinkDetector det = fitted_four_link_detector();
    const std::vector<data::Dataset> links = four_link_datasets(200);
    Recorder rec;
    core::Pipeline pipeline(det, rec);
    serve(pipeline, links, kPinLinks, Chunking::kWhole, nullptr,
          [](std::size_t i) { return (i >= 100 && i < 130) || i >= 197; });
    ASSERT_EQ(rec.decided.size(), 197u);
    for (std::size_t k = 0; k < rec.decided.size(); ++k) {
        const Decided& d = rec.decided[k];
        SCOPED_TRACE(testing::Message() << "instant " << k);
        EXPECT_EQ(d.seq, k);
        EXPECT_EQ(d.t, links[0][k].timestamp);
        const bool dark = k >= 100 && k < 130;
        EXPECT_EQ(d.has_env, !dark);
        if (dark)
            EXPECT_EQ(d.tier, k < 105 ? core::FusionTier::kEnvOnly
                                      : core::FusionTier::kStaleHold);
    }
}
