#include "data/record_validator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/metrics.hpp"

namespace wifisense::data {

namespace {

bool env_value_ok(float v, double lo, double hi) {
    return std::isfinite(v) && v >= lo && v <= hi;
}

}  // namespace

bool forward_fill_csi(std::array<float, kNumSubcarriers>& csi, std::size_t bad,
                      double t, const CsiDonor& donor,
                      const ValidationPolicy& policy) {
    if (bad == 0) return true;
    if ((double)bad > policy.max_bad_subcarrier_fraction * (double)kNumSubcarriers)
        return false;
    // Negated so a NaN stream time never counts as fresh.
    if (!donor.valid || !(t - donor.t <= policy.staleness_budget_s)) return false;
    for (std::size_t i = 0; i < kNumSubcarriers; ++i)
        if (!std::isfinite(csi[i])) csi[i] = donor.csi[i];
    return true;
}

void IngestStats::merge(const IngestStats& other) {
    total += other.total;
    accepted += other.accepted;
    repaired += other.repaired;
    quarantined += other.quarantined;
    csi_values_imputed += other.csi_values_imputed;
    env_values_imputed += other.env_values_imputed;
    nonfinite_frames += other.nonfinite_frames;
    saturated_frames += other.saturated_frames;
    bad_env_records += other.bad_env_records;
    nonmonotonic_timestamps += other.nonmonotonic_timestamps;
    gaps += other.gaps;
    max_gap_s = std::max(max_gap_s, other.max_gap_s);
    rows_forward_filled += other.rows_forward_filled;
}

std::string IngestStats::summary() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "ingest: %llu records (%llu accepted, %llu repaired, %llu "
                  "quarantined), %llu csi + %llu env values imputed, %llu "
                  "gaps (max %.2fs)",
                  (unsigned long long)total, (unsigned long long)accepted,
                  (unsigned long long)repaired, (unsigned long long)quarantined,
                  (unsigned long long)csi_values_imputed,
                  (unsigned long long)env_values_imputed,
                  (unsigned long long)gaps, max_gap_s);
    return buf;
}

RecordValidator::RecordValidator(ValidationPolicy policy) : policy_(policy) {
    if (policy_.staleness_budget_s < 0.0)
        throw std::invalid_argument("RecordValidator: negative staleness budget");
    if (policy_.max_bad_subcarrier_fraction < 0.0 ||
        policy_.max_bad_subcarrier_fraction > 1.0)
        throw std::invalid_argument(
            "RecordValidator: max_bad_subcarrier_fraction outside [0,1]");
    if (policy_.saturation_fraction <= 0.0 || policy_.saturation_fraction > 1.0)
        throw std::invalid_argument(
            "RecordValidator: saturation_fraction outside (0,1]");
    inferred_period_ = policy_.expected_period_s;
}

void RecordValidator::reset_stream() {
    csi_donor_.valid = false;
    has_last_env_ = false;
    has_last_t_ = false;
    inferred_period_ = policy_.expected_period_s;
}

RecordDisposition RecordValidator::ingest(SampleRecord& r) {
    if (!common::metrics_enabled()) return ingest_impl(r);
    // Mirror the exact stats deltas of this record into the process-wide
    // metric registry (common/metrics.hpp) so quarantine/repair rates are
    // visible without plumbing an IngestStats out of every call site.
    const IngestStats before = stats_;
    const RecordDisposition d = ingest_impl(r);
    static common::Counter& obs_accepted = common::obs_counter("ingest.accepted");
    static common::Counter& obs_repaired = common::obs_counter("ingest.repaired");
    static common::Counter& obs_quarantined =
        common::obs_counter("ingest.quarantined");
    static common::Counter& obs_csi_imputed =
        common::obs_counter("ingest.csi_values_imputed");
    static common::Counter& obs_env_imputed =
        common::obs_counter("ingest.env_values_imputed");
    obs_accepted.add(stats_.accepted - before.accepted);
    obs_repaired.add(stats_.repaired - before.repaired);
    obs_quarantined.add(stats_.quarantined - before.quarantined);
    obs_csi_imputed.add(stats_.csi_values_imputed - before.csi_values_imputed);
    obs_env_imputed.add(stats_.env_values_imputed - before.env_values_imputed);
    return d;
}

RecordDisposition RecordValidator::ingest_impl(SampleRecord& r) {
    ++stats_.total;

    // --- Timestamp sanity: the stream must move forward. ---------------------
    if (!std::isfinite(r.timestamp) ||
        (has_last_t_ && r.timestamp < last_t_)) {
        ++stats_.nonmonotonic_timestamps;
        ++stats_.quarantined;
        return RecordDisposition::kQuarantined;
    }

    // --- Gap accounting (before any repair decisions). -----------------------
    if (has_last_t_) {
        const double dt = r.timestamp - last_t_;
        if (inferred_period_ <= 0.0 && dt > 0.0) inferred_period_ = dt;
        if (inferred_period_ > 0.0 && dt > policy_.gap_factor * inferred_period_) {
            ++stats_.gaps;
            stats_.max_gap_s = std::max(stats_.max_gap_s, dt);
        }
    }

    bool repaired = false;

    // --- CSI frame triage. ---------------------------------------------------
    std::size_t bad = 0;
    std::size_t railed = 0;
    // Compare in float: amplitudes are float32, and a frame pinned at
    // full scale stores the nearest-float of the level (0.02f < 0.02).
    const float sat_level = static_cast<float>(policy_.saturation_level);
    for (float a : r.csi) {
        if (!std::isfinite(a)) {
            ++bad;
        } else if (a >= sat_level) {
            ++railed;
        }
    }
    if (bad > 0) ++stats_.nonfinite_frames;

    const bool saturated =
        railed >= (std::size_t)std::ceil(policy_.saturation_fraction *
                                         (double)kNumSubcarriers);
    if (saturated) {
        ++stats_.saturated_frames;
        ++stats_.quarantined;
        has_last_t_ = true;  // time still advanced
        last_t_ = r.timestamp;
        return RecordDisposition::kQuarantined;
    }

    if (bad > 0) {
        if (!forward_fill_csi(r.csi, bad, r.timestamp, csi_donor_, policy_)) {
            ++stats_.quarantined;
            has_last_t_ = true;
            last_t_ = r.timestamp;
            return RecordDisposition::kQuarantined;
        }
        stats_.csi_values_imputed += bad;
        repaired = true;
    }

    // --- Env triage. ---------------------------------------------------------
    const bool temp_ok =
        env_value_ok(r.temperature_c, policy_.temp_min_c, policy_.temp_max_c);
    const bool hum_ok = env_value_ok(r.humidity_pct, policy_.humidity_min_pct,
                                     policy_.humidity_max_pct);
    if (!temp_ok || !hum_ok) {
        ++stats_.bad_env_records;
        const bool donor_fresh =
            has_last_env_ &&
            r.timestamp - last_env_t_ <= policy_.staleness_budget_s;
        if (!donor_fresh) {
            ++stats_.quarantined;
            has_last_t_ = true;
            last_t_ = r.timestamp;
            return RecordDisposition::kQuarantined;
        }
        if (!temp_ok) {
            r.temperature_c = last_temp_;
            ++stats_.env_values_imputed;
        }
        if (!hum_ok) {
            r.humidity_pct = last_hum_;
            ++stats_.env_values_imputed;
        }
        repaired = true;
    }

    // --- Record accepted: refresh donor state. -------------------------------
    csi_donor_ = CsiDonor{true, r.timestamp, r.csi};
    last_temp_ = r.temperature_c;
    last_hum_ = r.humidity_pct;
    last_env_t_ = r.timestamp;
    has_last_env_ = true;
    has_last_t_ = true;
    last_t_ = r.timestamp;

    if (repaired) {
        ++stats_.repaired;
        return RecordDisposition::kRepaired;
    }
    ++stats_.accepted;
    return RecordDisposition::kAccepted;
}

CleanIngest sanitize_records(std::vector<SampleRecord> records,
                             const ValidationPolicy& policy) {
    RecordValidator validator(policy);
    std::size_t out = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        SampleRecord r = records[i];
        if (validator.ingest(r) != RecordDisposition::kQuarantined)
            records[out++] = r;
    }
    records.resize(out);
    return CleanIngest{Dataset(std::move(records)), validator.stats()};
}

CleanIngest resample_forward_fill(const DatasetView& view, double period_s,
                                  const ValidationPolicy& policy) {
    if (period_s <= 0.0)
        throw std::invalid_argument("resample_forward_fill: period_s <= 0");
    CleanIngest out;
    if (view.empty()) return out;

    const double t0 = view.start_time();
    const double t1 = view.end_time();
    const std::size_t n_grid = (std::size_t)std::floor((t1 - t0) / period_s) + 1;
    out.dataset.reserve(n_grid);

    std::size_t src = 0;  // newest record with timestamp <= grid time
    for (std::size_t g = 0; g < n_grid; ++g) {
        const double t = t0 + (double)g * period_s;
        while (src + 1 < view.size() && view[src + 1].timestamp <= t) ++src;
        const double age = t - view[src].timestamp;
        ++out.stats.total;
        if (age > policy.staleness_budget_s) {
            // Hole wider than the budget: leave it a hole.
            ++out.stats.quarantined;
            ++out.stats.gaps;
            out.stats.max_gap_s = std::max(out.stats.max_gap_s, age);
            continue;
        }
        SampleRecord r = view[src];
        r.timestamp = t;
        if (age > 0.0) {
            ++out.stats.rows_forward_filled;
            ++out.stats.repaired;
        } else {
            ++out.stats.accepted;
        }
        out.dataset.push_back(r);
    }
    return out;
}

}  // namespace wifisense::data
