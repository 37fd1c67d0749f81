// Validating ingest for Table-I record streams.
//
// Real captures (Nexmon Pi + Thingy 52) deliver NaN/Inf amplitudes,
// saturated frames, missing subcarriers, frozen env readings, and gaps.
// The seed reproduction assumed a perfect gapless stream; this layer makes
// Dataset construction safe against an arbitrary byte stream:
//
//   RecordValidator   per-record streaming triage: accept / repair /
//                     quarantine, with bounded forward-fill imputation and
//                     full accounting (IngestStats).
//   sanitize_records  batch wrapper producing a guaranteed-finite Dataset.
//   resample_forward_fill
//                     gap-aware resampling onto a fixed grid with a bounded
//                     staleness budget (holes wider than the budget stay
//                     holes instead of being papered over).
//
// Invariant downstream code relies on: every record that leaves this layer
// has finite CSI amplitudes, finite in-range env values, and a timestamp
// not older than the previous accepted record.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "data/dataset.hpp"
#include "data/record.hpp"

namespace wifisense::data {

struct ValidationPolicy {
    /// Forward-fill horizon: a bad value may be imputed from the last good
    /// one if that value is at most this old; otherwise the record is
    /// quarantined. Also the resampler's maximum hold time.
    double staleness_budget_s = 5.0;

    /// A frame with more than this fraction of bad subcarriers is not
    /// repaired (imputing most of a frame fabricates data) — quarantine.
    double max_bad_subcarrier_fraction = 0.5;

    /// Saturation detector: a frame is "saturated" (AGC railed, amplitudes
    /// carry no information) when at least `saturation_fraction` of its
    /// subcarriers sit at or above `saturation_level` (the receiver's full
    /// scale). Saturated frames are quarantined, never imputed.
    double saturation_level = 0.02;
    double saturation_fraction = 0.9;

    /// Plausible environmental ranges for an office (outside => bad value).
    double temp_min_c = -30.0;
    double temp_max_c = 60.0;
    double humidity_min_pct = 0.0;
    double humidity_max_pct = 100.0;

    /// Expected inter-record period for gap accounting; 0 infers it from
    /// the first two accepted records.
    double expected_period_s = 0.0;
    /// A spacing above `gap_factor * expected_period` counts as a gap.
    double gap_factor = 1.5;
};

/// The last good CSI frame of a stream: the donor that forward-fill
/// repairs non-finite amplitudes from. Each owner decides when to refresh
/// it (the validator on every accepted record, the resilient detector on
/// every usable frame).
struct CsiDonor {
    bool valid = false;
    double t = 0.0;
    std::array<float, kNumSubcarriers> csi{};
};

/// Forward-fill one frame that has `bad` non-finite amplitudes at stream
/// time `t`: each is replaced by the donor's value when at most
/// `policy.max_bad_subcarrier_fraction` of the frame is bad and the donor
/// is at most `policy.staleness_budget_s` old. Returns false, leaving `csi`
/// untouched, when the frame cannot be repaired; `bad == 0` succeeds.
[[nodiscard]] bool forward_fill_csi(std::array<float, kNumSubcarriers>& csi,
                                    std::size_t bad, double t,
                                    const CsiDonor& donor,
                                    const ValidationPolicy& policy);

enum class RecordDisposition : std::uint8_t {
    kAccepted = 0,    ///< clean, untouched
    kRepaired = 1,    ///< bad fields imputed in place; safe to ingest
    kQuarantined = 2, ///< unusable; must not enter a Dataset
};

/// Quarantine / imputation / gap accounting. Counters are exact: total ==
/// accepted + repaired + quarantined, and every imputed value is counted.
struct IngestStats {
    std::uint64_t total = 0;
    std::uint64_t accepted = 0;
    std::uint64_t repaired = 0;
    std::uint64_t quarantined = 0;

    std::uint64_t csi_values_imputed = 0;  ///< individual subcarrier fills
    std::uint64_t env_values_imputed = 0;  ///< temperature/humidity fills
    std::uint64_t nonfinite_frames = 0;    ///< frames with NaN/Inf amplitudes
    std::uint64_t saturated_frames = 0;
    std::uint64_t bad_env_records = 0;     ///< NaN/Inf/out-of-range T or H
    std::uint64_t nonmonotonic_timestamps = 0;

    std::uint64_t gaps = 0;
    double max_gap_s = 0.0;
    /// Synthesized rows emitted by resample_forward_fill (0 for the
    /// streaming validator).
    std::uint64_t rows_forward_filled = 0;

    /// Fold another stream's accounting into this one (counters sum,
    /// max_gap_s takes the max). Multi-link ingest runs one validator per
    /// link and merges for fleet-level reporting.
    void merge(const IngestStats& other);

    std::string summary() const;  ///< one-line human-readable digest
};

class RecordValidator {
public:
    explicit RecordValidator(ValidationPolicy policy = {});

    /// Triage one record in stream order. kRepaired mutates `r` in place
    /// (imputed values); kQuarantined leaves `r` unspecified and the caller
    /// must drop it. Never throws on data content.
    [[nodiscard]] RecordDisposition ingest(SampleRecord& r);

    const IngestStats& stats() const { return stats_; }
    const ValidationPolicy& policy() const { return policy_; }

    /// Forget the stream history (last-good values, timestamps). Stats are
    /// kept; call between independent files.
    void reset_stream();

private:
    /// The triage logic; ingest() wraps it with observability accounting.
    [[nodiscard]] RecordDisposition ingest_impl(SampleRecord& r);

    ValidationPolicy policy_;
    IngestStats stats_;
    CsiDonor csi_donor_;
    bool has_last_env_ = false;
    double last_env_t_ = 0.0;
    float last_temp_ = 0.0f;
    float last_hum_ = 0.0f;
    bool has_last_t_ = false;
    double last_t_ = 0.0;
    double inferred_period_ = 0.0;
};

struct CleanIngest {
    Dataset dataset;   ///< quarantined rows removed, repairs applied
    IngestStats stats;
};

/// Batch triage of a record stream: returns a Dataset that is guaranteed
/// free of NaN/Inf and non-monotonic timestamps, plus the accounting.
[[nodiscard]] CleanIngest sanitize_records(std::vector<SampleRecord> records,
                                           const ValidationPolicy& policy = {});

/// Gap-aware resampling onto a fixed `period_s` grid spanning the view's
/// time range. Grid points whose newest record is at most
/// `policy.staleness_budget_s` old emit that record (timestamp rewritten to
/// the grid); staler points stay holes. Fill/gap accounting lands in the
/// returned stats. The input must be validated (use sanitize_records first).
[[nodiscard]] CleanIngest resample_forward_fill(const DatasetView& view,
                                                double period_s,
                                                const ValidationPolicy& policy = {});

}  // namespace wifisense::data
