// Serving / offline benchmark program for the wifisense pipeline. NOTES.md
// beside this file explains why each workload exists and what each metric
// should move.
//
//   wifisense_perfbench --workload serve_clean|serve_faulty|offline
//       [--seed N] [--sim-seed N] [--fault-seed N] [--seconds S] [--trace 0|1]
//
// serve_*  bytes in -> decision out. Each link's test-period records are
//          encoded once (LinkEncoder); every pass replays those bytes through
//          a TelemetryDecoder and a LinkReassembler per link, a sequence-keyed
//          join and MultiLinkDetector::process, one sample instant at a time,
//          on one thread with one instant in flight (a closed loop).
// offline  MultiLinkDetector::fit on a fixed-size training sample, then the
//          test period through OccupancyDetector::predict in 4096-row calls,
//          and the same rows through the int8 network.
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate traced
// run that reports per-layer self times and counts. Human-readable lines come
// first; the last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. Exit 1 on a failed output check, 2 on bad
// arguments.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "core/link_fusion.hpp"
#include "core/occupancy_detector.hpp"
#include "data/dataset.hpp"
#include "data/folds.hpp"
#include "data/link_ingest.hpp"
#include "data/telemetry.hpp"
#include "envsim/simulation.hpp"
#include "nn/kernels/backend.hpp"
#include "nn/layer.hpp"
#include "nn/quant.hpp"
#include "nn/tensor.hpp"
#include "nn/trainer.hpp"

namespace {

using namespace wifisense;

// ---- Fixed settings (NOTES.md, "Settings fixed inside the benchmark") -----
constexpr std::size_t kLinks = 4;
/// 74.5 h paper timeline at 0.1 Hz: 26,820 instants, 8,046 in the test
/// period.
constexpr double kRateHz = 0.1;
/// Fixed-size training sample, strided over the 70% training period.
constexpr std::size_t kTrainRows = 4096;
/// setup_s is the median over this many complete set-ups in one run.
constexpr int kSetupReps = 3;
/// Bounded join wait, in instants. An instant still missing a link after W
/// instants flushes that link's reassembler and is decided without it. W
/// exceeds the longest time an intact frame can spend in the encoder (a
/// reordered frame held across a chained outage: 3 instants at this rate and
/// outage length), so no intact frame misses its instant.
constexpr std::size_t kJoinWait = 4;
constexpr std::size_t kJoinSlots = 16;
/// Largest offline predict call (= the nn batch size).
constexpr std::size_t kScoreRows = 4096;
constexpr std::uint8_t kChannel = 6;
/// serve_faulty's transport plan; ",seed=<fault seed>" is appended per run.
constexpr const char* kFaultSpec =
    "wire_corrupt=0.12,wire_truncate=0.06,wire_reorder=0.02,"
    "wire_duplicate=0.02,link_outage_rate=6,link_outage_len=10";
/// Accuracy floor (percent) for every workload, well under the 90-98% the
/// seeds give; every workload must also beat the majority-class share of the
/// test period by kMinLiftPp. Offline int8 must stay within kInt8MaxDropPp of
/// float.
constexpr double kAccuracyFloor = 80.0;
constexpr double kMinLiftPp = 5.0;
constexpr double kInt8MaxDropPp = 0.5;
/// Traced run: the serve loop's layer self times must cover this share of
/// the traced per-instant time.
constexpr double kMinLayerSharePct = 90.0;

/// Pinned digests of serve_faulty's per-instant (tier, link-presence mask)
/// sequence, by fault seed. Tiers follow link presence and health, not model
/// outputs, so the digest survives float reassociation in the kernels.
struct PinnedDigest {
    std::uint64_t fault_seed;
    std::uint64_t digest;
};
constexpr PinnedDigest kPinnedDigests[] = {
    {7, 0xa416eeaa89500795ull},
    {11, 0x725a5f522d8378e8ull},
};

std::uint64_t now_ns() { return common::trace_now_ns(); }
double seconds_since(std::uint64_t t0) { return common::trace_seconds_since(t0); }

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
    const double hi = v[mid];
    if (v.size() % 2 != 0) return hi;
    return 0.5 * (hi + *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid)));
}

/// Nearest-rank percentile, q in (0, 1].
template <class T>
T percentile(std::vector<T> v, double q) {
    if (v.empty()) return T{};
    auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
    return v[rank];
}

std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ull;
    }
    return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

double peak_rss_mib() {
    struct rusage ru {};
    if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---- Output: metric lines, checks, the final JSON line ---------------------

class Report {
public:
    /// A metric printed as a line; `json` metrics also go into the result.
    void metric(const char* name, double value, const char* unit,
                bool json = true) {
        std::printf("  %-34s %16.6f %s\n", name, value, unit);
        if (!std::isfinite(value)) {
            check(false, "metric %s is not finite", name);
            value = -1.0;
        }
        if (json) metrics_.push_back({name, value, unit});
    }
    void check(bool ok, const char* fmt, ...) __attribute__((format(printf, 3, 4))) {
        if (ok) return;
        std::va_list ap;
        va_start(ap, fmt);
        std::fputs("CHECK FAILED: ", stderr);
        std::vfprintf(stderr, fmt, ap);
        std::fputc('\n', stderr);
        va_end(ap);
        correct_ = false;
    }
    [[nodiscard]] bool correct() const { return correct_; }

    void print_json(std::uint64_t attempted, std::uint64_t failed) const {
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                    correct_ ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        for (std::size_t i = 0; i < metrics_.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                        metrics_[i].value, metrics_[i].unit.c_str());
        std::printf("}}\n");
    }

private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    bool correct_ = true;
};

// ---- Data: the 4-link paper collection and the training sample -------------

struct Corpus {
    std::vector<data::Dataset> links;
    data::Dataset fused;
    /// Rows [0, test_begin) are the 70% training period; the rest is the
    /// test period, one row per sample instant.
    std::size_t test_begin = 0;
    std::size_t instants = 0;
    /// kTrainRows link-dropout rows, strided over the training period.
    data::Dataset train_sample;
    double sim_s = 0.0;

    [[nodiscard]] data::DatasetView test_view() const {
        return fused.slice(test_begin, fused.size());
    }
    [[nodiscard]] std::uint64_t digest() const {
        std::uint64_t h = kFnvBasis;
        for (const data::Dataset& d : links)
            h = fnv1a(h, d.records().data(), d.size() * sizeof(data::SampleRecord));
        return fnv1a(h, train_sample.records().data(),
                     train_sample.size() * sizeof(data::SampleRecord));
    }
};

Corpus simulate(std::uint64_t sim_seed) {
    Corpus c;
    envsim::SimulationConfig cfg = envsim::paper_config(kRateHz, sim_seed);
    const std::vector<csi::Vec3> pos = envsim::default_link_positions(cfg.room, kLinks);
    cfg.extra_rx.assign(pos.begin() + 1, pos.end());
    // Reserved up front: no reallocation while the simulator streams.
    const auto expected = static_cast<std::size_t>(cfg.duration_s * kRateHz) + 2;
    c.links.resize(kLinks);
    for (data::Dataset& d : c.links) d.reserve(expected);
    const std::uint64_t t0 = now_ns();
    envsim::OfficeSimulator sim(cfg);
    sim.run_links([&](std::uint8_t link, const data::SampleRecord& r) {
        c.links[link].push_back(r);
    });
    c.sim_s = seconds_since(t0);

    c.fused = core::fused_dataset(c.links);
    const data::FoldSplit split = data::split_paper_folds(c.fused);
    c.test_begin = split.train.size();
    c.instants = c.fused.size() - c.test_begin;
    // The same link-dropout augmentation bench_multilink trains on, sampled
    // at a fixed size so the training cost does not follow the rate.
    const data::Dataset aug = core::link_dropout_fused(c.links, 0, c.test_begin);
    c.train_sample.reserve(kTrainRows);
    for (std::size_t k = 0; k < kTrainRows; ++k)
        c.train_sample.push_back(aug[k * aug.size() / kTrainRows]);
    return c;
}

std::unique_ptr<core::MultiLinkDetector> make_detector(const Corpus& c) {
    core::MultiLinkConfig cfg;
    cfg.n_links = kLinks;
    auto det = std::make_unique<core::MultiLinkDetector>(cfg);
    det->calibrate_links(c.links, 0, c.test_begin).throw_if_error();
    return det;
}

/// Optimizer steps of one MultiLinkDetector::fit: both models run the
/// default schedule over the sample.
std::uint64_t fit_steps() {
    const nn::TrainConfig t = core::DetectorConfig{}.training;
    const std::uint64_t batches = (kTrainRows + t.batch_size - 1) / t.batch_size;
    return 2 * t.epochs * batches;
}

// ---- Wire: each link's test period, encoded once ---------------------------

struct Wire {
    std::array<std::vector<std::uint8_t>, kLinks> bytes;
    /// cut[l][i]: end offset of the bytes link l's encoder emitted for
    /// instant i (end-of-stream flush included in the last instant).
    std::array<std::vector<std::size_t>, kLinks> cut;
    /// Per instant, bit l set when the plan neither dropped nor damaged link
    /// l's frame (FaultPlan::link_offline and wire_fault).
    std::vector<std::uint8_t> intact;
    /// Instants where the plan touches at least one link's frame.
    std::size_t faulted_instants = 0;
    double encode_ns_per_frame = 0.0;

    [[nodiscard]] std::span<const std::uint8_t> chunk(std::size_t l, std::size_t i) const {
        const std::size_t begin = i == 0 ? 0 : cut[l][i - 1];
        return {bytes[l].data() + begin, cut[l][i] - begin};
    }
};

Wire encode(const Corpus& c, const common::FaultPlan* plan) {
    Wire w;
    const std::size_t n = c.instants;
    std::uint64_t encode_ns = 0;
    for (std::size_t l = 0; l < kLinks; ++l) {
        const auto link = static_cast<std::uint8_t>(l);
        w.bytes[l].reserve(n * data::kWireFrameBytes * 5 / 4);
        w.cut[l].resize(n);
        data::LinkEncoder enc(link, kChannel, plan);
        const std::uint64_t t0 = now_ns();
        for (std::size_t i = 0; i < n; ++i) {
            enc.encode(c.links[l][c.test_begin + i], w.bytes[l]);
            w.cut[l][i] = w.bytes[l].size();
        }
        enc.flush(w.bytes[l]);
        encode_ns += now_ns() - t0;
        w.cut[l][n - 1] = w.bytes[l].size();
    }
    w.encode_ns_per_frame = static_cast<double>(encode_ns) / static_cast<double>(n * kLinks);

    w.intact.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        bool touched = false;
        for (std::size_t l = 0; l < kLinks; ++l) {
            const auto link = static_cast<std::uint8_t>(l);
            bool ok = true;
            if (plan != nullptr) {
                const double t = c.links[l][c.test_begin + i].timestamp;
                const common::WireFault wf = plan->wire_fault(link, i);
                ok = !plan->link_offline(link, t) && !wf.corrupt && !wf.truncate;
                touched = touched || !ok || wf.any();
            }
            if (ok) w.intact[i] |= static_cast<std::uint8_t>(1u << l);
        }
        if (touched) ++w.faulted_instants;
    }
    return w;
}

// ---- Gateway: decoders, reassemblers, the join, the detector ---------------

/// Per-pass outcome of one instant.
struct Outcome {
    core::FusionTier tier = core::FusionTier::kStaleHold;
    std::uint8_t present = 0;  ///< links whose frame reached fusion
    bool decided = false;
};

struct PassStats {
    std::uint64_t decisions = 0;
    std::uint64_t correct = 0;
    std::uint64_t failed = 0;
    std::uint64_t bad_probability = 0;
    std::uint64_t decided_twice = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t max_wait = 0;
    std::uint64_t late_frames = 0;
    std::uint64_t max_pending = 0;
    std::uint64_t digest = kFnvBasis;
    double section_ns = 0.0;
};

/// The gateway thread's state: per link one decoder and one reassembler, then
/// a join keyed on the per-link sequence number (= test-period instant). An
/// instant is released once every link has emitted its sequence number or a
/// later one, or after kJoinWait instants (flushing the lagging links'
/// reassemblers first); released instants go through
/// MultiLinkDetector::process in instant order.
class Gateway {
public:
    Gateway(core::MultiLinkDetector& det, const Corpus& c, const Wire& w)
        : det_(det), corpus_(c), wire_(w), outcomes_(c.instants) {
        for (std::size_t l = 0; l < kLinks; ++l) {
            decode_sinks_[l] = DecodeSink(this, l);
            join_sinks_[l] = JoinSink(this, l);
        }
    }
    Gateway(const Gateway&) = delete;
    Gateway& operator=(const Gateway&) = delete;

    /// One pass over the whole test period; lat_ns[i] is instant i's section.
    PassStats run_pass(std::vector<double>& lat_ns) {
        reset();
        const std::size_t n = corpus_.instants;
        lat_ns.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t t0 = now_ns();
            {
                common::TraceScope span("instant");
                for (std::size_t l = 0; l < kLinks; ++l) {
                    common::TraceScope d("decode");
                    decoders_[l].push(wire_.chunk(l, i), decode_sinks_[l]);
                }
                const bool eos = i + 1 == n;
                if (eos) end_of_stream();
                release(i, eos);
            }
            lat_ns[i] = static_cast<double>(now_ns() - t0);
        }
        for (double v : lat_ns) stats_.section_ns += v;
        finish_stats();
        return stats_;
    }

    [[nodiscard]] const std::array<data::TelemetryDecoder, kLinks>& decoders() const {
        return decoders_;
    }
    [[nodiscard]] const std::array<data::LinkReassembler, kLinks>& reassemblers() const {
        return reassemblers_;
    }

private:
    struct DecodeSink final : data::WireSink {
        DecodeSink() = default;
        DecodeSink(Gateway* g, std::size_t l) : gw(g), link(l) {}
        void on_frame(const data::TelemetryFrame& f) override { gw->reassemble(link, f); }
        Gateway* gw = nullptr;
        std::size_t link = 0;
    };
    struct JoinSink final : data::FrameSink {
        JoinSink() = default;
        JoinSink(Gateway* g, std::size_t l) : gw(g), link(l) {}
        void on_frame(const data::TelemetryFrame& f) override { gw->join(link, f); }
        Gateway* gw = nullptr;
        std::size_t link = 0;
    };
    struct Slot {
        std::array<core::LinkFrame, kLinks> frames{};
        bool has_env = false;
        float temperature_c = 0.0f;
        float humidity_pct = 0.0f;
    };

    void reset() {
        det_.reset_stream();
        for (auto& d : decoders_) d.reset();
        for (auto& r : reassemblers_) r.reset();
        for (Slot& s : slots_) s = Slot{};
        through_.fill(0);
        next_ = 0;
        std::fill(outcomes_.begin(), outcomes_.end(), Outcome{});
        stats_ = PassStats{};
    }

    void reassemble(std::size_t l, const data::TelemetryFrame& f) {
        common::TraceScope span("reassemble");
        reassemblers_[l].push(f, join_sinks_[l]);
        stats_.max_pending = std::max<std::uint64_t>(stats_.max_pending,
                                                     reassemblers_[l].pending());
    }

    void end_of_stream() {
        for (std::size_t l = 0; l < kLinks; ++l) {
            common::TraceScope d("decode");
            decoders_[l].finish(decode_sinks_[l]);
        }
        for (std::size_t l = 0; l < kLinks; ++l) {
            common::TraceScope r("reassemble");
            reassemblers_[l].flush(join_sinks_[l]);
        }
    }

    /// A reassembled frame lands in its instant's slot (reassembly emits in
    /// sequence order, so `through_` only grows).
    void join(std::size_t l, const data::TelemetryFrame& f) {
        const std::size_t seq = f.sequence;
        if (seq < next_ || seq >= next_ + kJoinSlots || seq >= corpus_.instants) {
            ++stats_.late_frames;
            return;
        }
        Slot& s = slots_[seq % kJoinSlots];
        s.frames[l].present = true;
        s.frames[l].csi = f.record.csi;
        if (!s.has_env) {
            s.has_env = true;
            s.temperature_c = f.record.temperature_c;
            s.humidity_pct = f.record.humidity_pct;
        }
        through_[l] = std::max(through_[l], seq + 1);
    }

    void release(std::size_t i, bool eos) {
        common::TraceScope span("join");
        while (next_ < corpus_.instants) {
            if (*std::min_element(through_.begin(), through_.end()) <= next_ && !eos) {
                if (next_ + kJoinWait > i) break;
                // Waited W instants: stop waiting for sequence holes.
                ++stats_.timed_out;
                for (std::size_t l = 0; l < kLinks; ++l) {
                    if (through_[l] > next_) continue;
                    common::TraceScope r("reassemble");
                    reassemblers_[l].flush(join_sinks_[l]);
                }
            }
            stats_.max_wait = std::max<std::uint64_t>(stats_.max_wait, i - next_);
            decide(next_);
            ++next_;
        }
    }

    void decide(std::size_t s) {
        Slot& slot = slots_[s % kJoinSlots];
        const data::SampleRecord& truth = corpus_.links[0][corpus_.test_begin + s];
        core::MultiLinkObservation obs;
        obs.timestamp = truth.timestamp;  // the gateway's sample clock
        obs.has_env = slot.has_env;
        obs.temperature_c = slot.temperature_c;
        obs.humidity_pct = slot.humidity_pct;
        obs.links = slot.frames;
        core::FusionDecision d;
        {
            common::TraceScope span("fuse");
            d = det_.process(obs);
        }
        Outcome& o = outcomes_[s];
        if (o.decided) ++stats_.decided_twice;
        o.decided = true;
        o.tier = d.tier;
        for (std::size_t l = 0; l < kLinks; ++l)
            if (slot.frames[l].present) o.present |= static_cast<std::uint8_t>(1u << l);
        const double p = d.base.probability;
        if (!(p >= 0.0 && p <= 1.0)) ++stats_.bad_probability;
        if (d.base.prediction == static_cast<int>(truth.occupancy)) ++stats_.correct;
        ++stats_.decisions;
        slot = Slot{};
    }

    void finish_stats() {
        for (std::size_t s = 0; s < outcomes_.size(); ++s) {
            const Outcome& o = outcomes_[s];
            const bool lost_intact = (wire_.intact[s] & ~o.present) != 0;
            if (!o.decided || o.tier == core::FusionTier::kStaleHold || lost_intact)
                ++stats_.failed;
            const std::uint8_t rec[2] = {static_cast<std::uint8_t>(o.tier), o.present};
            stats_.digest = fnv1a(stats_.digest, rec, sizeof(rec));
        }
    }

    core::MultiLinkDetector& det_;
    const Corpus& corpus_;
    const Wire& wire_;
    std::array<data::TelemetryDecoder, kLinks> decoders_{};
    std::array<data::LinkReassembler, kLinks> reassemblers_;
    std::array<DecodeSink, kLinks> decode_sinks_{};
    std::array<JoinSink, kLinks> join_sinks_{};
    std::array<Slot, kJoinSlots> slots_{};
    std::array<std::size_t, kLinks> through_{};
    std::size_t next_ = 0;
    std::vector<Outcome> outcomes_;
    PassStats stats_;
};

// ---- Trace folding ---------------------------------------------------------

struct SpanTotals {
    double total_ns = 0.0;
    double self_ns = 0.0;
    std::uint64_t count = 0;

    [[nodiscard]] double mean_ns() const {
        return count == 0 ? 0.0 : total_ns / static_cast<double>(count);
    }
};
using SpanTable = std::map<std::string, SpanTotals>;

constexpr std::size_t kTraceEvents = std::size_t{1} << 19;

void trace_start() {
    common::TraceConfig cfg;
    cfg.events_per_thread = kTraceEvents;
    cfg.max_threads = 1;  // one thread records: the pool runs at 1 thread
    common::trace_enable(cfg);
}

/// Stop recording and fold the ring into per-name totals and self times
/// (span duration minus the part its direct children cover). Returns the
/// events the ring lost, which must be zero.
std::uint64_t trace_fold(SpanTable& table) {
    common::trace_disable();
    const std::uint64_t dropped = common::trace_dropped_events();
    std::vector<common::TraceEvent> ev = common::trace_snapshot();
    std::erase_if(ev, [](const common::TraceEvent& e) { return e.instant; });
    std::sort(ev.begin(), ev.end(), [](const common::TraceEvent& a, const common::TraceEvent& b) {
        if (a.tid != b.tid) return a.tid < b.tid;
        if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
        return a.end_ns > b.end_ns;
    });
    std::vector<double> child_ns(ev.size(), 0.0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < ev.size(); ++i) {
        while (!stack.empty() && (ev[stack.back()].tid != ev[i].tid ||
                                  ev[stack.back()].end_ns < ev[i].end_ns))
            stack.pop_back();
        if (!stack.empty())
            child_ns[stack.back()] += static_cast<double>(ev[i].end_ns - ev[i].start_ns);
        stack.push_back(i);
    }
    for (std::size_t i = 0; i < ev.size(); ++i) {
        SpanTotals& t = table[ev[i].name];
        const auto dur = static_cast<double>(ev[i].end_ns - ev[i].start_ns);
        t.total_ns += dur;
        t.self_ns += dur - child_ns[i];
        ++t.count;
    }
    return dropped;
}

// ---- Layer probes and the per-layer table (traced run only) ----------------

/// The trained network's Dense layers with the activation the fused
/// inference path applies after each (Mlp::forward_ws).
struct DenseChain {
    std::vector<const nn::Dense*> dense;
    std::vector<nn::kernels::Activation> act;
};

DenseChain dense_chain(nn::Mlp& net) {
    DenseChain c;
    const auto& layers = net.layers();
    for (std::size_t i = 0; i < layers.size(); ++i) {
        if (layers[i]->kind() != nn::LayerKind::kDense) continue;
        c.dense.push_back(static_cast<const nn::Dense*>(layers[i].get()));
        nn::kernels::Activation a = nn::kernels::Activation::kNone;
        if (i + 1 < layers.size()) {
            if (layers[i + 1]->kind() == nn::LayerKind::kReLU) a = nn::kernels::Activation::kReLU;
            if (layers[i + 1]->kind() == nn::LayerKind::kSigmoid)
                a = nn::kernels::Activation::kSigmoid;
        }
        c.act.push_back(a);
    }
    return c;
}

constexpr std::size_t kDenseLayers = 4;
constexpr const char* kDenseB1[kDenseLayers] = {"dense0.b1", "dense1.b1", "dense2.b1",
                                                "dense3.b1"};
constexpr const char* kDenseB4096[kDenseLayers] = {"dense0.b4096", "dense1.b4096",
                                                   "dense2.b4096", "dense3.b4096"};

/// Standardized full-model features of the test period.
nn::Matrix test_inputs(core::MultiLinkDetector& det, const Corpus& c) {
    return det.detector().full_model().scaler().transform(
        c.test_view().features(data::FeatureSet::kCsiEnv));
}

nn::QuantizedMlp quantize(core::MultiLinkDetector& det, const Corpus& c) {
    core::OccupancyDetector& full = det.detector().full_model();
    return nn::quantize_mlp(full.network(),
                            full.scaler().transform(c.train_sample.view().features(
                                data::FeatureSet::kCsiEnv)));
}

/// Replays the test period through lower-layer public functions, each call
/// spanned, and folds the spans into `spans`. The probes of one row (or one
/// block) run back to back, so host speed phases hit them alike. Returns the
/// events the ring lost.
std::uint64_t run_probes(core::MultiLinkDetector& det, const Corpus& c, const Wire& clean,
                         nn::QuantizedMlp& qnet, SpanTable& spans, Report& report) {
    core::OccupancyDetector& full = det.detector().full_model();
    core::OccupancyDetector& env = det.detector().fallback_model();
    nn::Mlp& net = full.network();
    const DenseChain chain = dense_chain(net);
    if (chain.dense.size() != kDenseLayers) {
        report.check(false, "expected %zu Dense layers, found %zu", kDenseLayers,
                     chain.dense.size());
        return 0;
    }
    const data::DatasetView test = c.test_view();
    const std::size_t n = c.instants;
    std::uint64_t dropped = 0;
    double sink = 0.0;
    std::uint32_t crc = 0;
    std::array<nn::Matrix, kDenseLayers> act;

    // Batch 1: the serving shape.
    trace_start();
    nn::Matrix f1, x1;
    for (std::size_t i = 0; i < n; ++i) {
        {
            common::TraceScope span("crc32");
            crc ^= common::crc32(clean.bytes[0].data() + i * data::kWireFrameBytes,
                                 data::kWireFrameBytes - sizeof(std::uint32_t));
        }
        {
            common::TraceScope span("predict");
            sink += full.predict_proba(test[i]);
        }
        {
            common::TraceScope span("predict_env");
            sink += env.predict_proba(test[i]);
        }
        {
            // The part of predict_proba before the forward pass.
            common::TraceScope span("features.b1");
            data::make_features_into(test.records().subspan(i, 1), data::FeatureSet::kCsiEnv, f1);
            full.scaler().transform_into(f1, x1);
        }
        {
            common::TraceScope span("forward.b1");
            sink += net.forward_ws(x1, /*cache=*/false).at(0, 0);
        }
        const nn::Matrix* in = &x1;
        for (std::size_t k = 0; k < kDenseLayers; ++k) {
            common::TraceScope span(kDenseB1[k]);
            nn::dense_forward_into(*in, chain.dense[k]->weights(), chain.dense[k]->bias(),
                                   chain.act[k], act[k]);
            in = &act[k];
        }
        sink += act[kDenseLayers - 1].at(0, 0);
    }
    dropped += trace_fold(spans);

    // Batch 4096: the first and the last full block of the test period.
    trace_start();
    const nn::Matrix x = test_inputs(det, c);
    nn::Matrix xb;
    std::uint64_t positives = 0;
    for (int rep = 0; rep < 8; ++rep) {
        for (const std::size_t b : {std::size_t{0}, n - kScoreRows}) {
            const data::DatasetView rows =
                c.fused.slice(c.test_begin + b, c.test_begin + b + kScoreRows);
            nn::row_block_into(x, b, kScoreRows, xb);
            {
                common::TraceScope span("forward.b4096");
                sink += net.forward_ws(xb, /*cache=*/false).at(0, 0);
            }
            const nn::Matrix* in = &xb;
            for (std::size_t k = 0; k < kDenseLayers; ++k) {
                common::TraceScope span(kDenseB4096[k]);
                nn::dense_forward_into(*in, chain.dense[k]->weights(), chain.dense[k]->bias(),
                                       chain.act[k], act[k]);
                in = &act[k];
            }
            {
                common::TraceScope span("quant.b4096");
                sink += qnet.forward_ws(xb).at(0, 0);
            }
            {
                common::TraceScope span("features");
                sink += full.scaler().transform(rows.features(data::FeatureSet::kCsiEnv)).at(0, 0);
            }
            {
                common::TraceScope span("score_int8");
                const std::vector<int> pred = nn::predict_binary(
                    qnet, full.scaler().transform(rows.features(data::FeatureSet::kCsiEnv)));
                positives += static_cast<std::uint64_t>(std::count(pred.begin(), pred.end(), 1));
            }
        }
    }
    dropped += trace_fold(spans);
    report.check(std::isfinite(sink), "probe outputs are not finite");
    std::printf("probe checksums: crc %08x, %llu int8 positives\n", static_cast<unsigned>(crc),
                static_cast<unsigned long long>(positives));
    return dropped;
}

/// Counters of one traced serving pass.
struct ServeSample {
    PassStats pass;
    std::array<data::TelemetryDecoder::Stats, kLinks> dec{};
    std::array<data::ReassemblyStats, kLinks> reasm{};
    core::FusionStats fusion{};
    core::ResilienceStats resilience{};
};

/// Everything the per-layer table is computed from.
struct Layers {
    SpanTable spans;
    ServeSample serve;
    std::uint64_t traced_passes = 0;  ///< traced serving passes folded into spans
    std::uint64_t dropped = 0;
    double overhead_pct = 0.0;        ///< tracing overhead on decisions_per_s
    double encode_ns_per_frame = 0.0;
    double fit_s = 0.0;
    double calibrate_s = 0.0;
    double sim_instants_per_s = 0.0;
};

/// Alternates untraced and traced serving passes for `seconds` (at least two
/// of each), folds the traced ones into `L.spans` and returns the untraced
/// and traced rates (decisions per second of section time).
std::pair<double, double> trace_serving(Gateway& gw, core::MultiLinkDetector& det,
                                        double seconds, Layers& L,
                                        const std::function<void(const PassStats&)>& account) {
    std::vector<double> lat;
    double plain_ns = 0.0, traced_ns = 0.0;
    std::uint64_t plain_dec = 0, traced_dec = 0;
    const std::uint64_t t_end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    do {
        const PassStats plain = gw.run_pass(lat);
        account(plain);
        plain_ns += plain.section_ns;
        plain_dec += plain.decisions;

        trace_start();
        const PassStats traced = gw.run_pass(lat);
        L.dropped += trace_fold(L.spans);
        account(traced);
        traced_ns += traced.section_ns;
        traced_dec += traced.decisions;
        ++L.traced_passes;

        L.serve.pass = traced;
        for (std::size_t l = 0; l < kLinks; ++l) {
            L.serve.dec[l] = gw.decoders()[l].stats();
            L.serve.reasm[l] = gw.reassemblers()[l].stats();
        }
        L.serve.fusion = det.stats();
        L.serve.resilience = det.detector().stats();
    } while (now_ns() < t_end || L.traced_passes < 2);
    return {static_cast<double>(plain_dec) / plain_ns * 1e9,
            static_cast<double>(traced_dec) / traced_ns * 1e9};
}

void report_layers(const Layers& L, std::size_t instants, Report& report) {
    const auto span = [&](const char* name) {
        const auto it = L.spans.find(name);
        return it == L.spans.end() ? SpanTotals{} : it->second;
    };
    const ServeSample& s = L.serve;
    const auto per_pass = static_cast<double>(L.traced_passes);

    std::uint64_t frames = 0, defects = 0, skipped = 0, consumed = 0;
    for (const auto& d : s.dec) {
        frames += d.frames_decoded;
        defects += d.defects;
        skipped += d.bytes_skipped;
        consumed += d.bytes_consumed;
    }
    std::uint64_t frames_in = 0, dups = 0, gaps = 0, missing = 0;
    for (const auto& r : s.reasm) {
        frames_in += r.frames_in;
        dups += r.duplicates_dropped;
        gaps += r.gaps;
        missing += r.missing_frames;
    }
    const double predict_ns = span("predict").mean_ns();
    const double predict_env_ns = span("predict_env").mean_ns();
    const double forward_b1_ns = span("forward.b1").mean_ns();
    const double process_ns = span("fuse").mean_ns();
    const auto full_calls = static_cast<double>(s.fusion.full_fusion + s.fusion.subset_fusion +
                                                s.fusion.single_link);
    const auto env_calls = static_cast<double>(s.fusion.env_only);
    const auto decisions = static_cast<double>(s.pass.decisions);
    const SpanTotals instant = span("instant");

    std::printf("per-layer table (traced run):\n");
    report.metric("crc32.ns_per_frame", span("crc32").mean_ns(), "ns");
    report.metric("decode.self_ns_per_frame",
                  span("decode").self_ns / (per_pass * static_cast<double>(frames)), "ns");
    report.metric("decode.frames", static_cast<double>(frames), "count");
    report.metric("decode.defects", static_cast<double>(defects), "count");
    report.metric("decode.bytes_skipped", static_cast<double>(skipped), "count");
    report.metric("decode.useful_byte_ratio",
                  static_cast<double>(frames * data::kWireFrameBytes) / static_cast<double>(consumed),
                  "ratio");
    report.metric("encode.ns_per_frame", L.encode_ns_per_frame, "ns");
    report.metric("reassemble.ns_per_frame",
                  span("reassemble").self_ns / (per_pass * static_cast<double>(frames_in)), "ns");
    report.metric("reassemble.duplicates_dropped", static_cast<double>(dups), "count");
    report.metric("reassemble.gaps", static_cast<double>(gaps), "count");
    report.metric("reassemble.missing_frames", static_cast<double>(missing), "count");
    report.metric("reassemble.max_pending", static_cast<double>(s.pass.max_pending), "count");
    report.metric("join.self_ns", span("join").self_ns / (per_pass * static_cast<double>(instants)),
                  "ns");
    report.metric("join.timed_out_instants", static_cast<double>(s.pass.timed_out), "count");
    report.metric("join.max_wait_instants", static_cast<double>(s.pass.max_wait), "count");
    report.metric("join.late_frames", static_cast<double>(s.pass.late_frames), "count");
    report.metric("fuse.process_ns", process_ns, "ns");
    report.metric("fuse.self_ns",
                  process_ns - (full_calls * predict_ns + env_calls * predict_env_ns) / decisions,
                  "ns");
    report.metric("fuse.tier_full", static_cast<double>(s.fusion.full_fusion), "count");
    report.metric("fuse.tier_subset", static_cast<double>(s.fusion.subset_fusion), "count");
    report.metric("fuse.tier_single", static_cast<double>(s.fusion.single_link), "count");
    report.metric("fuse.tier_env_only", static_cast<double>(s.fusion.env_only), "count");
    report.metric("fuse.tier_stale_hold", static_cast<double>(s.fusion.stale_hold), "count");
    report.metric("fuse.frames_rejected", static_cast<double>(s.fusion.link_frames_rejected),
                  "count");
    report.metric("resilient.csi_repaired", static_cast<double>(s.resilience.csi_frames_repaired),
                  "count");
    report.metric("resilient.env_held", static_cast<double>(s.resilience.env_ticks_held), "count");
    report.metric("predict.ns", predict_ns, "ns");
    report.metric("predict_env.ns", predict_env_ns, "ns");
    report.metric("predict.features_scale_ns", span("features.b1").mean_ns(), "ns");
    report.metric("forward.b1_ns", forward_b1_ns, "ns");
    for (std::size_t k = 0; k < kDenseLayers; ++k) {
        const std::string name = std::string("dense") + std::to_string(k) + ".b1_ns";
        report.metric(name.c_str(), span(kDenseB1[k]).mean_ns(), "ns");
    }
    const auto rows = static_cast<double>(kScoreRows);
    report.metric("forward.b4096_ns_per_row", span("forward.b4096").mean_ns() / rows, "ns");
    for (std::size_t k = 0; k < kDenseLayers; ++k) {
        const std::string name = std::string("dense") + std::to_string(k) + ".b4096_ns_per_row";
        report.metric(name.c_str(), span(kDenseB4096[k]).mean_ns() / rows, "ns");
    }
    report.metric("quant.forward_b4096_ns_per_row", span("quant.b4096").mean_ns() / rows, "ns");
    report.metric("quant.calibrate_s", L.calibrate_s, "s");
    report.metric("quant.score_rows_per_s", rows / span("score_int8").mean_ns() * 1e9, "rows/s");
    report.metric("train.steps", static_cast<double>(fit_steps()), "count");
    report.metric("train.step_us", L.fit_s * 1e6 / static_cast<double>(fit_steps()), "us");
    report.metric("features.ns_per_row", span("features").mean_ns() / rows, "ns");
    report.metric("sim.instants_per_s", L.sim_instants_per_s, "1/s");
    report.metric("trace.overhead_pct", L.overhead_pct, "%");
    report.metric("trace.layer_share_pct",
                  100.0 * (instant.total_ns - instant.self_ns) / instant.total_ns, "%");
    report.check(100.0 * (instant.total_ns - instant.self_ns) >= kMinLayerSharePct * instant.total_ns,
                 "layer self times cover only %.1f%% of the traced instant time",
                 100.0 * (instant.total_ns - instant.self_ns) / instant.total_ns);
    report.check(L.dropped == 0, "the trace ring dropped %llu events",
                 static_cast<unsigned long long>(L.dropped));
}

// ---- Shared pieces of the workloads ----------------------------------------

struct Args {
    std::string workload;
    std::uint64_t sim_seed = 7;
    std::uint64_t fault_seed = 7;
    double seconds = 10.0;
    bool trace = false;
};

common::FaultPlan fault_plan(std::uint64_t seed) {
    const std::string spec = std::string(kFaultSpec) + ",seed=" + std::to_string(seed);
    auto parsed = common::parse_fault_spec(spec);
    parsed.status().throw_if_error();
    return common::FaultPlan(parsed.value());
}

/// Everything a workload sets up before its first timed section.
struct Setup {
    Corpus corpus;
    std::unique_ptr<core::MultiLinkDetector> det;  ///< serve_*: trained
    Wire wire;                                      ///< serve_*: the workload's wire
    std::vector<double> setup_s, fit_s, sim_s, encode_ns;
};

/// Runs the complete set-up kSetupReps times (setup_s is their median) and
/// keeps the last; the repetitions must agree bitwise.
Setup set_up(const Args& a, bool serve, const common::FaultPlan* plan, Report& report) {
    Setup s;
    std::uint64_t first_digest = 0;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const std::uint64_t t0 = now_ns();
        s.det.reset();
        s.wire = Wire{};
        s.corpus = Corpus{};
        s.corpus = simulate(a.sim_seed);
        if (serve) {
            s.det = make_detector(s.corpus);
            const std::uint64_t tf = now_ns();
            s.det->fit(s.corpus.train_sample.view());
            s.fit_s.push_back(seconds_since(tf));
            s.wire = encode(s.corpus, plan);
            s.encode_ns.push_back(s.wire.encode_ns_per_frame);
        }
        s.setup_s.push_back(seconds_since(t0));
        s.sim_s.push_back(s.corpus.sim_s);

        std::uint64_t digest = s.corpus.digest();
        if (serve) {
            for (const auto& b : s.wire.bytes) digest = fnv1a(digest, b.data(), b.size());
            const double p = s.det->detector().full_model().predict_proba(
                s.corpus.fused[s.corpus.test_begin]);
            digest = fnv1a(digest, &p, sizeof(p));
        }
        if (rep == 0) first_digest = digest;
        report.check(digest == first_digest, "set-up %d differs from set-up 0", rep);
    }
    std::printf("set-up: %zu instants (%zu in the test period), %zu-row training sample, "
                "median of %d set-ups %.3f s (simulation %.3f s)\n",
                s.corpus.fused.size(), s.corpus.instants, s.corpus.train_sample.size(),
                kSetupReps, median(s.setup_s), median(s.sim_s));
    return s;
}

double instants_per_s(const Setup& s) {
    return static_cast<double>(s.corpus.fused.size()) / median(s.sim_s);
}

/// Checks on one serving pass, on either wire.
void check_pass(const Gateway& gw, const PassStats& ps, const Wire& wire, bool clean,
                const core::MultiLinkDetector& det, std::size_t n, Report& report) {
    report.check(ps.decisions == n && ps.decided_twice == 0,
                 "%llu decisions for %zu instants (%llu decided twice)",
                 static_cast<unsigned long long>(ps.decisions), n,
                 static_cast<unsigned long long>(ps.decided_twice));
    report.check(ps.bad_probability == 0, "%llu probabilities outside [0,1]",
                 static_cast<unsigned long long>(ps.bad_probability));
    for (std::size_t l = 0; l < kLinks; ++l) {
        const data::TelemetryDecoder::Stats& d = gw.decoders()[l].stats();
        report.check(d.frames_decoded * data::kWireFrameBytes + d.bytes_skipped ==
                         d.bytes_consumed,
                     "link %zu: decoder accounting frames*308 + skipped != consumed", l);
        report.check(d.bytes_consumed == wire.bytes[l].size(),
                     "link %zu: decoder consumed %llu of %zu bytes", l,
                     static_cast<unsigned long long>(d.bytes_consumed), wire.bytes[l].size());
        if (clean)
            report.check(d.frames_decoded == n && d.defects == 0,
                         "link %zu: clean wire decoded %llu frames with %llu defects", l,
                         static_cast<unsigned long long>(d.frames_decoded),
                         static_cast<unsigned long long>(d.defects));
    }
    const core::FusionStats& fs = det.stats();
    if (clean) {
        report.check(fs.full_fusion == n, "clean wire: %llu of %zu decisions at full fusion",
                     static_cast<unsigned long long>(fs.full_fusion), n);
        report.check(ps.failed == 0, "clean wire: %llu failed instants",
                     static_cast<unsigned long long>(ps.failed));
    } else {
        report.check(fs.full_fusion > 0 && fs.subset_fusion > 0 && fs.single_link > 0 &&
                         fs.env_only > 0,
                     "faulty wire: a pass lacks a tier (full %llu, subset %llu, single %llu, "
                     "env-only %llu)",
                     static_cast<unsigned long long>(fs.full_fusion),
                     static_cast<unsigned long long>(fs.subset_fusion),
                     static_cast<unsigned long long>(fs.single_link),
                     static_cast<unsigned long long>(fs.env_only));
    }
}

/// Accuracy floors: kAccuracyFloor, and kMinLiftPp above always answering
/// the test period's majority class.
void check_accuracy(double accuracy, const Corpus& c, const char* what, Report& report) {
    const std::vector<int> labels = c.test_view().labels();
    const double occupied = 100.0 * static_cast<double>(std::count(labels.begin(), labels.end(), 1)) /
                            static_cast<double>(labels.size());
    const double majority = std::max(occupied, 100.0 - occupied);
    std::printf("%s accuracy %.3f%% (majority class %.3f%% of the test period)\n", what,
                accuracy, majority);
    report.check(accuracy >= kAccuracyFloor && accuracy >= majority + kMinLiftPp,
                 "%s accuracy %.2f%% is below %.1f%% or within %.1f pp of the majority class "
                 "(%.2f%%)",
                 what, accuracy, kAccuracyFloor, kMinLiftPp, majority);
}

void print_common(const char* workload, const Args& a) {
    std::printf("workload %s: sim seed %llu, fault seed %llu, kernels %s, %zu thread\n", workload,
                static_cast<unsigned long long>(a.sim_seed),
                static_cast<unsigned long long>(a.fault_seed), nn::kernels::active_backend().name,
                common::thread_count());
}

// ---- serve_clean / serve_faulty --------------------------------------------

int run_serve(const Args& a, bool faulty) {
    Report report;
    const char* name = faulty ? "serve_faulty" : "serve_clean";
    const common::FaultPlan plan = faulty ? fault_plan(a.fault_seed) : common::FaultPlan{};
    Setup s = set_up(a, /*serve=*/true, faulty ? &plan : nullptr, report);
    const std::size_t n = s.corpus.instants;
    if (faulty) {
        const double share = 100.0 * static_cast<double>(s.wire.faulted_instants) /
                             static_cast<double>(n);
        std::printf("fault plan: %s (%.2f%% of instants carry fault work)\n",
                    common::to_spec(plan.config()).c_str(), share);
        report.check(share >= 1.0, "only %.2f%% of instants carry fault work", share);
    }

    Gateway gw(*s.det, s.corpus, s.wire);
    std::vector<double> lat;
    const PassStats warm = gw.run_pass(lat);  // untimed warm-up
    check_pass(gw, warm, s.wire, !faulty, *s.det, n, report);
    const double accuracy =
        100.0 * static_cast<double>(warm.correct) / static_cast<double>(warm.decisions);
    check_accuracy(accuracy, s.corpus, "decision", report);
    if (faulty) {
        std::printf("tier/link-presence digest: 0x%016llx\n",
                    static_cast<unsigned long long>(warm.digest));
        for (const PinnedDigest& p : kPinnedDigests)
            if (p.fault_seed == a.fault_seed)
                report.check(warm.digest == p.digest,
                             "tier/link-presence digest 0x%016llx != pinned 0x%016llx",
                             static_cast<unsigned long long>(warm.digest),
                             static_cast<unsigned long long>(p.digest));
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    const auto account = [&](const PassStats& ps) {
        report.check(ps.digest == warm.digest && ps.correct == warm.correct &&
                         ps.failed == warm.failed,
                     "a pass differs from the warm-up pass");
        attempted += n;
        failed += ps.failed;
    };

    print_common(name, a);
    if (a.trace) {
        Layers L;
        const auto [plain, traced] = trace_serving(gw, *s.det, a.seconds * 0.5, L, account);
        check_pass(gw, L.serve.pass, s.wire, !faulty, *s.det, n, report);
        L.overhead_pct = 100.0 * (plain - traced) / plain;
        L.encode_ns_per_frame = median(s.encode_ns);
        L.fit_s = median(s.fit_s);
        L.sim_instants_per_s = instants_per_s(s);
        const std::uint64_t tq = now_ns();
        nn::QuantizedMlp qnet = quantize(*s.det, s.corpus);
        L.calibrate_s = seconds_since(tq);
        const Wire clean = faulty ? encode(s.corpus, nullptr) : Wire{};
        L.dropped += run_probes(*s.det, s.corpus, faulty ? clean : s.wire, qnet, L.spans, report);
        std::printf("%llu traced passes; untraced %.0f, traced %.0f decisions/s\n",
                    static_cast<unsigned long long>(L.traced_passes), plain, traced);
        report_layers(L, n, report);
        report.print_json(attempted, failed);
        return report.correct() ? 0 : 1;
    }

    // Throughput and latency percentiles are taken per pass and reported as
    // the median over passes: memory stays flat, and a burst of host noise
    // inside one pass does not move the figure.
    std::vector<double> pass_rate, pass_p50, pass_p99;
    const std::uint64_t t_end = now_ns() + static_cast<std::uint64_t>(a.seconds * 1e9);
    do {
        const PassStats ps = gw.run_pass(lat);
        account(ps);
        pass_rate.push_back(static_cast<double>(ps.decisions) / ps.section_ns * 1e9);
        pass_p50.push_back(percentile(lat, 0.5));
        pass_p99.push_back(percentile(lat, 0.99));
    } while (now_ns() < t_end || pass_p99.size() < 3);

    std::printf("%zu timed passes x %zu instants = %zu latency samples\n", pass_p99.size(), n,
                pass_p99.size() * n);
    report.metric("decisions_per_s", median(pass_rate), "1/s");
    report.metric("decision_p50_us", median(pass_p50) * 1e-3, "us");
    report.metric("decision_p99_us", median(pass_p99) * 1e-3, "us");
    report.metric("fit_s", median(s.fit_s), "s");
    report.metric("accuracy_pct", accuracy, "%");
    report.metric("setup_s", median(s.setup_s), "s");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report.print_json(attempted, failed);
    return report.correct() ? 0 : 1;
}

// ---- offline ---------------------------------------------------------------

/// The test period cut into equal OccupancyDetector::predict calls of at
/// most kScoreRows rows (one nn batch each).
std::vector<data::DatasetView> score_slices(const Corpus& c) {
    const std::size_t calls = (c.instants + kScoreRows - 1) / kScoreRows;
    std::vector<data::DatasetView> out;
    for (std::size_t k = 0; k < calls; ++k)
        out.push_back(c.fused.slice(c.test_begin + k * c.instants / calls,
                                    c.test_begin + (k + 1) * c.instants / calls));
    return out;
}

int run_offline(const Args& a) {
    Report report;
    Setup s = set_up(a, /*serve=*/false, nullptr, report);
    const Corpus& c = s.corpus;
    const std::size_t n = c.instants;
    const std::vector<data::DatasetView> slices = score_slices(c);
    const std::vector<int> truth = c.test_view().labels();
    const std::uint64_t t_start = now_ns();
    const std::uint64_t t_end = t_start + static_cast<std::uint64_t>(a.seconds * 1e9);

    // Timed: fit the two-model detector (40% of the run, at least twice);
    // every fit must produce the same model.
    std::vector<double> fit_s;
    std::unique_ptr<core::MultiLinkDetector> det;
    double first_p = 0.0;
    do {
        auto d = make_detector(c);
        const std::uint64_t t0 = now_ns();
        d->fit(c.train_sample.view());
        fit_s.push_back(seconds_since(t0));
        const double p = d->detector().full_model().predict_proba(c.fused[c.test_begin]);
        if (fit_s.size() == 1) first_p = p;
        report.check(p == first_p, "fit %zu differs from fit 1", fit_s.size());
        det = std::move(d);
    } while (fit_s.size() < 2 ||
             (now_ns() < t_start + static_cast<std::uint64_t>(a.seconds * 0.4e9) &&
              fit_s.size() < 5));
    core::OccupancyDetector& full = det->detector().full_model();

    const std::uint64_t tq = now_ns();
    nn::QuantizedMlp qnet = quantize(*det, c);
    const double calibrate_s = seconds_since(tq);

    // Reference outputs: every row finite, int8 within kInt8MaxDropPp of float.
    const nn::Matrix x = test_inputs(*det, c);
    const nn::Matrix logits = nn::predict(full.network(), x);
    const nn::Matrix qlogits = nn::predict(qnet, x);
    std::vector<int> ref(n), qref(n);
    std::uint64_t nonfinite = 0, qnonfinite = 0, correct = 0, qcorrect = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const float z = logits.at(i, 0), qz = qlogits.at(i, 0);
        nonfinite += std::isfinite(z) ? 0 : 1;
        qnonfinite += std::isfinite(qz) ? 0 : 1;
        ref[i] = z > 0.0f ? 1 : 0;
        qref[i] = qz > 0.0f ? 1 : 0;
        correct += ref[i] == truth[i] ? 1 : 0;
        qcorrect += qref[i] == truth[i] ? 1 : 0;
    }
    const double accuracy = 100.0 * static_cast<double>(correct) / static_cast<double>(n);
    const double q_accuracy = 100.0 * static_cast<double>(qcorrect) / static_cast<double>(n);
    report.check(nonfinite == 0 && qnonfinite == 0, "%llu float / %llu int8 non-finite outputs",
                 static_cast<unsigned long long>(nonfinite),
                 static_cast<unsigned long long>(qnonfinite));
    check_accuracy(accuracy, c, "float", report);
    report.check(accuracy - q_accuracy <= kInt8MaxDropPp,
                 "int8 accuracy %.2f%% is more than %.1f pp below float %.2f%%", q_accuracy,
                 kInt8MaxDropPp, accuracy);

    // One scoring pass over the test period; returns the per-call latencies
    // and counts rows whose decision differs from the reference.
    std::uint64_t mismatches = 0;
    const auto score_pass = [&](bool int8, std::vector<double>& lat) {
        lat.clear();
        for (const data::DatasetView& v : slices) {
            const std::uint64_t t0 = now_ns();
            std::vector<int> pred;
            {
                common::TraceScope span("score");
                pred = int8 ? nn::predict_binary(qnet, full.scaler().transform(
                                                           v.features(data::FeatureSet::kCsiEnv)))
                            : full.predict(v);
            }
            lat.push_back(static_cast<double>(now_ns() - t0));
            const std::size_t base =
                static_cast<std::size_t>(v.records().data() - c.fused.records().data()) -
                c.test_begin;
            const std::vector<int>& want = int8 ? qref : ref;
            for (std::size_t i = 0; i < pred.size(); ++i)
                mismatches += pred[i] == want[base + i] ? 0 : 1;
        }
        double total = 0.0;
        for (double v : lat) total += v;
        return total;
    };

    std::uint64_t attempted = 0, failed = 0;
    std::vector<double> lat;
    print_common("offline", a);
    if (a.trace) {
        Layers L;
        L.fit_s = median(fit_s);
        L.calibrate_s = calibrate_s;
        L.sim_instants_per_s = instants_per_s(s);
        // Tracing overhead on the offline decisions_per_s (float scoring):
        // untraced and traced passes alternate.
        double plain_ns = 0.0, traced_ns = 0.0;
        const std::uint64_t t_overhead =
            now_ns() + static_cast<std::uint64_t>(a.seconds * 0.2e9);
        do {
            plain_ns += score_pass(false, lat);
            trace_start();
            traced_ns += score_pass(false, lat);
            L.dropped += trace_fold(L.spans);
            attempted += 2 * n;
            failed += 2 * nonfinite;
        } while (now_ns() < t_overhead);
        L.overhead_pct = 100.0 * (traced_ns - plain_ns) / traced_ns;
        // Serving-loop layers: one clean-wire gateway over the same model.
        const Wire clean = encode(c, nullptr);
        L.encode_ns_per_frame = clean.encode_ns_per_frame;
        Gateway gw(*det, c, clean);
        gw.run_pass(lat);  // warm-up
        const auto account = [&](const PassStats& ps) {
            report.check(ps.failed == 0, "clean-wire serving pass failed %llu instants",
                         static_cast<unsigned long long>(ps.failed));
        };
        trace_serving(gw, *det, a.seconds * 0.3, L, account);
        check_pass(gw, L.serve.pass, clean, /*clean=*/true, *det, n, report);
        L.dropped += run_probes(*det, c, clean, qnet, L.spans, report);
        report.check(mismatches == 0, "%llu scored rows differ from the reference",
                     static_cast<unsigned long long>(mismatches));
        report_layers(L, n, report);
        report.print_json(attempted, failed);
        return report.correct() ? 0 : 1;
    }

    // Timed: float passes, with an int8 pass after every second one, until
    // the run's time is up. Rates are medians over passes. A pass is two
    // equal predict calls: p50 is the median call, p99 the median over passes
    // of each pass's slower call.
    std::vector<double> pooled, pass_p99, float_rate, int8_rate;
    const auto rate = [&](double ns) { return static_cast<double>(n) / ns * 1e9; };
    do {
        float_rate.push_back(rate(score_pass(false, lat)));
        pass_p99.push_back(percentile(lat, 0.99));
        pooled.insert(pooled.end(), lat.begin(), lat.end());
        if (float_rate.size() % 2 == 0) int8_rate.push_back(rate(score_pass(true, lat)));
    } while (now_ns() < t_end || int8_rate.size() < 2);
    attempted = (float_rate.size() + int8_rate.size()) * n;
    failed = float_rate.size() * nonfinite + int8_rate.size() * qnonfinite;
    report.check(mismatches == 0, "%llu scored rows differ from the reference",
                 static_cast<unsigned long long>(mismatches));

    std::printf("%zu fits; %zu float and %zu int8 passes x %zu rows in %zu calls of <= %zu "
                "rows; int8 accuracy %.3f%%\n",
                fit_s.size(), float_rate.size(), int8_rate.size(), n, slices.size(), kScoreRows,
                q_accuracy);
    report.metric("score_per_s", median(float_rate), "rows/s", /*json=*/false);
    report.metric("score_int8_per_s", median(int8_rate), "rows/s", /*json=*/false);
    report.metric("decisions_per_s", median(float_rate), "1/s");
    report.metric("decision_p50_us", percentile(pooled, 0.5) * 1e-3, "us");
    report.metric("decision_p99_us", median(pass_p99) * 1e-3, "us");
    report.metric("fit_s", median(fit_s), "s");
    report.metric("accuracy_pct", accuracy, "%");
    report.metric("setup_s", median(s.setup_s), "s");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report.print_json(attempted, failed);
    return report.correct() ? 0 : 1;
}

[[noreturn]] void usage(const char* msg) {
    std::fprintf(stderr,
                 "wifisense_perfbench: %s\n"
                 "usage: wifisense_perfbench --workload serve_clean|serve_faulty|offline\n"
                 "       [--seed N] [--sim-seed N] [--fault-seed N] [--seconds S] "
                 "[--trace 0|1]\n",
                 msg);
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    bool sim_set = false, fault_set = false;
    std::uint64_t seed = 7;
    for (int i = 1; i < argc; ++i) {
        const std::string_view key = argv[i];
        if (i + 1 >= argc) usage("missing value");
        const char* val = argv[++i];
        char* end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed" || key == "--sim-seed" || key == "--fault-seed") {
            const unsigned long long v = std::strtoull(val, &end, 0);
            if (end == val || *end != '\0') usage("bad seed");
            if (key == "--seed") seed = v;
            if (key == "--sim-seed") {
                a.sim_seed = v;
                sim_set = true;
            }
            if (key == "--fault-seed") {
                a.fault_seed = v;
                fault_set = true;
            }
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
            if (end == val || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 120.0)
                usage("--seconds must be in (0, 120]");
        } else if (key == "--trace") {
            if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
                usage("--trace must be 0 or 1");
            a.trace = val[0] == '1';
        } else {
            usage("unknown argument");
        }
    }
    if (!sim_set) a.sim_seed = seed;
    if (!fault_set) a.fault_seed = seed;
    if (a.workload != "serve_clean" && a.workload != "serve_faulty" && a.workload != "offline")
        usage("--workload must be serve_clean, serve_faulty or offline");
    return a;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    // Pinned execution settings: one thread, the fastest supported kernels,
    // no observability (nothing is read from the environment).
    common::set_execution_config({.threads = 1});
    if (!nn::kernels::set_kernel_backend("auto")) {
        std::fprintf(stderr, "wifisense_perfbench: no kernel backend for 'auto'\n");
        return 2;
    }
    if (args.workload == "offline") return run_offline(args);
    return run_serve(args, args.workload == "serve_faulty");
}
