// The serving gateway: per-link wire bytes in, one fused decision per sample
// instant out. Each link's chunks, split anywhere, run through that link's
// TelemetryDecoder and LinkReassembler; a join keyed on the sequence number
// gathers each instant's frames, and MultiLinkDetector::process decides
// every instant exactly once, in order. Release, time, env and dark-instant
// rules: DESIGN.md §17. push() and finish() never allocate and never throw
// on data content.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/link_fusion.hpp"
#include "data/link_ingest.hpp"
#include "data/telemetry.hpp"

namespace wifisense::core {

/// Runs on the push path: must not allocate, throw or call back into the
/// pipeline. `obs` lives for the call.
class DecisionSink {
public:
    virtual void on_decision(std::uint32_t sequence,
                             const MultiLinkObservation& obs,
                             const FusionDecision& d) = 0;

protected:
    ~DecisionSink() = default;
};

class Pipeline {
public:
    /// Instant s stops waiting for lagging links once a frame for s +
    /// kJoinWait arrives; the join holds kSlots undecided instants.
    static constexpr std::uint64_t kJoinWait = 4;
    static constexpr std::uint64_t kSlots = 16;

    struct JoinStats {
        std::uint64_t timed_out_instants = 0;  ///< decided without every link
        std::uint64_t late_frames = 0;  ///< arrived after their instant
    };

    /// One link per det.config().n_links. `det` must be fitted before the
    /// first push; `det` and `sink` must outlive the pipeline.
    Pipeline(MultiLinkDetector& det, DecisionSink& sink);
    Pipeline(const Pipeline&) = delete;
    Pipeline& operator=(const Pipeline&) = delete;

    /// Link `link`'s next bytes. Throws only when `link` is not configured.
    void push(std::size_t link, std::span<const std::uint8_t> bytes);
    /// End of every link's stream: decides through the newest frame.
    void finish();
    /// A new stream: clears transport, join and the detector's stream state.
    void reset();

    [[nodiscard]] const data::TelemetryDecoder& decoder(std::size_t l) const {
        return links_[l].decoder;
    }
    [[nodiscard]] const data::LinkReassembler& reassembler(std::size_t l) const {
        return links_[l].reasm;
    }
    [[nodiscard]] const JoinStats& join_stats() const { return stats_; }

private:
    /// One link's transport: decoder -> reassembler -> `ordered` -> join.
    struct Link final : data::WireSink {
        struct Ordered final : data::FrameSink {
            Ordered(Pipeline& p, std::size_t l) : pipeline(&p), link(l) {}
            void on_frame(const data::TelemetryFrame& f) override;
            Pipeline* pipeline;
            std::size_t link;
        };
        Link(Pipeline& p, std::size_t l) : ordered(p, l) {}
        void on_frame(const data::TelemetryFrame& f) override;
        data::TelemetryDecoder decoder;
        data::LinkReassembler reasm;
        Ordered ordered;
        std::uint64_t through = 0;  ///< newest sequence joined + 1
    };
    /// What the first frame to reach an undecided instant said.
    struct Instant {
        bool reached = false;
        double t = 0.0;
        float temperature_c = 0.0f;
        float humidity_pct = 0.0f;
    };

    void join(std::size_t link, const data::TelemetryFrame& f);
    void release(bool eos);
    void decide_next();

    MultiLinkDetector& det_;
    DecisionSink& sink_;
    std::vector<Link> links_;
    std::array<Instant, kSlots> instants_{};
    std::vector<LinkFrame> frames_;  ///< kSlots x links, instant-major
    std::uint64_t next_ = 0;         ///< oldest undecided sequence
    std::uint64_t newest_ = 0;       ///< newest sequence joined + 1
    double last_t_ = 0.0;            ///< time of instant next_ - 1
    std::uint64_t ahead_seq_ = 0;  ///< the frame that forces instants out
    double ahead_t_ = 0.0;
    JoinStats stats_;
};

}  // namespace wifisense::core
