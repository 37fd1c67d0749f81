#include "core/pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/trace.hpp"

namespace wifisense::core {

Pipeline::Pipeline(MultiLinkDetector& det, DecisionSink& sink)
    : det_(det), sink_(sink), frames_(kSlots * det.config().n_links) {
    links_.reserve(det.config().n_links);
    for (std::size_t l = 0; l < det.config().n_links; ++l) links_.emplace_back(*this, l);
}

void Pipeline::reset() {
    det_.reset_stream();
    for (Link& l : links_) {
        l.decoder.reset();
        l.reasm.reset();
        l.through = 0;
    }
    instants_.fill(Instant{});
    for (LinkFrame& f : frames_) f.present = false;
    next_ = newest_ = 0;
    stats_ = JoinStats{};
}

// wifisense-lint: requires(noalloc, noexcept)
// wifisense-lint: allow-call(TraceScope) env-gated observability: the span ring is preallocated at trace start; a disabled tracer records nothing
void Pipeline::push(std::size_t link, std::span<const std::uint8_t> bytes) {
    if (link >= links_.size())
        // wifisense-lint: allow(ipa.throw-leak) precondition guard: fires only on caller API misuse
        throw std::out_of_range("Pipeline::push: link not configured");
    {
        common::TraceScope span("decode");
        data::TelemetryDecoder& dec = links_[link].decoder;
        // wifisense-lint: allow(noalloc.container-growth) TelemetryDecoder::push is itself a proven noalloc root
        dec.push(bytes, links_[link]);
    }
    release(/*eos=*/false);
}

// wifisense-lint: requires(noalloc, noexcept)
// wifisense-lint: allow-call(TraceScope) env-gated observability: the span ring is preallocated at trace start; a disabled tracer records nothing
void Pipeline::finish() {
    for (Link& l : links_) {
        common::TraceScope span("decode");
        data::TelemetryDecoder& dec = l.decoder;
        dec.finish(l);
    }
    for (Link& l : links_) {
        common::TraceScope span("reassemble");
        data::LinkReassembler& reasm = l.reasm;
        reasm.flush(l.ordered);
    }
    release(/*eos=*/true);
}

// wifisense-lint: requires(noalloc, noexcept)
// wifisense-lint: allow-call(TraceScope) env-gated observability: the span ring is preallocated at trace start; a disabled tracer records nothing
void Pipeline::Link::on_frame(const data::TelemetryFrame& f) {
    common::TraceScope span("reassemble");
    data::LinkReassembler& r = reasm;
    // wifisense-lint: allow(noalloc.container-growth) LinkReassembler::push is itself a proven noalloc root
    r.push(f, ordered);
}

// wifisense-lint: requires(noalloc, noexcept)
void Pipeline::Link::Ordered::on_frame(const data::TelemetryFrame& f) {
    pipeline->join(link, f);
}

// wifisense-lint: requires(noalloc, noexcept)
void Pipeline::join(std::size_t link, const data::TelemetryFrame& f) {
    const std::uint64_t seq = f.sequence;
    if (seq < next_) {
        ++stats_.late_frames;
        return;
    }
    ahead_seq_ = seq;
    ahead_t_ = f.record.timestamp;
    while (seq >= next_ + kSlots) {  // no slot left: force the oldest out
        ++stats_.timed_out_instants;
        decide_next();
    }
    const std::size_t k = seq % kSlots;
    if (!instants_[k].reached)
        instants_[k] = {true, f.record.timestamp, f.record.temperature_c,
                        f.record.humidity_pct};
    frames_[k * links_.size() + link] = {true, f.record.csi};
    links_[link].through = std::max(links_[link].through, seq + 1);
    newest_ = std::max(newest_, seq + 1);
}

// wifisense-lint: allow-call(TraceScope) env-gated observability: the span ring is preallocated at trace start; a disabled tracer records nothing
void Pipeline::release(bool eos) {
    const auto all_past = [&] {
        return std::all_of(links_.begin(), links_.end(),
                           [&](const Link& l) { return l.through > next_; });
    };
    const auto due = [&] {
        return next_ < newest_ && (eos || newest_ > next_ + kJoinWait || all_past());
    };
    if (!due()) return;
    common::TraceScope span("join");
    while (due()) {
        if (!eos && !all_past()) {
            // Waited kJoinWait instants: stop waiting for the links behind.
            const std::uint64_t s = next_;
            for (Link& l : links_) {
                if (l.through > s) continue;
                common::TraceScope flush_span("reassemble");
                data::LinkReassembler& reasm = l.reasm;
                reasm.flush(l.ordered);
            }
            if (next_ != s) continue;  // the flush forced instants out
            ++stats_.timed_out_instants;
        }
        decide_next();
    }
}

// wifisense-lint: allow-call(TraceScope, on_decision) env-gated observability (the span ring is preallocated at trace start); DecisionSink is an abstract observer whose contract forbids allocating and throwing
void Pipeline::decide_next() {
    const std::size_t k = next_ % kSlots;
    Instant& in = instants_[k];
    const std::span<LinkFrame> frames(frames_.data() + k * links_.size(),
                                      links_.size());
    MultiLinkObservation obs{in.t, in.reached, in.temperature_c, in.humidity_pct,
                             frames};
    if (!in.reached) {
        // Dark: interpolate between the last decided instant and the next one
        // a frame reached (in the ring, else the frame forcing this one out).
        std::uint64_t r = next_ + 1;
        while (r < newest_ && !instants_[r % kSlots].reached) ++r;
        const bool ring = r < newest_;
        const double r_t = ring ? instants_[r % kSlots].t : ahead_t_;
        const auto steps = static_cast<double>((ring ? r : ahead_seq_) - next_ + 1);
        obs.timestamp = next_ > 0 ? last_t_ + (r_t - last_t_) / steps : r_t;
    }
    FusionDecision d;
    {
        common::TraceScope span("fuse");
        d = det_.process(obs);
    }
    sink_.on_decision(static_cast<std::uint32_t>(next_), obs, d);
    ++next_;
    last_t_ = obs.timestamp;
    in = Instant{};
    for (LinkFrame& f : frames) f.present = false;
}

}  // namespace wifisense::core
