#include "data/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "common/telemetry/flight_recorder.hpp"

namespace wifisense::data {

namespace {

// kWireMagic rendered as the little-endian byte sequence the scanner hunts.
constexpr std::uint8_t kMagicBytes[4] = {0x57, 0x53, 0x54, 0x46};  // "WSTF"

std::uint32_t load_u32(const std::uint8_t* p) {
    std::uint32_t v = 0;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint64_t wire_timestamp_ns(double t_s) {
    if (!(t_s > 0.0)) return 0;
    return static_cast<std::uint64_t>(std::llround(t_s * 1e9));
}

WireCsiPayload payload_from_record(const SampleRecord& rec) {
    WireCsiPayload p;
    p.timestamp = rec.timestamp;
    p.csi = rec.csi;
    p.temperature_c = rec.temperature_c;
    p.humidity_pct = rec.humidity_pct;
    p.room_id = rec.room_id;
    p.occupant_count = rec.occupant_count;
    p.occupancy = rec.occupancy;
    p.activity = rec.activity;
    return p;
}

SampleRecord record_from_payload(const WireCsiPayload& p) {
    SampleRecord rec;
    rec.timestamp = p.timestamp;
    rec.csi = p.csi;
    rec.temperature_c = p.temperature_c;
    rec.humidity_pct = p.humidity_pct;
    rec.room_id = p.room_id;
    rec.occupant_count = p.occupant_count;
    rec.occupancy = p.occupancy;
    rec.activity = p.activity;
    return rec;
}

}  // namespace

void encode_frame(const TelemetryFrame& frame,
                  std::span<std::uint8_t, kWireFrameBytes> out) {
    WireFrameHeader hdr;
    hdr.link_id = frame.link_id;
    hdr.channel = frame.channel;
    hdr.timestamp_ns = frame.timestamp_ns;
    hdr.sequence = frame.sequence;
    hdr.payload_bytes = static_cast<std::uint16_t>(sizeof(WireCsiPayload));
    const WireCsiPayload payload = payload_from_record(frame.record);

    std::memcpy(out.data(), &hdr, sizeof(hdr));
    std::memcpy(out.data() + sizeof(hdr), &payload, sizeof(payload));
    const std::uint32_t crc =
        common::crc32(out.data(), sizeof(hdr) + sizeof(payload));
    std::memcpy(out.data() + sizeof(hdr) + sizeof(payload), &crc, sizeof(crc));
}

void encode_frame(const TelemetryFrame& frame, std::vector<std::uint8_t>& out) {
    const std::size_t base = out.size();
    out.resize(base + kWireFrameBytes);
    encode_frame(frame,
                 std::span<std::uint8_t, kWireFrameBytes>(out.data() + base,
                                                          kWireFrameBytes));
}

const char* defect_label(FrameDefectKind kind) {
    switch (kind) {
        case FrameDefectKind::kGarbage: return "garbage";
        case FrameDefectKind::kTruncated: return "truncated frame";
        case FrameDefectKind::kVersionSkew: return "version skew";
        case FrameDefectKind::kBadKind: return "unknown payload kind";
        case FrameDefectKind::kBadLength: return "bad payload length";
        case FrameDefectKind::kCrcMismatch: return "crc mismatch";
    }
    return "unknown defect";
}

const char* to_string(FrameDefectKind kind) { return defect_label(kind); }

[[nodiscard]] common::Status to_status(const FrameDefect& defect) {
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "telemetry: %s at stream offset %llu (detail=%u)",
                  to_string(defect.kind),
                  static_cast<unsigned long long>(defect.stream_offset),
                  defect.detail);
    common::StatusCode code = common::StatusCode::kCorruptData;
    switch (defect.kind) {
        case FrameDefectKind::kGarbage:
        case FrameDefectKind::kCrcMismatch:
            code = common::StatusCode::kCorruptData;
            break;
        case FrameDefectKind::kTruncated:
            code = common::StatusCode::kTruncated;
            break;
        case FrameDefectKind::kVersionSkew:
        case FrameDefectKind::kBadKind:
        case FrameDefectKind::kBadLength:
            code = common::StatusCode::kFormatMismatch;
            break;
    }
    return common::Status(code, msg);
}

void TelemetryDecoder::reset() {
    len_ = 0;
    base_offset_ = 0;
    run_len_ = 0;
    run_offset_ = 0;
    stats_ = Stats{};
}

// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void TelemetryDecoder::push(std::span<const std::uint8_t> bytes,
                            WireSink& sink) {
    while (!bytes.empty()) {
        const std::size_t n = std::min(bytes.size(), kBufBytes - len_);
        std::memcpy(buf_.data() + len_, bytes.data(), n);
        len_ += n;
        stats_.bytes_consumed += n;
        bytes = bytes.subspan(n);
        scan(sink, /*at_end=*/false);
        // scan() always drains a full buffer below kWireFrameBytes of
        // carry-over, so the next iteration has room and progress holds.
    }
}

// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void TelemetryDecoder::finish(WireSink& sink) {
    scan(sink, /*at_end=*/true);
}

// wifisense-lint: allow-call(on_frame, on_defect) WireSink is an abstract observer; the decoder contract (DESIGN.md §17) requires implementations to be non-allocating and non-throwing on the hot path
void TelemetryDecoder::scan(WireSink& sink, bool at_end) {
    // Flushes the pending skipped-byte run as one aggregated kGarbage defect;
    // called before any frame or typed defect so sink events keep stream
    // order.
    const auto flush_garbage = [&] {
        if (run_len_ == 0) return;
        FrameDefect d;
        d.kind = FrameDefectKind::kGarbage;
        d.stream_offset = run_offset_;
        d.detail = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(run_len_, 0xffffffffu));
        stats_.defects++;
        stats_.resyncs++;
        run_len_ = 0;
        // Flight recorder: the decoder has no stream clock, so defect events
        // carry t=0 and identify themselves by byte offset (value) and run
        // length / detail word (extra); ordering comes from the global seq.
        common::flight_record("defect", "garbage", 0.0,
                              static_cast<double>(d.stream_offset),
                              static_cast<double>(d.detail));
        sink.on_defect(d);
    };
    const auto typed_defect = [&](FrameDefectKind kind, std::size_t pos,
                                  std::uint32_t detail) {
        flush_garbage();
        FrameDefect d;
        d.kind = kind;
        d.stream_offset = base_offset_ + pos;
        d.detail = detail;
        stats_.defects++;
        common::flight_record("defect", defect_label(kind), 0.0,
                              static_cast<double>(d.stream_offset),
                              static_cast<double>(detail));
        sink.on_defect(d);
    };
    const auto skip_byte = [&](std::size_t& pos) {
        if (run_len_ == 0) run_offset_ = base_offset_ + pos;
        run_len_++;
        stats_.bytes_skipped++;
        pos++;
    };

    std::size_t pos = 0;
    while (pos + sizeof(kMagicBytes) <= len_) {
        if (std::memcmp(buf_.data() + pos, kMagicBytes,
                        sizeof(kMagicBytes)) != 0) {
            skip_byte(pos);
            continue;
        }
        if (len_ - pos < kWireHeaderBytes) break;  // header straddles input
        WireFrameHeader hdr;
        std::memcpy(&hdr, buf_.data() + pos, sizeof(hdr));
        if (hdr.version != kWireVersion) {
            stats_.version_skews++;
            typed_defect(FrameDefectKind::kVersionSkew, pos, hdr.version);
            skip_byte(pos);  // rescan one past the magic; body drains as garbage
            continue;
        }
        if (hdr.payload_kind != kWirePayloadCsi) {
            stats_.bad_kinds++;
            typed_defect(FrameDefectKind::kBadKind, pos, hdr.payload_kind);
            skip_byte(pos);
            continue;
        }
        if (hdr.payload_bytes != sizeof(WireCsiPayload)) {
            stats_.bad_lengths++;
            typed_defect(FrameDefectKind::kBadLength, pos, hdr.payload_bytes);
            skip_byte(pos);
            continue;
        }
        if (len_ - pos < kWireFrameBytes) break;  // frame straddles input
        const std::size_t body = sizeof(WireFrameHeader) + sizeof(WireCsiPayload);
        const std::uint32_t want = load_u32(buf_.data() + pos + body);
        const std::uint32_t got = common::crc32(buf_.data() + pos, body);
        if (want != got) {
            stats_.crc_mismatches++;
            typed_defect(FrameDefectKind::kCrcMismatch, pos, 0);
            skip_byte(pos);
            continue;
        }
        // A frame cut to 307 bytes passes the CRC when its lost top CRC byte
        // equals the next frame's first magic byte: the check borrows that
        // byte. An intact frame followed by a real one has the next magic at
        // byte 308, so the magic at [307, 311) marks the cut. Report it and
        // resync there. (If the input ends before byte 311, the decoder
        // cannot tell and accepts, as it must for an intact last frame.)
        if (len_ - pos >= kWireFrameBytes - 1 + sizeof(kMagicBytes) &&
            std::memcmp(buf_.data() + pos + kWireFrameBytes - 1, kMagicBytes,
                        sizeof(kMagicBytes)) == 0) {
            constexpr std::uint32_t kCut = kWireFrameBytes - 1;
            stats_.truncated++;
            stats_.bytes_skipped += kCut;
            typed_defect(FrameDefectKind::kTruncated, pos, kCut);
            pos += kCut;
            continue;
        }
        flush_garbage();
        WireCsiPayload payload;
        std::memcpy(&payload, buf_.data() + pos + sizeof(WireFrameHeader),
                    sizeof(payload));
        TelemetryFrame frame;
        frame.link_id = hdr.link_id;
        frame.channel = hdr.channel;
        frame.timestamp_ns = hdr.timestamp_ns;
        frame.sequence = hdr.sequence;
        frame.record = record_from_payload(payload);
        stats_.frames_decoded++;
        sink.on_frame(frame);
        pos += kWireFrameBytes;
    }

    if (at_end) {
        if (len_ - pos >= sizeof(kMagicBytes) &&
            std::memcmp(buf_.data() + pos, kMagicBytes,
                        sizeof(kMagicBytes)) == 0) {
            // A confirmed frame start with the stream ending inside it.
            const auto remaining = static_cast<std::uint32_t>(len_ - pos);
            stats_.truncated++;
            stats_.bytes_skipped += remaining;
            typed_defect(FrameDefectKind::kTruncated, pos, remaining);
            pos = len_;
        } else {
            while (pos < len_) skip_byte(pos);
        }
        flush_garbage();
        base_offset_ += pos;
        len_ = 0;
        return;
    }

    // Carry the unconsumed tail (partial frame or short magic prefix) over to
    // the next push.
    if (pos > 0) {
        std::memmove(buf_.data(), buf_.data() + pos, len_ - pos);
        base_offset_ += pos;
        len_ -= pos;
    }
}

LinkEncoder::LinkEncoder(std::uint8_t link_id, std::uint8_t channel,
                         const common::FaultPlan* faults)
    : link_id_(link_id), channel_(channel), plan_(faults) {
    if (plan_ != nullptr) skew_s_ = plan_->link_skew_s(link_id_);
}

void LinkEncoder::encode(const SampleRecord& rec,
                         std::vector<std::uint8_t>& out) {
    stats_.frames++;
    const std::uint32_t seq = seq_++;
    if (plan_ != nullptr && plan_->link_offline(link_id_, rec.timestamp)) {
        // The sequence number was consumed at the source, so outage windows
        // surface downstream as reassembly gaps, not silent renumbering.
        stats_.outage_dropped++;
        return;
    }

    TelemetryFrame frame;
    frame.link_id = link_id_;
    frame.channel = channel_;
    frame.sequence = seq;
    // Only the wire clock skews; the payload keeps the true record so the
    // zero-fault round-trip stays bitwise exact.
    frame.timestamp_ns = wire_timestamp_ns(rec.timestamp - skew_s_);
    frame.record = rec;

    std::array<std::uint8_t, kWireFrameBytes> bytes{};
    encode_frame(frame, std::span<std::uint8_t, kWireFrameBytes>(bytes));
    std::size_t len = kWireFrameBytes;

    const common::WireFault wf =
        plan_ != nullptr ? plan_->wire_fault(link_id_, seq)
                         : common::WireFault{};
    if (wf.corrupt) {
        std::uint64_t h = wf.byte_seed;
        h = common::splitmix64(h);
        const int flips = 1 + static_cast<int>(h % 8);
        for (int i = 0; i < flips; ++i) {
            h = common::splitmix64(h);
            const std::uint64_t bit = h % (kWireFrameBytes * 8);
            bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        stats_.corrupted++;
    } else if (wf.truncate) {
        std::uint64_t h = wf.byte_seed;
        h = common::splitmix64(h);
        len = 1 + static_cast<std::size_t>(h % (kWireFrameBytes - 1));
        stats_.truncated++;
    }

    stats_.emitted++;
    if (holding_) {
        // A reorder swap is pending: this frame goes out first, then the held
        // one. A reorder flag on this frame is absorbed by the active swap.
        out.insert(out.end(), bytes.data(), bytes.data() + len);
        out.insert(out.end(), held_.data(), held_.data() + held_len_);
        holding_ = false;
        return;
    }
    if (wf.reorder) {
        held_ = bytes;
        held_len_ = len;
        holding_ = true;
        stats_.reordered++;
        return;
    }
    out.insert(out.end(), bytes.data(), bytes.data() + len);
    if (wf.duplicate) {
        out.insert(out.end(), bytes.data(), bytes.data() + len);
        stats_.duplicated++;
    }
}

void LinkEncoder::flush(std::vector<std::uint8_t>& out) {
    if (!holding_) return;
    out.insert(out.end(), held_.data(), held_.data() + held_len_);
    holding_ = false;
}

}  // namespace wifisense::data
