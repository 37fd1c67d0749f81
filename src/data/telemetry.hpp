// Multi-link telemetry wire format: the packed, versioned, CRC-framed byte
// stream a sensing node emits per CSI packet, and the fault-tolerant decoder
// that turns an arbitrary byte stream back into records.
//
// Frame layout (little-endian, 308 bytes total):
//
//   offset  size  field
//        0     4  magic "WSTF" (0x46545357)
//        4     1  version (kWireVersion)
//        5     1  link_id
//        6     1  channel (WiFi channel number)
//        7     1  payload_kind (0 = CSI sample record)
//        8     8  timestamp_ns (wire clock; may skew per link under faults)
//       16     4  sequence (per-link, starts at 0, increments per frame)
//       20     2  payload_bytes (== sizeof(WireCsiPayload) for kind 0)
//       22     2  reserved (zero)
//       24   280  WireCsiPayload (bitwise image of one SampleRecord)
//      304     4  CRC-32 over bytes [0, 304) (common/crc32, same polynomial
//                 as the nn/serialize model containers)
//
// Design contract mirrored from nn/serialize's v2/v3 containers: explicit
// magic, version word, declared payload size validated before use, CRC over
// everything the reader will trust. On top of that, the decoder adds what a
// lossy transport demands: it never throws, never allocates in steady state
// (fixed carry-over buffer, stack frames), resynchronizes on garbage by
// scanning for the magic, and reports every rejected byte run / frame as a
// typed defect convertible to common::Status.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/fault.hpp"
#include "common/status.hpp"
#include "data/record.hpp"

namespace wifisense::data {

inline constexpr std::uint32_t kWireMagic = 0x46545357u;  // "WSTF" (LE)
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::uint8_t kWirePayloadCsi = 0;

/// Fixed-layout frame header. Every field is naturally aligned and the
/// static_asserts below pin the exact wire offsets — the struct IS the wire
/// format (little-endian hosts; the project targets x86-64).
struct WireFrameHeader {
    std::uint32_t magic = kWireMagic;
    std::uint8_t version = kWireVersion;
    std::uint8_t link_id = 0;
    std::uint8_t channel = 0;
    std::uint8_t payload_kind = kWirePayloadCsi;
    std::uint64_t timestamp_ns = 0;
    std::uint32_t sequence = 0;
    std::uint16_t payload_bytes = 0;
    std::uint16_t reserved = 0;
};

static_assert(sizeof(WireFrameHeader) == 24, "wire header must be 24 bytes");
static_assert(offsetof(WireFrameHeader, magic) == 0);
static_assert(offsetof(WireFrameHeader, version) == 4);
static_assert(offsetof(WireFrameHeader, link_id) == 5);
static_assert(offsetof(WireFrameHeader, channel) == 6);
static_assert(offsetof(WireFrameHeader, payload_kind) == 7);
static_assert(offsetof(WireFrameHeader, timestamp_ns) == 8);
static_assert(offsetof(WireFrameHeader, sequence) == 16);
static_assert(offsetof(WireFrameHeader, payload_bytes) == 20);
static_assert(offsetof(WireFrameHeader, reserved) == 22);

/// Payload kind 0: a bitwise image of one Table-I SampleRecord. Field order
/// is chosen so every member is naturally aligned with no implicit padding;
/// encode/decode round-trips the record exactly (same float/double bits).
struct WireCsiPayload {
    double timestamp = 0.0;
    std::array<float, kNumSubcarriers> csi{};
    float temperature_c = 0.0f;
    float humidity_pct = 0.0f;
    std::uint32_t room_id = 0;
    std::uint8_t occupant_count = 0;
    std::uint8_t occupancy = 0;
    std::uint8_t activity = 0;
    std::uint8_t pad = 0;
};

static_assert(sizeof(WireCsiPayload) == 280, "wire payload must be 280 bytes");
static_assert(offsetof(WireCsiPayload, timestamp) == 0);
static_assert(offsetof(WireCsiPayload, csi) == 8);
static_assert(offsetof(WireCsiPayload, temperature_c) == 264);
static_assert(offsetof(WireCsiPayload, humidity_pct) == 268);
static_assert(offsetof(WireCsiPayload, room_id) == 272);
static_assert(offsetof(WireCsiPayload, occupant_count) == 276);
static_assert(offsetof(WireCsiPayload, occupancy) == 277);
static_assert(offsetof(WireCsiPayload, activity) == 278);
static_assert(offsetof(WireCsiPayload, pad) == 279);

inline constexpr std::size_t kWireHeaderBytes = sizeof(WireFrameHeader);
inline constexpr std::size_t kWireFrameBytes =
    sizeof(WireFrameHeader) + sizeof(WireCsiPayload) + sizeof(std::uint32_t);

/// One decoded frame: the header metadata plus the carried record.
struct TelemetryFrame {
    std::uint8_t link_id = 0;
    std::uint8_t channel = 0;
    std::uint64_t timestamp_ns = 0;
    std::uint32_t sequence = 0;
    SampleRecord record;
};

/// Encode one frame; appends exactly kWireFrameBytes to `out`.
void encode_frame(const TelemetryFrame& frame, std::vector<std::uint8_t>& out);

/// Fixed-buffer variant (allocation-free): writes exactly kWireFrameBytes.
void encode_frame(const TelemetryFrame& frame,
                  std::span<std::uint8_t, kWireFrameBytes> out);

/// Why the decoder rejected a byte run or frame.
enum class FrameDefectKind : std::uint8_t {
    kGarbage = 0,      ///< bytes skipped while hunting for the magic
    kTruncated = 1,    ///< stream ended inside a frame (finish())
    kVersionSkew = 2,  ///< well-framed but a version this decoder won't read
    kBadKind = 3,      ///< unknown payload_kind
    kBadLength = 4,    ///< declared payload size impossible for the kind
    kCrcMismatch = 5,  ///< framing consistent but the checksum disagrees
};

/// Static label for a defect kind. The distinct name (not a to_string
/// overload) keeps the decoder's hot-path flight-recorder call resolvable
/// to this one pure function under the interprocedural lint.
const char* defect_label(FrameDefectKind kind);
const char* to_string(FrameDefectKind kind);

/// One typed rejection. POD by design: the decoder hands these out on the
/// hot path without allocating; render with to_status() when diagnosing.
struct FrameDefect {
    FrameDefectKind kind = FrameDefectKind::kGarbage;
    /// Byte offset in the overall input stream where the defect was noticed.
    std::uint64_t stream_offset = 0;
    /// kGarbage/kTruncated: byte count; kVersionSkew: the offending version;
    /// kBadKind: the kind; kBadLength: the declared payload size.
    std::uint32_t detail = 0;
};

/// Render a defect as a typed Status (kCorruptData / kTruncated /
/// kFormatMismatch with a human-readable message). Allocates — diagnostics
/// only, never called by the decoder itself.
[[nodiscard]] common::Status to_status(const FrameDefect& defect);

/// Receives decoded frames (and, for the decoder, typed rejections).
class FrameSink {
public:
    virtual void on_frame(const TelemetryFrame& frame) = 0;

protected:
    ~FrameSink() = default;
};

class WireSink : public FrameSink {
public:
    /// Default: defects are counted by the decoder but otherwise ignored.
    virtual void on_defect(const FrameDefect& defect) { (void)defect; }

protected:
    ~WireSink() = default;
};

/// Streaming frame decoder over an arbitrary, possibly hostile byte stream.
///
/// Contract:
///   - push()/finish() never throw, whatever the bytes contain;
///   - no allocation after construction: the carry-over buffer is a fixed
///     member array and frames decode onto the stack;
///   - progress is guaranteed (every scan step consumes at least one byte or
///     waits for more input), so adversarial input cannot wedge it;
///   - every rejected frame or skipped byte run surfaces as exactly one
///     typed FrameDefect through WireSink::on_defect.
///
/// Resynchronization: bytes are skipped one at a time until the magic word
/// aligns; a frame whose header validates but whose CRC disagrees advances
/// one byte past the magic and rescans (a corrupted real frame then drains
/// as garbage, a fake magic inside noise is stepped over). Feed chunks of
/// any size — frames may straddle push() boundaries arbitrarily.
class TelemetryDecoder {
public:
    struct Stats {
        std::uint64_t bytes_consumed = 0;
        std::uint64_t frames_decoded = 0;
        std::uint64_t defects = 0;
        std::uint64_t bytes_skipped = 0;  ///< garbage + rejected-frame bytes
        std::uint64_t resyncs = 0;        ///< contiguous skipped runs
        std::uint64_t crc_mismatches = 0;
        std::uint64_t version_skews = 0;
        std::uint64_t bad_kinds = 0;
        std::uint64_t bad_lengths = 0;
        std::uint64_t truncated = 0;
    };

    /// Consume a chunk. Frames and defects surface through `sink` in stream
    /// order. Never throws; never allocates.
    void push(std::span<const std::uint8_t> bytes, WireSink& sink);

    /// Signal end-of-stream: a pending partial frame surfaces as kTruncated,
    /// pending garbage as kGarbage. The decoder is reusable afterwards.
    void finish(WireSink& sink);

    [[nodiscard]] const Stats& stats() const { return stats_; }
    void reset();

private:
    /// Scan buf_[0, len_), emitting frames/defects; compacts the buffer.
    void scan(WireSink& sink, bool at_end);

    static constexpr std::size_t kBufBytes = 4096;
    static_assert(kBufBytes >= 2 * kWireFrameBytes,
                  "carry-over buffer must hold a straddling frame");

    std::array<std::uint8_t, kBufBytes> buf_{};
    std::size_t len_ = 0;
    std::uint64_t base_offset_ = 0;  ///< stream offset of buf_[0]
    std::uint64_t run_len_ = 0;      ///< pending skipped-byte run (may span pushes)
    std::uint64_t run_offset_ = 0;   ///< stream offset where that run began
    Stats stats_;
};

/// Simulator-side encoder for one link's record stream: stamps link id,
/// channel and a monotone sequence, derives the wire timestamp from the
/// record clock, and — when a FaultPlan is injected — realizes the wire-level
/// transport faults (per-link outage windows, byte corruption, truncation,
/// duplication, one-frame reordering, per-link clock skew). With a null or
/// inactive plan the output is the exact concatenation of clean frames.
class LinkEncoder {
public:
    struct WireStats {
        std::uint64_t frames = 0;          ///< records offered
        std::uint64_t emitted = 0;         ///< frames that produced bytes
        std::uint64_t outage_dropped = 0;
        std::uint64_t corrupted = 0;
        std::uint64_t truncated = 0;
        std::uint64_t duplicated = 0;
        std::uint64_t reordered = 0;
    };

    explicit LinkEncoder(std::uint8_t link_id, std::uint8_t channel = 6,
                         const common::FaultPlan* faults = nullptr);

    /// Encode one record, appending its (possibly faulted) bytes to `out`.
    void encode(const SampleRecord& rec, std::vector<std::uint8_t>& out);

    /// Release a frame held back by a pending reorder swap. Call at
    /// end-of-stream.
    void flush(std::vector<std::uint8_t>& out);

    [[nodiscard]] const WireStats& wire_stats() const { return stats_; }

private:
    std::uint8_t link_id_;
    std::uint8_t channel_;
    const common::FaultPlan* plan_;
    double skew_s_ = 0.0;
    std::uint32_t seq_ = 0;
    bool holding_ = false;
    std::size_t held_len_ = 0;
    std::array<std::uint8_t, kWireFrameBytes> held_{};
    WireStats stats_;
};

}  // namespace wifisense::data
