// Zero-overhead scoped tracing + the sanctioned wall-clock source.
//
// The repo's determinism contract bans raw clock reads everywhere outside
// data/simtime (the lint rules det.clock / obs.raw-clock enforce it). This
// module is the one sanctioned exception: `trace_now_ns()` is the only
// monotonic clock the tree may read, so every timing number — bench wall
// clocks, span durations, latency histograms — flows through a single
// lint-visible choke point that is guaranteed to never influence computed
// outputs.
//
// On top of the clock sits a runtime-gated span recorder (see DESIGN.md §14):
//
//   - `TraceScope s("train.step");` records a begin/end pair into a
//     pre-reserved per-thread ring buffer. Disabled cost: one relaxed atomic
//     load and a branch — no clock read, no allocation, safe inside the
//     noalloc lint regions of the training hot path.
//   - Ring buffers (and the thread-slot table) are sized once at
//     trace_enable() time; recording a span is a clock read plus a slot
//     write. A full ring wraps (oldest events are dropped and counted),
//     never grows. The rings are common/telemetry/event_ring.hpp, shared
//     with the flight recorder.
//   - Span names must be string literals (or otherwise outlive the trace
//     session): only the pointer is stored.
//   - Worker threads of the common/parallel.hpp pool record their chunk
//     spans on their own slots, so nested instrumentation (e.g. matmul
//     inside a training step) lands on the thread that ran it and nests
//     correctly in the Chrome trace viewer.
//   - Tracing is observational by construction: nothing downstream reads a
//     recorded event or the clock into a computation, so enabling it cannot
//     perturb bitwise outputs (tests/test_observability.cpp pins this with
//     the golden training values at 1/2/8 threads).
//
// Export is Chrome-trace JSON ("traceEvents" complete events), loadable in
// chrome://tracing or https://ui.perfetto.dev.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace wifisense::common {

/// Monotonic nanoseconds since an arbitrary epoch — the tree's only
/// sanctioned wall-clock read (see file comment). Always available, even
/// when tracing is disabled.
std::uint64_t trace_now_ns();

/// Seconds elapsed since a `trace_now_ns()` reading.
double trace_seconds_since(std::uint64_t start_ns);

struct TraceConfig {
    /// Ring capacity per thread slot, rounded up to a power of two. A full
    /// ring wraps: the oldest events are dropped (and counted), recording
    /// never allocates or blocks.
    std::size_t events_per_thread = std::size_t{1} << 15;
    /// Thread slots pre-reserved at enable time. Threads beyond this record
    /// nothing (counted in trace_dropped_events()).
    std::size_t max_threads = 64;
    /// Record only every N-th event per thread (1 = record everything).
    /// Fleet-scale soaks emit millions of sim.event/sim.tick spans; sampling
    /// keeps a long run's rings from wrapping while preserving the shape of
    /// the profile. Sampled-out events are counted by trace_sampled_out(),
    /// not by trace_dropped_events() (they were skipped by policy, not lost).
    std::size_t sample_every = 1;
};

/// One recorded event. `tid` is the recording thread's slot index (stable
/// for the lifetime of the thread within one enable() session).
struct TraceEvent {
    const char* name = nullptr;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;  ///< == start_ns for instant events
    std::uint32_t tid = 0;
    bool instant = false;
};

/// Pre-reserve the ring buffers and start recording. Must be called outside
/// any parallel region; allocates all tracing memory up front so that
/// recording afterwards is allocation-free. Re-enabling discards previously
/// recorded events.
void trace_enable(const TraceConfig& cfg = {});

/// Stop recording. Already-recorded events are kept for snapshot/export.
void trace_disable();

/// Drop all recorded events but keep the buffers and the enabled state.
void trace_reset();

/// Events recorded so far, ordered by (slot, record order). Oldest wrapped
/// events are gone. Safe to call while disabled.
std::vector<TraceEvent> trace_snapshot();

/// Events lost to ring wrap-around or thread-slot exhaustion.
std::uint64_t trace_dropped_events();

/// Events skipped by the 1-in-N sampling policy (TraceConfig::sample_every).
std::uint64_t trace_sampled_out();

/// Chrome-trace JSON ("traceEvents" array of "X"/"i" events plus thread
/// metadata), ready for chrome://tracing or Perfetto.
std::string trace_to_chrome_json();

/// Write trace_to_chrome_json() to `path`.
[[nodiscard]] Status write_chrome_trace(const std::string& path);

namespace obsdetail {

extern std::atomic<bool> g_trace_enabled;

void record_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns);
void record_instant(const char* name, std::uint64_t t_ns);

}  // namespace obsdetail

/// True while span recording is live. The relaxed load is the entire
/// disabled-path cost of a TraceScope.
inline bool trace_enabled() {
    return obsdetail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// RAII span: construction stamps the start, destruction stamps the end and
/// writes one slot of the calling thread's ring. `name` must outlive the
/// trace session (use string literals).
class TraceScope {
public:
    explicit TraceScope(const char* name) {
        if (trace_enabled()) {
            name_ = name;
            start_ns_ = trace_now_ns();
        }
    }
    ~TraceScope() {
        if (name_ != nullptr)
            obsdetail::record_span(name_, start_ns_, trace_now_ns());
    }
    TraceScope(const TraceScope&) = delete;
    TraceScope& operator=(const TraceScope&) = delete;

private:
    const char* name_ = nullptr;
    std::uint64_t start_ns_ = 0;
};

/// Zero-duration marker event (state transitions, one-off occurrences).
inline void trace_instant(const char* name) {
    if (trace_enabled()) obsdetail::record_instant(name, trace_now_ns());
}

/// What configure_observability_from_env() found and enabled.
struct ObservabilityEnv {
    bool trace = false;           ///< tracing enabled via WIFISENSE_TRACE
    std::string trace_path;       ///< output path ("" = in-memory only)
    bool metrics = false;         ///< metrics enabled via WIFISENSE_METRICS
    std::string metrics_path;     ///< output path ("" = embed in reports only)
    bool snapshot = false;        ///< snapshot armed via WIFISENSE_SNAPSHOT
    std::string snapshot_path;    ///< telemetry_snapshot output path
    std::size_t trace_sample_every = 1;  ///< WIFISENSE_TRACE_SAMPLE (1-in-N)
};

/// Apply the WIFISENSE_TRACE / WIFISENSE_METRICS environment variables,
/// mirroring WIFISENSE_THREADS:
///   WIFISENSE_TRACE=trace.json    enable tracing, export to trace.json
///   WIFISENSE_TRACE=1             enable tracing, keep events in memory
///   WIFISENSE_TRACE_SAMPLE=N      record only every N-th span per thread
///   WIFISENSE_METRICS=metrics.json / =1   likewise for the metric registry
///   WIFISENSE_SNAPSHOT=snap.json  arm metrics + the flight recorder and
///                                 request a telemetry snapshot at snap.json
///                                 (harness writes it at exit; =1 arms only)
/// Unset, empty, or "0" leaves the corresponding subsystem untouched.
ObservabilityEnv configure_observability_from_env();

}  // namespace wifisense::common
