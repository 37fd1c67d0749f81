#include "common/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "common/metrics.hpp"
#include "common/telemetry/event_ring.hpp"
#include "common/telemetry/flight_recorder.hpp"

namespace wifisense::common {

std::uint64_t trace_now_ns() {
    // The tree's single sanctioned monotonic clock read (this file is exempt
    // from det.clock / obs.raw-clock — see tools/lint/wifisense_lint.cpp).
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double trace_seconds_since(std::uint64_t start_ns) {
    const std::uint64_t now = trace_now_ns();
    return now >= start_ns ? static_cast<double>(now - start_ns) * 1e-9 : 0.0;
}

namespace obsdetail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace obsdetail

void append_json_escaped(std::string& out, const char* text) {
    for (const char* p = text; *p != '\0'; ++p) {
        const char c = *p;
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
}

namespace {

/// The span rings of the current trace session (the stamp — clock reads —
/// happens in TraceScope; this file only stores and exports).
constinit EventRing<TraceEvent> g_span_ring;

void record_event(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                  bool instant) {
    if (!trace_enabled()) return;
    TraceEvent* e = g_span_ring.claim();
    if (e == nullptr) return;
    e->name = name;
    e->start_ns = start_ns;
    e->end_ns = end_ns;
    e->instant = instant;
}

}  // namespace

namespace obsdetail {

void record_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns) {
    record_event(name, start_ns, end_ns, /*instant=*/false);
}

void record_instant(const char* name, std::uint64_t t_ns) {
    record_event(name, t_ns, t_ns, /*instant=*/true);
}

}  // namespace obsdetail

void trace_enable(const TraceConfig& cfg) {
    obsdetail::g_trace_enabled.store(false, std::memory_order_relaxed);
    g_span_ring.enable(std::max<std::size_t>(cfg.events_per_thread, 64),
                  cfg.max_threads, cfg.sample_every);
    obsdetail::g_trace_enabled.store(true, std::memory_order_release);
}

void trace_disable() {
    obsdetail::g_trace_enabled.store(false, std::memory_order_relaxed);
}

void trace_reset() {
    const bool was_enabled = trace_enabled();
    obsdetail::g_trace_enabled.store(false, std::memory_order_relaxed);
    g_span_ring.reset();
    obsdetail::g_trace_enabled.store(was_enabled, std::memory_order_release);
}

std::vector<TraceEvent> trace_snapshot() { return g_span_ring.snapshot(); }

std::uint64_t trace_dropped_events() { return g_span_ring.dropped(); }

std::uint64_t trace_sampled_out() { return g_span_ring.sampled_out(); }

std::string trace_to_chrome_json() {
    std::vector<TraceEvent> events = trace_snapshot();
    std::sort(events.begin(), events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                  if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                  if (a.tid != b.tid) return a.tid < b.tid;
                  return a.end_ns > b.end_ns;  // parents before children
              });

    std::string out = "{\"traceEvents\":[";
    char buf[160];
    bool first = true;
    std::uint32_t max_tid = 0;
    for (const TraceEvent& e : events) {
        max_tid = std::max(max_tid, e.tid);
        if (!first) out += ',';
        first = false;
        out += "{\"name\":\"";
        append_json_escaped(out, e.name);
        if (e.instant) {
            std::snprintf(buf, sizeof buf,
                          "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%u,"
                          "\"ts\":%.3f}",
                          e.tid, static_cast<double>(e.start_ns) * 1e-3);
        } else {
            std::snprintf(buf, sizeof buf,
                          "\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,\"ts\":%.3f,"
                          "\"dur\":%.3f}",
                          e.tid, static_cast<double>(e.start_ns) * 1e-3,
                          static_cast<double>(e.end_ns - e.start_ns) * 1e-3);
        }
        out += buf;
    }
    for (std::uint32_t tid = 0; !events.empty() && tid <= max_tid; ++tid) {
        std::snprintf(buf, sizeof buf,
                      ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                      "\"tid\":%u,\"args\":{\"name\":\"slot-%u\"}}",
                      tid, tid);
        out += buf;
    }
    out += "],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

[[nodiscard]] Status write_chrome_trace(const std::string& path) {
    const std::string json = trace_to_chrome_json();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return Status(StatusCode::kIoError,
                      "write_chrome_trace: cannot open " + path);
    const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    if (written != json.size())
        return Status(StatusCode::kIoError,
                      "write_chrome_trace: short write to " + path);
    return Status::ok();
}

ObservabilityEnv configure_observability_from_env() {
    ObservabilityEnv env;
    const auto parse = [](const char* value, bool* enabled, std::string* path) {
        if (value == nullptr || value[0] == '\0') return;
        if (std::string_view(value) == "0") return;
        *enabled = true;
        if (std::string_view(value) != "1") *path = value;
    };
    parse(std::getenv("WIFISENSE_TRACE"), &env.trace, &env.trace_path);
    parse(std::getenv("WIFISENSE_METRICS"), &env.metrics, &env.metrics_path);
    parse(std::getenv("WIFISENSE_SNAPSHOT"), &env.snapshot, &env.snapshot_path);
    if (const char* sample = std::getenv("WIFISENSE_TRACE_SAMPLE")) {
        const long v = std::atol(sample);
        if (v > 1) env.trace_sample_every = static_cast<std::size_t>(v);
    }
    if (env.trace) {
        TraceConfig cfg;
        cfg.sample_every = env.trace_sample_every;
        trace_enable(cfg);
    }
    if (env.metrics) metrics_enable();
    if (env.snapshot) {
        // A snapshot is only useful with live instruments, so arming it arms
        // the metric registry and the flight recorder too.
        metrics_enable();
        flight_enable();
    }
    return env;
}

}  // namespace wifisense::common
