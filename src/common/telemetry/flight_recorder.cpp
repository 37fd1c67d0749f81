#include "common/telemetry/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>

#include "common/telemetry/event_ring.hpp"

namespace wifisense::common {

namespace obsdetail {
std::atomic<bool> g_flight_enabled{false};
}  // namespace obsdetail

namespace {

/// The flight rings; the stamp is the global sequence below, not a clock.
constinit EventRing<FlightEvent> g_flight_ring;
std::atomic<std::uint64_t> g_next_seq{0};

}  // namespace

void flight_enable(const FlightConfig& cfg) {
    obsdetail::g_flight_enabled.store(false, std::memory_order_relaxed);
    g_flight_ring.enable(std::max<std::size_t>(cfg.events_per_thread, 16),
                         event_slots_for_pool(cfg.max_threads));
    g_next_seq.store(0, std::memory_order_relaxed);
    obsdetail::g_flight_enabled.store(true, std::memory_order_release);
}

void flight_disable() {
    obsdetail::g_flight_enabled.store(false, std::memory_order_relaxed);
}

void flight_reset() {
    const bool was_enabled = flight_enabled();
    obsdetail::g_flight_enabled.store(false, std::memory_order_relaxed);
    g_flight_ring.reset();
    g_next_seq.store(0, std::memory_order_relaxed);
    obsdetail::g_flight_enabled.store(was_enabled, std::memory_order_release);
}

// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void flight_record(const char* category, const char* label, double stream_t,
                   double value, double extra) {
    if (!flight_enabled()) return;
    FlightEvent* e = g_flight_ring.claim();
    if (e == nullptr) return;
    e->category = category;
    e->label = label;
    e->stream_t = stream_t;
    e->value = value;
    e->extra = extra;
    e->seq = g_next_seq.fetch_add(1, std::memory_order_relaxed);
}

std::vector<FlightEvent> flight_snapshot() {
    std::vector<FlightEvent> out = g_flight_ring.snapshot();
    std::sort(out.begin(), out.end(),
              [](const FlightEvent& a, const FlightEvent& b) {
                  return a.seq < b.seq;
              });
    return out;
}

std::uint64_t flight_dropped_events() { return g_flight_ring.dropped(); }

std::string flight_to_json(std::size_t tail) {
    std::vector<FlightEvent> events = flight_snapshot();
    const std::size_t first =
        events.size() > tail ? events.size() - tail : 0;
    std::string out = "{\"dropped\":";
    out += std::to_string(flight_dropped_events());
    out += ",\"events\":[";
    char buf[128];
    for (std::size_t i = first; i < events.size(); ++i) {
        const FlightEvent& e = events[i];
        if (i > first) out += ',';
        std::snprintf(buf, sizeof buf, "{\"seq\":%llu,\"tid\":%u,",
                      static_cast<unsigned long long>(e.seq), e.tid);
        out += buf;
        out += "\"category\":\"";
        append_json_escaped(out, e.category == nullptr ? "" : e.category);
        out += "\",\"label\":\"";
        append_json_escaped(out, e.label == nullptr ? "" : e.label);
        std::snprintf(buf, sizeof buf,
                      "\",\"t\":%.6f,\"value\":%.17g,\"extra\":%.17g}",
                      e.stream_t, e.value, e.extra);
        out += buf;
    }
    out += "]}";
    return out;
}

}  // namespace wifisense::common
