#include "common/metrics.hpp"

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include "common/telemetry/flight_recorder.hpp"
#include "common/telemetry/quantile_sketch.hpp"
#include "common/telemetry/sliding_window.hpp"
#include "common/telemetry/slo.hpp"

namespace wifisense::common {

namespace obsdetail {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace obsdetail

namespace {

/// Name-keyed instruments of one kind. std::map keeps export order
/// deterministic (sorted by name); unique_ptr keeps handles stable across
/// later registrations.
template <class T>
using Family = std::map<std::string, std::unique_ptr<T>, std::less<>>;

/// The process-wide registry: one lock, one reset and one export for every
/// instrument.
struct Registry {
    std::mutex mu;
    Family<Counter> counters;
    Family<Gauge> gauges;
    Family<QuantileSketch> sketches;
    Family<SlidingWindow> windows;
    Family<SloMonitor> slos;
};

Registry& registry() {
    static Registry r;
    return r;
}

/// The one lookup-or-create path; `args` construct the instrument on its
/// first registration only.
template <class T, class... Args>
T& lookup_or_create(Family<T>& family, std::string_view name,
                    const Args&... args) {
    std::lock_guard lock(registry().mu);
    auto it = family.find(name);
    if (it == family.end())
        it = family.emplace(std::string(name), std::make_unique<T>(args...))
                 .first;
    return *it->second;
}

/// Most recent flight-recorder events carried by a snapshot.
constexpr std::size_t kSnapshotRecorderTail = 512;

constexpr const char* kQuantileKeys[kSketchQuantileCount] = {"p50", "p90",
                                                             "p99", "p999"};

/// The one JSON number formatter: shortest round-trip form of a double.
void append_number(std::string& out, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

/// Opens member `name` of the object being written, comma-separated from
/// the previous member unless it is the first.
void append_key(std::string& out, bool& first, std::string_view name) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
}

void append_field(std::string& out, const char* key, double v) {
    out += ",\"";
    out += key;
    out += "\":";
    append_number(out, v);
}

void append_field(std::string& out, const char* key, std::uint64_t v) {
    out += ",\"";
    out += key;
    out += "\":";
    out += std::to_string(v);
}

void append_field(std::string& out, const char* key, bool v) {
    out += ",\"";
    out += key;
    out += v ? "\":true" : "\":false";
}

}  // namespace

void metrics_enable() {
    obsdetail::g_metrics_enabled.store(true, std::memory_order_release);
}

void metrics_disable() {
    obsdetail::g_metrics_enabled.store(false, std::memory_order_relaxed);
}

void metrics_reset() {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    const auto reset_all = [](auto& family) {
        for (auto& [name, instrument] : family) instrument->reset();
    };
    reset_all(r.counters);
    reset_all(r.gauges);
    reset_all(r.sketches);
    reset_all(r.windows);
    reset_all(r.slos);
}

Counter& obs_counter(std::string_view name) {
    return lookup_or_create(registry().counters, name);
}

Gauge& obs_gauge(std::string_view name) {
    return lookup_or_create(registry().gauges, name);
}

QuantileSketch& obs_sketch(std::string_view name) {
    return lookup_or_create(registry().sketches, name);
}

SlidingWindow& obs_window(std::string_view name, const WindowConfig& cfg) {
    return lookup_or_create(registry().windows, name, cfg);
}

SloMonitor& obs_slo(const SloSpec& spec) {
    return lookup_or_create(registry().slos, spec.name, spec);
}

std::string telemetry_snapshot_json() {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    std::string out =
        "{\"schema\":\"wifisense.telemetry_snapshot/v2\",\"metrics\":{"
        "\"counters\":{";
    bool first = true;
    for (const auto& [name, c] : r.counters) {
        append_key(out, first, name);
        out += std::to_string(c->value());
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, g] : r.gauges) {
        append_key(out, first, name);
        append_number(out, g->value());
    }
    out += "}},\"sketches\":{";
    first = true;
    for (const auto& [name, s] : r.sketches) {
        append_key(out, first, name);
        out += "{\"count\":" + std::to_string(s->count());
        append_field(out, "min", s->min());
        append_field(out, "max", s->max());
        append_field(out, "sum", s->sum());
        for (std::size_t i = 0; i < kSketchQuantileCount; ++i)
            append_field(out, kQuantileKeys[i], s->estimate(i));
        out += '}';
    }
    out += "},\"windows\":{";
    first = true;
    for (const auto& [name, w] : r.windows) {
        const double span = w->span_s();
        append_key(out, first, name);
        out += "{\"window_s\":";
        append_number(out, span);
        append_field(out, "count", w->count_last(span));
        append_field(out, "rate_per_s", w->rate_per_s(span));
        append_field(out, "late_dropped", w->late_dropped());
        if (w->config().reservoir > 0)
            for (std::size_t i = 0; i < kSketchQuantileCount; ++i)
                append_field(out, kQuantileKeys[i],
                             w->quantile_last(span, kSketchQuantiles[i]));
        out += '}';
    }
    out += "},\"slo\":[";
    first = true;
    for (const auto& [name, mon] : r.slos) {
        // Evaluated before the recorder tail is read, so a breach found
        // here is in this snapshot's recorder section.
        const SloVerdict v = mon->evaluate();
        if (!first) out += ',';
        first = false;
        out += "{\"name\":\"" + name + "\",\"spec\":\"" +
               mon->spec().to_spec() + "\",\"state\":\"" + to_string(v.state) +
               '"';
        append_field(out, "availability_breach", v.availability_breach);
        append_field(out, "latency_breach", v.latency_breach);
        append_field(out, "fast_burn", v.fast_burn);
        append_field(out, "slow_burn", v.slow_burn);
        append_field(out, "availability_fast_pct", v.availability_fast_pct);
        append_field(out, "availability_slow_pct", v.availability_slow_pct);
        append_field(out, "latency_fast_us", v.latency_fast_us);
        append_field(out, "latency_slow_us", v.latency_slow_us);
        append_field(out, "requests_fast", v.requests_fast);
        append_field(out, "requests_slow", v.requests_slow);
        out += '}';
    }
    out += "],\"recorder\":";
    out += flight_to_json(kSnapshotRecorderTail);
    out += '}';
    return out;
}

[[nodiscard]] Status write_telemetry_snapshot(const std::string& path) {
    const std::string json = telemetry_snapshot_json() + "\n";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return Status(StatusCode::kIoError,
                      "write_telemetry_snapshot: cannot open " + path);
    const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    if (written != json.size())
        return Status(StatusCode::kIoError,
                      "write_telemetry_snapshot: short write to " + path);
    return Status::ok();
}

}  // namespace wifisense::common
