#include "common/metrics.hpp"

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include "common/telemetry/quantile_sketch.hpp"
#include "common/telemetry/sliding_window.hpp"

namespace wifisense::common {

namespace obsdetail {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace obsdetail

namespace {

/// The process-wide instrument registry. std::map keeps export order
/// deterministic (sorted by name); unique_ptr keeps handles stable across
/// later registrations.
struct Registry {
    std::mutex mu;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
    // Serving-grade telemetry instruments (common/telemetry/), registered
    // alongside the PR-5 trio so one registry owns every handle's lifetime
    // and one reset touches everything.
    std::map<std::string, std::unique_ptr<QuantileSketch>, std::less<>> sketches;
    std::map<std::string, std::unique_ptr<WindowedCounter>, std::less<>>
        windowed_counters;
    std::map<std::string, std::unique_ptr<WindowedQuantile>, std::less<>>
        windowed_quantiles;
};

Registry& registry() {
    static Registry r;
    return r;
}

void append_double(std::string& out, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

}  // namespace

Histogram::Histogram(std::string name, std::span<const double> edges)
    : name_(std::move(name)),
      edges_(edges.begin(), edges.end()),
      counts_(edges.size() + 1) {}

std::uint64_t Histogram::total_count() const {
    std::uint64_t total = 0;
    for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
    return total;
}

void Histogram::reset() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    sum_bits_.store(0, std::memory_order_relaxed);
    underflow_.store(0, std::memory_order_relaxed);
    overflow_.store(0, std::memory_order_relaxed);
}

void metrics_enable() {
    obsdetail::g_metrics_enabled.store(true, std::memory_order_release);
}

void metrics_disable() {
    obsdetail::g_metrics_enabled.store(false, std::memory_order_relaxed);
}

void metrics_reset() {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    for (auto& [name, c] : r.counters) c->reset();
    for (auto& [name, g] : r.gauges) g->reset();
    for (auto& [name, h] : r.histograms) h->reset();
    for (auto& [name, s] : r.sketches) s->reset();
    for (auto& [name, w] : r.windowed_counters) w->reset();
    for (auto& [name, w] : r.windowed_quantiles) w->reset();
}

Counter& obs_counter(std::string_view name) {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    auto it = r.counters.find(name);
    if (it == r.counters.end())
        it = r.counters
                 .emplace(std::string(name),
                          std::make_unique<Counter>(std::string(name)))
                 .first;
    return *it->second;
}

Gauge& obs_gauge(std::string_view name) {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    auto it = r.gauges.find(name);
    if (it == r.gauges.end())
        it = r.gauges
                 .emplace(std::string(name),
                          std::make_unique<Gauge>(std::string(name)))
                 .first;
    return *it->second;
}

Histogram& obs_histogram(std::string_view name, std::span<const double> edges) {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    auto it = r.histograms.find(name);
    if (it == r.histograms.end())
        it = r.histograms
                 .emplace(std::string(name),
                          std::make_unique<Histogram>(std::string(name), edges))
                 .first;
    return *it->second;
}

QuantileSketch& obs_sketch(std::string_view name) {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    auto it = r.sketches.find(name);
    if (it == r.sketches.end())
        it = r.sketches
                 .emplace(std::string(name),
                          std::make_unique<QuantileSketch>(std::string(name)))
                 .first;
    return *it->second;
}

WindowedCounter& obs_windowed_counter(std::string_view name,
                                      const WindowConfig& cfg) {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    auto it = r.windowed_counters.find(name);
    if (it == r.windowed_counters.end())
        it = r.windowed_counters
                 .emplace(std::string(name), std::make_unique<WindowedCounter>(
                                                 std::string(name), cfg))
                 .first;
    return *it->second;
}

WindowedQuantile& obs_windowed_quantile(std::string_view name,
                                        const WindowConfig& cfg) {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    auto it = r.windowed_quantiles.find(name);
    if (it == r.windowed_quantiles.end())
        it = r.windowed_quantiles
                 .emplace(std::string(name), std::make_unique<WindowedQuantile>(
                                                 std::string(name), cfg))
                 .first;
    return *it->second;
}

std::string sketches_to_json() {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    std::string out = "{";
    bool first = true;
    for (const auto& [name, s] : r.sketches) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += name;
        out += "\":{\"count\":";
        out += std::to_string(s->count());
        out += ",\"min\":";
        append_double(out, s->min());
        out += ",\"max\":";
        append_double(out, s->max());
        out += ",\"sum\":";
        append_double(out, s->sum());
        static constexpr const char* kQuantileKeys[] = {"p50", "p90", "p99",
                                                        "p999"};
        for (std::size_t i = 0; i < kSketchQuantileCount; ++i) {
            out += ",\"";
            out += kQuantileKeys[i];
            out += "\":";
            append_double(out, s->estimate(i));
        }
        out += '}';
    }
    out += "}";
    return out;
}

std::string windows_to_json() {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto& [name, w] : r.windowed_counters) {
        if (!first) out += ',';
        first = false;
        const double span =
            static_cast<double>(w->config().epochs) * w->config().epoch_seconds;
        out += '"';
        out += name;
        out += "\":{\"window_s\":";
        append_double(out, span);
        out += ",\"total\":";
        out += std::to_string(w->total());
        out += ",\"rate_per_s\":";
        append_double(out, w->rate_per_s(span));
        out += ",\"late_dropped\":";
        out += std::to_string(w->late_dropped());
        out += '}';
    }
    out += "},\"quantiles\":{";
    first = true;
    for (const auto& [name, w] : r.windowed_quantiles) {
        if (!first) out += ',';
        first = false;
        const double span =
            static_cast<double>(w->config().epochs) * w->config().epoch_seconds;
        out += '"';
        out += name;
        out += "\":{\"window_s\":";
        append_double(out, span);
        out += ",\"count\":";
        out += std::to_string(w->count_last(span));
        out += ",\"late_dropped\":";
        out += std::to_string(w->late_dropped());
        static constexpr const char* kQuantileKeys[] = {"p50", "p90", "p99",
                                                        "p999"};
        for (std::size_t i = 0; i < kSketchQuantileCount; ++i) {
            out += ",\"";
            out += kQuantileKeys[i];
            out += "\":";
            append_double(out, w->quantile_last(span, kSketchQuantiles[i]));
        }
        out += '}';
    }
    out += "}}";
    return out;
}

std::string metrics_to_json() {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto& [name, c] : r.counters) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += name;
        out += "\":";
        out += std::to_string(c->value());
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, g] : r.gauges) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += name;
        out += "\":";
        append_double(out, g->value());
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : r.histograms) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += name;
        out += "\":{\"edges\":[";
        for (std::size_t i = 0; i < h->edges().size(); ++i) {
            if (i > 0) out += ',';
            append_double(out, h->edges()[i]);
        }
        out += "],\"counts\":[";
        for (std::size_t i = 0; i <= h->edges().size(); ++i) {
            if (i > 0) out += ',';
            out += std::to_string(h->bucket_count(i));
        }
        out += "],\"count\":";
        out += std::to_string(h->total_count());
        out += ",\"sum\":";
        append_double(out, h->sum());
        out += ",\"underflow\":";
        out += std::to_string(h->underflow_count());
        out += ",\"overflow\":";
        out += std::to_string(h->overflow_count());
        out += '}';
    }
    out += "}}";
    return out;
}

[[nodiscard]] Status write_metrics_json(const std::string& path) {
    const std::string json = metrics_to_json() + "\n";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return Status(StatusCode::kIoError,
                      "write_metrics_json: cannot open " + path);
    const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    if (written != json.size())
        return Status(StatusCode::kIoError,
                      "write_metrics_json: short write to " + path);
    return Status::ok();
}

}  // namespace wifisense::common
