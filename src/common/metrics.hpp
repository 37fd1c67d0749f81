// Runtime-gated telemetry registry: counters and gauges here, plus the
// sketches, windows and SLO monitors of common/telemetry/ (DESIGN.md §14,
// §19). One process-wide registry owns every instrument, keyed by name.
//
// Design constraints, shared with common/trace.hpp:
//
//   - Disabled cost is one relaxed atomic load and a branch per recording
//     call — no allocation, no locking — so instrumented hot paths stay
//     inside their noalloc lint regions.
//   - Instrument *creation* (obs_counter / obs_gauge / obs_sketch /
//     obs_window / obs_slo) takes the registry lock and may allocate; call
//     sites hoist the returned reference out of their hot loops (typically
//     a function-local static or a one-time lookup at function entry).
//     Handles are stable for the process lifetime.
//   - Recording is an atomic add / store or a short spinlocked update:
//     deterministic totals at any thread count, never an influence on
//     computed outputs.
//
// The one export is the telemetry snapshot: one JSON document with every
// registered instrument and the flight-recorder tail (DESIGN.md §19).
//
//   {"schema":   "wifisense.telemetry_snapshot/v2",
//    "metrics":  {"counters": {"name": N, ...}, "gauges": {"name": X, ...}},
//    "sketches": {"name": {"count":N,"min":..,"max":..,"sum":..,
//                          "p50":..,"p90":..,"p99":..,"p999":..}, ...},
//    "windows":  {"name": {"window_s":..,"count":N,"rate_per_s":..,
//                          "late_dropped":N[,"p50":..,...,"p999":..]}, ...},
//    "slo":      [{"name":..,"state":"ok"|"warn"|"breach", ...}, ...],
//    "recorder": {"dropped":N,"events":[...]}}
//
// Names are sorted within each section; windows with a reservoir carry the
// four quantile keys. tools/check_snapshot.py validates this shape in CI.
// WIFISENSE_SNAPSHOT=path (or --snapshot-out= in quickstart and every
// bench) arms metrics + the flight recorder and writes the snapshot at exit
// (configure_observability in common/trace.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.hpp"

namespace wifisense::common {

namespace obsdetail {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace obsdetail

/// True while metric recording is live (the relaxed load is the entire
/// disabled-path cost of add/set/observe).
inline bool metrics_enabled() {
    return obsdetail::g_metrics_enabled.load(std::memory_order_relaxed);
}

void metrics_enable();
void metrics_disable();
/// Zero every registered instrument — counters, gauges, sketches, windows
/// and SLO monitors (registrations and handles survive).
void metrics_reset();

/// CAS spinlock for the instruments whose recording paths must not take an
/// OS mutex: no heap, no syscall, held for a few stores.
class SpinLock {
public:
    void lock() noexcept {
        while (flag_.exchange(1, std::memory_order_acquire) != 0) {
        }
    }
    void unlock() noexcept { flag_.store(0, std::memory_order_release); }

private:
    std::atomic<std::uint32_t> flag_{0};
};

/// Monotonic event count.
class Counter {
public:
    void add(std::uint64_t n = 1) {
        if (metrics_enabled()) value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-written level (epoch loss, stream health, ...). Writers race only
/// when instrumented code itself races, which the determinism contract
/// already forbids for anything output-bearing.
class Gauge {
public:
    void set(double v) {
        if (metrics_enabled())
            bits_.store(bit_cast_u64(v), std::memory_order_relaxed);
    }
    double value() const {
        return bit_cast_double(bits_.load(std::memory_order_relaxed));
    }
    void reset() { bits_.store(0, std::memory_order_relaxed); }

private:
    static std::uint64_t bit_cast_u64(double d) {
        std::uint64_t u;
        __builtin_memcpy(&u, &d, sizeof u);
        return u;
    }
    static double bit_cast_double(std::uint64_t u) {
        double d;
        __builtin_memcpy(&d, &u, sizeof d);
        return d;
    }

    std::atomic<std::uint64_t> bits_{0};  ///< IEEE-754 bits; 0 == 0.0
};

/// Registry lookup-or-create (process-wide, mutex-guarded, may allocate on
/// first use — hoist the reference out of hot loops). Names are unique per
/// instrument kind.
Counter& obs_counter(std::string_view name);
Gauge& obs_gauge(std::string_view name);

/// Render the snapshot document (single line, deterministic section order).
std::string telemetry_snapshot_json();

/// Write telemetry_snapshot_json() (plus a trailing newline) to `path`.
[[nodiscard]] Status write_telemetry_snapshot(const std::string& path);

}  // namespace wifisense::common
