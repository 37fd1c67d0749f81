// The per-thread event ring behind both recorders that keep recent events:
// the span tracer (common/trace.cpp, DESIGN.md §14) and the flight recorder
// (telemetry/flight_recorder.cpp, §19). The two differ only in how they
// stamp an event (spans read the clock; flight events take an atomic
// sequence), so the memory model lives here once:
//
//   - enable() sizes everything up front: `max_threads` rings of a
//     power-of-two capacity, plus the thread-slot table.
//   - A thread joins the table on its first event of a session with one
//     atomic increment. enable() and reset() bump an epoch, so every thread
//     takes a fresh slot afterwards.
//   - claim() hands out the calling thread's next event slot, stamped with
//     the thread's slot index. A full ring wraps (the oldest events drop,
//     counted); a thread beyond the table records nothing (counted). With
//     `sample_every` N > 1 each thread keeps the first of every N events it
//     offers and counts the rest as sampled out, which is policy, not loss.
//
// Recording never allocates, locks or reads a clock. enable(), reset() and
// snapshot() must run outside parallel regions. The thread-slot cache is
// one per instantiation, so a program keeps one ring per event type.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace wifisense::common {

/// Append `text` to `out` escaped as the body of a JSON string.
void append_json_escaped(std::string& out, const char* text);

/// Thread slots a recorder's `max_threads` asks for: itself when nonzero,
/// else the larger of common::thread_count() and
/// std::thread::hardware_concurrency(), plus one. Every pool thread and the
/// caller then get a ring without reserving rings no thread will use. A
/// pool grown past that after enable() drops its extra threads' events
/// (counted); a caller that grows it should pass an explicit count.
std::size_t event_slots_for_pool(std::size_t max_threads);

/// `Event` is default-constructible with a `std::uint32_t tid` member, which
/// claim() sets to the recording thread's slot index.
template <class Event>
class EventRing {
public:
    /// Start a new session: drop every recorded event and pre-reserve
    /// `max_threads` rings of `events_per_thread` events (rounded up to a
    /// power of two).
    void enable(std::size_t events_per_thread, std::size_t max_threads,
                std::size_t sample_every = 1) {
        capacity_ = 1;
        while (capacity_ < std::min(events_per_thread, std::size_t{1} << 30))
            capacity_ <<= 1;
        sample_every_ = std::max<std::size_t>(sample_every, 1);
        rings_.assign(std::max<std::size_t>(max_threads, 1), Ring{});
        for (Ring& r : rings_) r.slots.assign(capacity_, Event{});
        new_session();
    }

    /// Drop every recorded event and the sampling counters; keep the rings.
    void reset() {
        for (Ring& r : rings_) r.head = r.offered = r.skipped = 0;
        new_session();
    }

    /// The calling thread's next event slot, or nullptr when the thread has
    /// no ring this session (the event is counted as dropped) or the event
    /// is sampled out.
    // wifisense-lint: requires(noalloc, noexcept, noclock, det)
    Event* claim() noexcept {
        Ring* ring = thread_ring();
        if (ring == nullptr) {
            slot_overflow_.fetch_add(1, std::memory_order_relaxed);
            return nullptr;
        }
        if (sample_every_ > 1 && (ring->offered++ % sample_every_) != 0) {
            ++ring->skipped;
            return nullptr;
        }
        Event& e = ring->slots[ring->head++ & (capacity_ - 1)];
        e.tid = static_cast<std::uint32_t>(ring - rings_.data());
        return &e;
    }

    /// Surviving events, ordered by (thread slot, record order).
    std::vector<Event> snapshot() const {
        std::vector<Event> out;
        for (const Ring& r : rings_) {
            const std::uint64_t kept = std::min<std::uint64_t>(r.head, capacity_);
            for (std::uint64_t i = r.head - kept; i < r.head; ++i)
                out.push_back(r.slots[i & (capacity_ - 1)]);
        }
        return out;
    }

    /// Events lost to ring wrap-around or offered by a thread that found the
    /// slot table full.
    std::uint64_t dropped() const {
        std::uint64_t n = slot_overflow_.load(std::memory_order_relaxed);
        for (const Ring& r : rings_)
            if (r.head > capacity_) n += r.head - capacity_;
        return n;
    }

    /// Events skipped by the 1-in-N sampling policy.
    std::uint64_t sampled_out() const {
        std::uint64_t n = 0;
        for (const Ring& r : rings_) n += r.skipped;
        return n;
    }

private:
    struct Ring {
        std::vector<Event> slots;  ///< sized once at enable()
        std::uint64_t head = 0;     ///< events ever written to this ring
        std::uint64_t offered = 0;  ///< events offered (sampling counter)
        std::uint64_t skipped = 0;  ///< events sampled out
    };

    struct ThreadSlot {
        std::uint64_t epoch = 0;
        Ring* ring = nullptr;
    };

    /// The calling thread's ring for the current session, joining the slot
    /// table on first use (one atomic increment, no allocation).
    // wifisense-lint: requires(noalloc, noexcept, noclock, det)
    Ring* thread_ring() noexcept {
        thread_local ThreadSlot tl;
        const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
        if (tl.epoch != epoch) {
            tl.epoch = epoch;
            const std::size_t idx =
                next_slot_.fetch_add(1, std::memory_order_relaxed);
            tl.ring = idx < rings_.size() ? &rings_[idx] : nullptr;
        }
        return tl.ring;
    }

    void new_session() {
        next_slot_.store(0, std::memory_order_relaxed);
        slot_overflow_.store(0, std::memory_order_relaxed);
        epoch_.fetch_add(1, std::memory_order_release);
    }

    std::size_t capacity_ = 0;  ///< power of two
    std::size_t sample_every_ = 1;
    std::vector<Ring> rings_;
    std::atomic<std::size_t> next_slot_{0};
    std::atomic<std::uint64_t> slot_overflow_{0};  ///< events without a ring
    /// Bumped by enable()/reset() so threads take a fresh slot.
    std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace wifisense::common
