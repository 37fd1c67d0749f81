#include "envsim/simulation.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <deque>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "envsim/event_queue.hpp"

namespace wifisense::envsim {

namespace {

// ---------------------------------------------------------------------------
// Discrete-event decomposition.
//
// The world advances as five logical processes on an EventQueue, activated
// once per kDynamicsDt tick in registration order (the queue's
// (time, lp_id, seq) tie-break):
//
//   0 FurnitureVentilationLP  furniture shuffles/events, channel drift,
//                             window-opening draws  (owns event_rng, ^0x66)
//   1 OccupantLP              agent schedules + motion            (^0x55)
//   2 ThermalLP               zone heat/moisture balance          (^0x33)
//   3 SensorLP                env-sensor dynamics + stall faults  (^0x44)
//   4 CsiSamplingLP           measurement capture; receiver noise (^0x22)
//                             over the channel model              (^0x11)
//
// Each LP draws only from its own substream RNG, so the dispatch order —
// not thread scheduling — defines every stream. This per-tick LP order
// consumes exactly the randomness, in exactly the order, of the historical
// monolithic loop; the single-room output is therefore bitwise identical to
// the pre-DES simulator (pinned by the EventQueueGolden tests).
//
// Measurement itself stays two-phase: the CSI LP captures a TickJob — the
// pure inputs of the measurement (environment, bodies, scatterer snapshot,
// sensor/label fields, pre-drawn receiver noise per packet) — and
// flush_window() synthesizes records in parallel over windowed tick shards,
// handing them to the sink in timestamp order. No RNG is touched in phase 2,
// so the emitted stream is bitwise identical at every thread count.
// ---------------------------------------------------------------------------

struct PacketJob {
    double timestamp = 0.0;
    csi::PacketNoise noise;
    /// Pre-drawn noise of the extra links (link i+1 at index i); populated
    /// only by multi-link runs, so a single-link run carries no extra state.
    std::vector<csi::PacketNoise> link_noise;
};

using LinkRecordSink =
    std::function<void(std::uint8_t, const data::SampleRecord&)>;

struct TickJob {
    csi::EnvironmentState env;
    std::vector<csi::BodyState> bodies;
    std::vector<csi::Vec3> scatterers;
    float temperature_c = 0.0f;
    float humidity_pct = 0.0f;
    std::uint8_t occupant_count = 0;
    int occupancy = 0;
    std::uint8_t activity = 0;
    std::vector<PacketJob> packets;
};

/// Packets buffered before a flush; bounds memory to a few MB while keeping
/// every flush wide enough to occupy the pool.
constexpr std::size_t kFlushPackets = 4096;

void fill_record_fields(data::SampleRecord& rec, const TickJob& job,
                        double timestamp) {
    rec.timestamp = timestamp;
    rec.temperature_c = job.temperature_c;
    rec.humidity_pct = job.humidity_pct;
    rec.occupant_count = job.occupant_count;
    rec.occupancy = job.occupancy;
    rec.activity = job.activity;
}

/// The one flush: per tick, one CFR per link (each link's geometry against
/// the SAME scatterer snapshot — the pure frequency_response overload reads
/// only immutable channel state), then each link's pre-drawn noise. Records
/// land in (packet, link) order. Link 0 is the paper's receiver: its bytes
/// do not depend on the extra links, because its channel, receiver and noise
/// are the very same objects consuming the very same draws, and a
/// single-link run is this flush with no extra links.
// wifisense-lint: allow-call(sink) caller-supplied record sink: it only consumes finished samples and feeds nothing back into simulation state, so it cannot perturb the deterministic replay
void flush_window(std::vector<TickJob>& window, const csi::ChannelModel& channel,
                  const csi::Receiver& receiver,
                  std::span<const csi::ChannelModel> link_channels,
                  std::span<const csi::Receiver> link_receivers,
                  const LinkRecordSink& sink) {
    if (window.empty()) return;
    const std::size_t n_links = 1 + link_channels.size();
    std::vector<std::size_t> offset(window.size() + 1, 0);
    for (std::size_t i = 0; i < window.size(); ++i)
        offset[i + 1] = offset[i] + window[i].packets.size();

    std::vector<data::SampleRecord> records(offset.back() * n_links);
    common::parallel_for(
        window.size(),
        [&](std::size_t ti) {
            common::TraceScope span("csi.sample");
            const TickJob& job = window[ti];
            std::vector<std::vector<std::complex<double>>> cfr(n_links);
            cfr[0] = channel.frequency_response(job.env, job.bodies,
                                                job.scatterers);
            for (std::size_t l = 1; l < n_links; ++l)
                cfr[l] = link_channels[l - 1].frequency_response(
                    job.env, job.bodies, job.scatterers);
            for (std::size_t p = 0; p < job.packets.size(); ++p) {
                const PacketJob& packet = job.packets[p];
                for (std::size_t l = 0; l < n_links; ++l) {
                    const std::vector<float> amps =
                        l == 0 ? receiver.apply_noise(cfr[0], packet.noise)
                               : link_receivers[l - 1].apply_noise(
                                     cfr[l], packet.link_noise[l - 1]);
                    data::SampleRecord& rec =
                        records[(offset[ti] + p) * n_links + l];
                    fill_record_fields(rec, job, packet.timestamp);
                    std::copy(amps.begin(), amps.end(), rec.csi.begin());
                }
            }
        },
        /*grain=*/4);

    for (std::size_t i = 0; i < records.size(); ++i)
        sink(static_cast<std::uint8_t>(i % n_links), records[i]);
    window.clear();
}

/// Mutable world state shared by the logical processes: the seeded component
/// models (each with its own substream RNG), the fault plan, and the per-tick
/// latches written by earlier LPs and read by later ones in the same tick.
struct SimWorld {
    explicit SimWorld(const SimulationConfig& cfg_in, bool with_links = false)
        : cfg(cfg_in),
          sample_period(1.0 / cfg_in.sample_rate_hz),
          channel(cfg_in.room, cfg_in.channel, cfg_in.seed ^ 0x11),
          receiver(cfg_in.receiver, cfg_in.seed ^ 0x22),
          thermal(cfg_in.thermal, cfg_in.seed ^ 0x33),
          sensor(cfg_in.sensor, cfg_in.seed ^ 0x44),
          occupants(cfg_in.occupants, cfg_in.room, cfg_in.seed ^ 0x55),
          event_rng(cfg_in.seed ^ 0x66),
          fault_plan(cfg_in.faults),
          env_skew(fault_plan.env_skew_s()),
          last_shuffle_day(data::day_index(cfg_in.start_timestamp)),
          n_samples(static_cast<std::size_t>(
              std::llround(cfg_in.duration_s * cfg_in.sample_rate_hz))),
          n_ticks(static_cast<std::size_t>(
              std::llround(cfg_in.duration_s / kDynamicsDt))) {
        // Fault injection: the plan's decisions are pure functions of its own
        // seed (packet index / time window), so none of the world substreams
        // are perturbed. An inactive plan leaves the emitted bytes exactly as
        // before the fault layer existed.
        if (fault_plan.active()) receiver.set_fault_plan(&fault_plan);

        // Extra receiver links (multi-link runs only): each link gets its own
        // channel geometry (same room, its own rx position — the image-source
        // inventory is rx-independent, so the same channel seed reproduces
        // the same scatterer world) and its own receiver noise substream.
        // Building these touches none of link 0's RNGs, which is what keeps
        // link 0 bitwise identical to a single-link run.
        if (with_links) {
            link_channels.reserve(cfg.extra_rx.size());
            link_receivers.reserve(cfg.extra_rx.size());
            for (std::size_t i = 0; i < cfg.extra_rx.size(); ++i) {
                csi::RoomGeometry geo = cfg.room;
                geo.rx = cfg.extra_rx[i];
                link_channels.emplace_back(geo, cfg.channel, cfg.seed ^ 0x11);
                link_receivers.emplace_back(
                    cfg.receiver,
                    common::substream_seed(cfg.seed ^ 0x22, i + 1));
                if (fault_plan.active())
                    link_receivers.back().set_fault_plan(
                        &fault_plan, static_cast<std::uint8_t>(i + 1));
            }
        }

        // Warm up the thermal state: simulate the morning before collection
        // starts (06:00 -> start) so the 15:08 initial condition is
        // consistent with a heated, occupied office rather than the config
        // default.
        const double warm_start =
            std::floor(cfg.start_timestamp / data::kSecondsPerDay) *
                data::kSecondsPerDay +
            6.0 * 3600.0;
        for (double t = warm_start; t < cfg.start_timestamp; t += 30.0)
            thermal.step(t, 30.0, occupants.count_inside(t), false);
        for (int i = 0; i < 20; ++i)
            sensor.step(30.0, thermal.indoor_temperature_c(),
                        thermal.relative_humidity_pct(), thermal.heater_on());
    }

    const SimulationConfig& cfg;
    const double dt = kDynamicsDt;
    const double sample_period;

    csi::ChannelModel channel;
    csi::Receiver receiver;
    /// Extra links (index i = link i+1); empty for single-link runs.
    std::vector<csi::ChannelModel> link_channels;
    std::vector<csi::Receiver> link_receivers;
    ThermalModel thermal;
    EnvironmentSensor sensor;
    OccupantModel occupants;
    // wifisense-lint: allow(det.raw-mt19937) seeded in the ctor init list
    // with the event substream (cfg.seed ^ 0x66).
    std::mt19937_64 event_rng;
    std::uniform_real_distribution<double> uni{0.0, 1.0};

    common::FaultPlan fault_plan;
    double env_skew;
    /// Reported (t, temperature, humidity) history backing the clock skew:
    /// with skew, the record carries the env reading from `skew` seconds ago.
    std::deque<std::array<double, 3>> env_history;

    bool furniture_displaced = false;
    double window_open_until = -1.0;
    double active_until = -1.0;
    int last_shuffle_day;

    const std::size_t n_samples;
    const std::size_t n_ticks;
    std::size_t next_sample = 0;

    // Per-tick latches: written by FurnitureVentilationLP / OccupantLP, read
    // by the LPs that dispatch after them at the same timestamp.
    int inside = 0;
    bool window_open = false;
    double extra_ach = 0.0;

    std::vector<TickJob> window;
    std::size_t window_packets = 0;
};

/// Base for the once-per-tick LPs: registers at the collection start and
/// re-schedules itself every kDynamicsDt until the tick budget is spent.
/// Activation times are computed as start + dt*tick — the same expression in
/// every LP — so the five processes coincide at identical timestamps and the
/// queue's lp_id tie-break alone fixes their per-tick order.
class TickProcess : public LogicalProcess {
public:
    explicit TickProcess(SimWorld& world) : w_(&world) {}

    void register_with(EventQueue& queue) {
        lp_id_ = queue.add_process(this);
        queue.schedule(w_->cfg.start_timestamp, lp_id_);
    }

    void on_event(double t, EventQueue& queue) final {
        step(t, queue);
        ++tick_;
        if (tick_ < w_->n_ticks)
            queue.schedule(
                w_->cfg.start_timestamp + w_->dt * static_cast<double>(tick_),
                lp_id_);
    }

protected:
    virtual void step(double t, EventQueue& queue) = 0;

    SimWorld* w_;
    std::size_t lp_id_ = 0;
    std::size_t tick_ = 0;
};

/// LP 0 — furniture + ventilation: nightly cleaning-crew shuffles, occupant
/// mini-shuffles, the rearrangement event, slow channel drift, and the
/// window-opening stream. Sole owner of event_rng (^0x66).
class FurnitureVentilationLP final : public TickProcess {
public:
    using TickProcess::TickProcess;

private:
    // wifisense-lint: allow-call(uni) uniform draw from the world's event substream (seeded cfg.seed ^ 0x66 in the SimWorld ctor): deterministic under the fixed-seed contract
    void step(double t, EventQueue&) override {
        SimWorld& w = *w_;
        const SimulationConfig& cfg = w.cfg;

        // --- nightly cleaning-crew shuffle (anchored) ----------------------
        if (cfg.furniture.enabled && cfg.furniture.nightly_shuffle_m > 0.0) {
            const int day = data::day_index(t);
            if (day != w.last_shuffle_day &&
                data::hour_of_day(t) >= cfg.furniture.nightly_hour) {
                w.channel.shuffle_furniture(cfg.furniture.nightly_shuffle_m,
                                            w.event_rng,
                                            cfg.furniture.nightly_fraction);
                w.last_shuffle_day = day;
            }
        }

        // --- mini-shuffles (occupants by day, ambient churn when empty) ----
        if (cfg.furniture.enabled && !w.furniture_displaced) {
            const bool someone_inside = w.occupants.count_inside(t) > 0;
            const double rate = someone_inside
                                    ? cfg.furniture.daily_shuffle_rate_per_h
                                    : cfg.furniture.empty_shuffle_rate_per_h;
            if (rate > 0.0 && w.uni(w.event_rng) < rate * w.dt / 3600.0)
                w.channel.shuffle_furniture(
                    someone_inside ? cfg.furniture.daily_shuffle_m
                                   : cfg.furniture.empty_shuffle_m,
                    w.event_rng,
                    someone_inside ? cfg.furniture.daily_shuffle_fraction
                                   : cfg.furniture.empty_shuffle_fraction);
        }

        // --- furniture event ----------------------------------------------
        if (cfg.furniture.enabled) {
            if (!w.furniture_displaced && t >= cfg.furniture.start &&
                t < cfg.furniture.end) {
                w.channel.perturb_furniture(cfg.furniture.magnitude_m,
                                            w.event_rng);
                w.furniture_displaced = true;
            } else if (w.furniture_displaced && t >= cfg.furniture.end) {
                // Restoration is anchored: the room comes back to its usual
                // configuration cloud with a small fresh displacement.
                w.channel.shuffle_furniture(cfg.furniture.residual_m,
                                            w.event_rng);
                w.furniture_displaced = false;
            }
        }

        w.channel.advance_drift(w.dt, w.event_rng);

        // --- window-opening draw ------------------------------------------
        // count_inside(t) is a pure schedule lookup (independent of the
        // agents' step), so drawing here — before OccupantLP runs this tick —
        // consumes the event stream exactly as the historical loop did after
        // the step.
        if (w.occupants.count_inside(t) > 0 && t > w.window_open_until) {
            const double p_open = cfg.window_open_rate_per_h * w.dt / 3600.0;
            if (w.uni(w.event_rng) < p_open)
                w.window_open_until = t + cfg.window_open_len_s;
        }
        w.window_open = t <= w.window_open_until;
        // While the room is being rearranged the corridor door is propped
        // open and windows are cracked, so the furniture event strongly
        // ventilates the room — fold 4 stays cold AND dry despite occupancy,
        // which is what defeats the Env-only models in Table IV.
        const bool event_active = cfg.furniture.enabled &&
                                  t >= cfg.furniture.start &&
                                  t < cfg.furniture.end;
        w.extra_ach =
            event_active ? cfg.furniture.event_air_changes_per_h : 0.0;
    }
};

/// LP 1 — occupant agents: schedules + motion (^0x55), plus the sticky
/// activity annotation (no RNG; read only by the CSI LP later this tick).
class OccupantLP final : public TickProcess {
public:
    using TickProcess::TickProcess;

private:
    void step(double t, EventQueue&) override {
        SimWorld& w = *w_;
        w.occupants.step(t, w.dt);
        w.inside = w.occupants.count_inside(t);
        if (w.inside > 0 && w.occupants.any_walking())
            w.active_until = t + w.cfg.activity_hold_s;
    }
};

/// LP 2 — thermal zone: heat/moisture balance driven by the occupancy and
/// ventilation latches of the two LPs before it (^0x33).
class ThermalLP final : public TickProcess {
public:
    using TickProcess::TickProcess;

private:
    void step(double t, EventQueue&) override {
        SimWorld& w = *w_;
        w.thermal.step(t, w.dt, w.inside, w.window_open, w.extra_ach);
    }
};

/// LP 3 — environmental sensor: first-order response to the zone state,
/// including fault-plan stalls (^0x44).
class SensorLP final : public TickProcess {
public:
    using TickProcess::TickProcess;

private:
    void step(double t, EventQueue&) override {
        SimWorld& w = *w_;
        if (w.fault_plan.active())
            w.sensor.set_stalled(w.fault_plan.env_stalled(t));
        w.sensor.step(w.dt, w.thermal.indoor_temperature_c(),
                      w.thermal.relative_humidity_pct(), w.thermal.heater_on());
    }
};

/// LP 4 — CSI sampling: captures every sample instant inside the tick (rates
/// above the tick rate reuse the tick's channel state but draw fresh receiver
/// noise per packet), defers the expensive synthesis to the parallel flush,
/// and stops the run once the sample budget is spent.
class CsiSamplingLP final : public TickProcess {
public:
    CsiSamplingLP(SimWorld& world, const LinkRecordSink& sink)
        : TickProcess(world), sink_(sink) {}

private:
    void step(double t, EventQueue& queue) override {
        SimWorld& w = *w_;
        common::TraceScope span("sim.tick");

        double sample_time = w.cfg.start_timestamp +
                             w.sample_period * static_cast<double>(w.next_sample);
        if (sample_time < t + w.dt && w.next_sample < w.n_samples) {
            TickJob job;
            job.env = csi::EnvironmentState{
                w.thermal.indoor_temperature_c(),
                csi::vapor_density_gm3(w.thermal.indoor_temperature_c(),
                                       w.thermal.relative_humidity_pct())};
            job.bodies = w.occupants.bodies();
            job.scatterers = w.channel.scatterer_positions();
            job.temperature_c = static_cast<float>(w.sensor.read_temperature_c());
            job.humidity_pct = static_cast<float>(w.sensor.read_humidity_pct());
            if (w.env_skew > 0.0) {
                // Clock skew between the CSI and env streams: the row at CSI
                // time t carries the env reading from t - skew. The reads
                // above still happen (RNG order is preserved); only the
                // reported values are delayed.
                w.env_history.push_back({t,
                                         static_cast<double>(job.temperature_c),
                                         static_cast<double>(job.humidity_pct)});
                while (w.env_history.size() > 1 &&
                       w.env_history[1][0] <= t - w.env_skew)
                    w.env_history.pop_front();
                job.temperature_c = static_cast<float>(w.env_history.front()[1]);
                job.humidity_pct = static_cast<float>(w.env_history.front()[2]);
            }
            job.occupant_count = static_cast<std::uint8_t>(w.inside);
            job.occupancy = w.inside > 0 ? 1 : 0;
            job.activity = static_cast<std::uint8_t>(
                w.inside == 0           ? data::ActivityLabel::kEmpty
                : t <= w.active_until   ? data::ActivityLabel::kActive
                                        : data::ActivityLabel::kSedentary);

            while (sample_time < t + w.dt && w.next_sample < w.n_samples) {
                PacketJob packet;
                packet.timestamp = sample_time;
                // Always drawn — dropped packets consume their noise exactly
                // like delivered ones, so the surviving packets of a faulty
                // run stay bitwise equal to the same packets of the
                // fault-free run.
                packet.noise =
                    w.receiver.draw_packet_noise(w.cfg.channel.n_subcarriers);
                // Extra links advance their own substreams in lockstep —
                // also for lost packets, so every link's noise stream is a
                // pure function of the sample index.
                if (!w.link_receivers.empty()) {
                    packet.link_noise.reserve(w.link_receivers.size());
                    for (csi::Receiver& link_rx : w.link_receivers)
                        packet.link_noise.push_back(link_rx.draw_packet_noise(
                            w.cfg.channel.n_subcarriers));
                }
                const bool lost = w.fault_plan.active() &&
                                  (packet.noise.fault.dropped ||
                                   w.fault_plan.csi_offline(sample_time));
                if (!lost) job.packets.push_back(std::move(packet));
                ++w.next_sample;
                sample_time = w.cfg.start_timestamp +
                              w.sample_period * static_cast<double>(w.next_sample);
            }
            w.window_packets += job.packets.size();
            if (!job.packets.empty()) w.window.push_back(std::move(job));
            if (w.window_packets >= kFlushPackets) {
                flush_window(w.window, w.channel, w.receiver, w.link_channels,
                             w.link_receivers, sink_);
                w.window_packets = 0;
            }
        }

        // Sample budget spent: stop the queue. Events already scheduled for
        // the next tick are discarded, not dispatched, so no LP consumes
        // randomness past this point — matching the historical loop, whose
        // `next_sample < n_samples` bound was checked before each tick.
        if (w.next_sample >= w.n_samples) queue.request_stop();
    }

    const LinkRecordSink& sink_;
};

}  // namespace

OfficeSimulator::OfficeSimulator(SimulationConfig cfg) : cfg_(cfg) {
    if (cfg_.sample_rate_hz <= 0.0)
        throw std::invalid_argument("OfficeSimulator: non-positive sample rate");
    if (cfg_.duration_s <= 0.0)
        throw std::invalid_argument("OfficeSimulator: non-positive duration");
}

namespace {

/// The one DES run: builds the world (with cfg.extra_rx links only when
/// `with_links`), wires the five LPs, runs the queue, flushes the tail window.
void run_simulation(const SimulationConfig& cfg, const LinkRecordSink& sink,
                    bool with_links) {
    // Dynamics and event randomness advance on a fixed tick regardless of
    // the CSI sampling rate, so a given seed produces the *same world*
    // (schedules, furniture shuffles, window events, thermal trajectory) at
    // every rate — only the measurement density changes.
    SimWorld world(cfg, with_links);

    FurnitureVentilationLP furniture_lp(world);
    OccupantLP occupant_lp(world);
    ThermalLP thermal_lp(world);
    SensorLP sensor_lp(world);
    CsiSamplingLP csi_lp(world, sink);

    if (world.n_ticks > 0 && world.n_samples > 0) {
        EventQueue queue;
        // Registration order = per-tick dispatch order (lp_id tie-break).
        furniture_lp.register_with(queue);
        occupant_lp.register_with(queue);
        thermal_lp.register_with(queue);
        sensor_lp.register_with(queue);
        csi_lp.register_with(queue);
        queue.run();
    }
    flush_window(world.window, world.channel, world.receiver,
                 world.link_channels, world.link_receivers, sink);
}

}  // namespace

void OfficeSimulator::run(const std::function<void(const data::SampleRecord&)>& sink) {
    run_simulation(
        cfg_, [&sink](std::uint8_t, const data::SampleRecord& rec) { sink(rec); },
        /*with_links=*/false);
}

void OfficeSimulator::run_links(const LinkRecordSink& sink) {
    run_simulation(cfg_, sink, /*with_links=*/true);
}

data::Dataset OfficeSimulator::run() {
    data::Dataset dataset;
    dataset.reserve(
        static_cast<std::size_t>(cfg_.duration_s * cfg_.sample_rate_hz) + 1);
    run([&dataset](const data::SampleRecord& r) { dataset.push_back(r); });
    return dataset;
}

std::vector<csi::Vec3> default_link_positions(const csi::RoomGeometry& room,
                                              std::size_t n_links) {
    std::vector<csi::Vec3> out;
    out.reserve(n_links);
    if (n_links == 0) return out;
    out.push_back(room.rx);
    for (std::size_t i = 1; i < n_links; ++i) {
        // Spread the extra receivers along the far wall at router height so
        // every link sees the occupants through a distinct multipath
        // geometry.
        const double frac =
            static_cast<double>(i) / static_cast<double>(n_links);
        out.push_back(csi::Vec3{room.lx * (0.15 + 0.7 * frac), room.ly - 0.4,
                                room.rx.z});
    }
    return out;
}

SimulationConfig paper_config(double sample_rate_hz, std::uint64_t seed) {
    SimulationConfig cfg;
    cfg.sample_rate_hz = sample_rate_hz;
    cfg.seed = seed;
    return cfg;
}

}  // namespace wifisense::envsim
