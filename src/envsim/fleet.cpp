#include "envsim/fleet.hpp"

#include <stdexcept>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/telemetry/flight_recorder.hpp"
#include "common/telemetry/sliding_window.hpp"
#include "common/trace.hpp"
#include "envsim/simulation.hpp"

namespace wifisense::envsim {

FleetSimulator::FleetSimulator(FleetConfig cfg) : cfg_(cfg) {
    if (cfg_.n_rooms == 0)
        throw std::invalid_argument("FleetSimulator: zero rooms");
    if (cfg_.duration_s <= 0.0)
        throw std::invalid_argument("FleetSimulator: non-positive duration");
    if (cfg_.sample_rate_hz <= 0.0)
        throw std::invalid_argument("FleetSimulator: non-positive sample rate");
    double total_weight = 0.0;
    for (double w : cfg_.mix.weights) {
        if (!(w >= 0.0))
            throw std::invalid_argument(
                "FleetSimulator: negative archetype weight");
        total_weight += w;
    }
    if (total_weight <= 0.0)
        throw std::invalid_argument("FleetSimulator: all-zero archetype mix");
}

FleetRunStats FleetSimulator::run(
    const std::function<void(const data::SampleRecord&)>& sink) {
    // Phase 1 (parallel across rooms): each room expands its scenario and
    // simulates into its own buffer — no shared mutable state between rooms.
    std::vector<std::vector<data::SampleRecord>> shards(cfg_.n_rooms);
    std::vector<std::uint8_t> archetypes(cfg_.n_rooms, 0);

    common::parallel_for(
        cfg_.n_rooms,
        [&](std::size_t room) {
            common::TraceScope span("fleet.room");
            const RoomScenario scenario = make_room_scenario(cfg_, room);
            archetypes[room] = static_cast<std::uint8_t>(scenario.archetype);

            std::vector<data::SampleRecord>& shard = shards[room];
            shard.reserve(static_cast<std::size_t>(cfg_.duration_s *
                                                   cfg_.sample_rate_hz) +
                          1);
            OfficeSimulator sim(scenario.sim);
            sim.run([&shard, &scenario](const data::SampleRecord& r) {
                data::SampleRecord tagged = r;
                tagged.room_id = scenario.room_id;
                shard.push_back(tagged);
            });
        },
        /*grain=*/1);

    // Phase 2 (serial): concatenate in room-index order — the output stream
    // never depends on which worker finished first.
    FleetRunStats stats;
    stats.rooms = cfg_.n_rooms;
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
    for (std::size_t room = 0; room < cfg_.n_rooms; ++room) {
        ++stats.rooms_by_archetype[archetypes[room]];
        stats.rows += shards[room].size();
        h = data::dataset_digest(data::DatasetView(shards[room]), h);
        for (const data::SampleRecord& r : shards[room]) sink(r);
        // Telemetry: one flight event and a windowed row count per completed
        // room, emitted from this serial loop so event order matches the
        // deterministic concatenation order, not worker completion order.
        if (!shards[room].empty()) {
            const double t_end = shards[room].back().timestamp;
            common::flight_record("fleet", "room-done", t_end,
                                  static_cast<double>(shards[room].size()),
                                  static_cast<double>(room));
            common::obs_window("fleet.rows").add(t_end, shards[room].size());
        }
        shards[room].clear();
        shards[room].shrink_to_fit();
    }
    stats.digest = h;
    return stats;
}

data::Dataset FleetSimulator::run(FleetRunStats* stats) {
    data::Dataset dataset;
    dataset.reserve(cfg_.n_rooms *
                    (static_cast<std::size_t>(cfg_.duration_s *
                                              cfg_.sample_rate_hz) +
                     1));
    const FleetRunStats s =
        run([&dataset](const data::SampleRecord& r) { dataset.push_back(r); });
    if (stats != nullptr) *stats = s;
    return dataset;
}

}  // namespace wifisense::envsim
