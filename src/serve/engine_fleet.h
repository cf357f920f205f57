/**
 * @file
 * The serving layer's engine shards and their one global event loop.
 *
 * An EngineFleet owns N EngineShards — each a full runtime::Engine
 * (its own simulated machine, hybrid memory, executor and pressure
 * director) plus the sessions live on it — and co-simulates them in
 * one time-ordered loop: run() always steps the shard machine with
 * the globally-earliest pending event, ties going to the lowest
 * shard, until no machine has non-daemon work left. At one shard the
 * loop is exactly Machine::run().
 *
 * Cross-shard control flow rides on a single causality invariant: the
 * co-simulation always processes the globally-earliest pending event,
 * so inside any event at time t every other shard's clock is at or
 * before t with nothing pending earlier — Machine::syncTo(t) is
 * always legal before acting on another shard (placement, failover).
 * Shard 0's machine is the control plane (control()): session
 * arrivals, admission ticks, injected crashes and recovery run there.
 *
 * A crashed shard's sessions go to the graveyard rather than being
 * destroyed: the dead engine's in-flight (zombie) tasks still
 * reference their operators and bundles. The graveyard is declared
 * after the shards, so dead Tenants are destroyed before their
 * engines.
 */

#ifndef SBHBM_SERVE_ENGINE_FLEET_H
#define SBHBM_SERVE_ENGINE_FLEET_H

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "obs/trace.h"
#include "runtime/engine.h"
#include "serve/tenant.h"

namespace sbhbm::serve {

/** One engine plus the sessions live on it. */
struct EngineShard
{
    explicit EngineShard(const runtime::EngineConfig &ec) : eng(ec) {}

    runtime::Engine eng;
    std::map<runtime::StreamId, std::unique_ptr<Tenant>> tenants;
};

/** N engine shards under one global time-ordered event loop. */
class EngineFleet
{
  public:
    /**
     * Build @p shards engines from template @p ec. @p ec.host_threads
     * is the whole fleet's host pool: each shard gets an equal slice
     * (the wall-clock fork-join threads; simulated cores are per
     * machine and not shared). @p telemetry (may be null) labels each
     * engine's trace events with its shard.
     */
    EngineFleet(const runtime::EngineConfig &ec, uint32_t shards,
                obs::Telemetry *telemetry)
    {
        shards_.reserve(shards);
        for (uint32_t s = 0; s < shards; ++s) {
            runtime::EngineConfig sc = ec;
            if (sc.host_threads > 0)
                sc.host_threads = std::max(1u, sc.host_threads / shards);
            shards_.push_back(std::make_unique<EngineShard>(sc));
            if (telemetry != nullptr)
                shards_.back()->eng.setTelemetry(telemetry, s);
        }
    }

    EngineFleet(const EngineFleet &) = delete;
    EngineFleet &operator=(const EngineFleet &) = delete;

    uint32_t size() const { return static_cast<uint32_t>(shards_.size()); }
    EngineShard &operator[](uint32_t s) { return *shards_[s]; }
    runtime::Engine &engine(uint32_t s) { return shards_[s]->eng; }

    /** Shard 0's machine: arrivals, admission, crashes, recovery. */
    sim::Machine &control() { return shards_[0]->eng.machine(); }

    /** Keep a crashed session alive until the fleet is destroyed. */
    void
    bury(std::unique_ptr<Tenant> t)
    {
        graveyard_.push_back(std::move(t));
    }

    /**
     * The global event loop: always step the shard machine with the
     * earliest pending event (ties break on the lowest shard index),
     * until no machine has non-daemon work left — the exact
     * multi-machine generalization of EventQueue::run(), and
     * identical to it at one shard. Daemon events (monitors,
     * admission ticks) keep firing while any shard has live work, so
     * a drained shard's clock keeps pace with the fleet.
     */
    void
    run()
    {
        for (;;) {
            bool any_live = false;
            size_t best = 0;
            SimTime best_t = kSimTimeNever;
            for (size_t s = 0; s < shards_.size(); ++s) {
                sim::Machine &m = shards_[s]->eng.machine();
                any_live = any_live || !m.idle();
                const SimTime t = m.events().nextTime();
                if (t < best_t) {
                    best_t = t;
                    best = s;
                }
            }
            if (!any_live)
                break;
            shards_[best]->eng.machine().step();
        }
    }

  private:
    std::vector<std::unique_ptr<EngineShard>> shards_;
    std::vector<std::unique_ptr<Tenant>> graveyard_;
};

} // namespace sbhbm::serve

#endif // SBHBM_SERVE_ENGINE_FLEET_H
