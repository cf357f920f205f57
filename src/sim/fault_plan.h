/**
 * @file
 * Deterministic fault plans: a seeded schedule of shard crashes at
 * exact virtual times, so every chaos run is reproducible bit for bit.
 *
 * A FaultPlan is policy-free: a list of (time, shard) crashes. Its
 * owner (serve::Server) arms one daemon event per entry on the fleet's
 * control-plane machine, whose event queue fires them by time, ties in
 * plan order, and each one crashes its shard. Same plan, same run,
 * same firing order.
 *
 * Plans come from two places: tests build them explicitly (add one
 * crash at t = 200 ms), and chaos soaks derive them from a seed via
 * FaultPlan::scatter() — the seed fully determines the plan, which
 * fully determines the run.
 */

#ifndef SBHBM_SIM_FAULT_PLAN_H
#define SBHBM_SIM_FAULT_PLAN_H

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/units.h"

namespace sbhbm::sim {

/** One scheduled shard crash: the shard loses all state and its
 *  sessions fail over. */
struct FaultEvent
{
    SimTime at = 0;     //!< absolute virtual firing time
    uint32_t shard = 0; //!< the shard that crashes
};

/** A deterministic schedule of shard crashes, in any order. */
struct FaultPlan
{
    std::vector<FaultEvent> events;

    FaultPlan &
    crash(SimTime at, uint32_t shard)
    {
        events.push_back({at, shard});
        return *this;
    }

    /**
     * Derive a chaos schedule from a seed: @p count crashes scattered
     * uniformly over (0, horizon] on shards [1, shards) (shard 0
     * hosts the fleet's control plane, which is modelled as
     * replicated and never crashes). The seed fully determines the
     * plan.
     */
    static FaultPlan
    scatter(uint64_t seed, SimTime horizon, uint32_t shards, uint32_t count)
    {
        sbhbm_assert(horizon > 0, "chaos horizon must be positive");
        sbhbm_assert(shards > 1, "chaos plan needs a shard to crash");
        Rng rng(seed);
        FaultPlan plan;
        for (uint32_t i = 0; i < count; ++i) {
            const SimTime at = 1
                               + static_cast<SimTime>(rng.nextBounded(
                                   static_cast<uint64_t>(horizon)));
            const auto shard =
                1 + static_cast<uint32_t>(rng.nextBounded(shards - 1));
            plan.crash(at, shard);
        }
        return plan;
    }
};

} // namespace sbhbm::sim

#endif // SBHBM_SIM_FAULT_PLAN_H
