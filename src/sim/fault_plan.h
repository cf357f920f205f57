/**
 * @file
 * Deterministic fault plans: a seeded schedule of faults at exact
 * virtual times, so every chaos run is reproducible bit for bit.
 *
 * A FaultPlan is policy-free: an ordered list of (time, kind, target)
 * events. Its owner (serve::Server) arms one daemon event per entry,
 * in canonical order, on the fleet's control-plane machine, and
 * decides what a fault *means* — crash this shard, stall or drop an
 * ingest source, slow a shard down. Same plan, same run, same
 * firing order.
 *
 * Plans come from two places: tests build them explicitly (add one
 * crash at t = 200 ms), and chaos soaks derive them from a seed via
 * FaultPlan::scatter() — the seed fully determines the plan, which
 * fully determines the run.
 */

#ifndef SBHBM_SIM_FAULT_PLAN_H
#define SBHBM_SIM_FAULT_PLAN_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/units.h"

namespace sbhbm::sim {

/** What kind of fault fires. */
enum class FaultKind : uint8_t {
    kShardCrash = 0, //!< shard loses all state; tenants fail over
    kIngestStall,    //!< a source delivers nothing for `arg` ns
    kIngestDrop,     //!< a source sheds its next `arg` bundles
    kSlowShard,      //!< shard degrades to `arg` cores for `arg2` ns
};

constexpr const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::kShardCrash: return "shard-crash";
      case FaultKind::kIngestStall: return "ingest-stall";
      case FaultKind::kIngestDrop: return "ingest-drop";
      case FaultKind::kSlowShard: return "slow-shard";
    }
    return "?";
}

/** One scheduled fault. */
struct FaultEvent
{
    SimTime at = 0;       //!< absolute virtual firing time
    FaultKind kind = FaultKind::kShardCrash;
    uint32_t shard = 0;   //!< target shard (shard faults)
    uint32_t tenant = 0;  //!< target tenant id (source faults); 0 = n/a
    uint64_t arg = 0;     //!< kind-specific magnitude (count / ns / cores)
    uint64_t arg2 = 0;    //!< kind-specific second magnitude
};

/** An ordered, deterministic schedule of faults. */
struct FaultPlan
{
    std::vector<FaultEvent> events;

    bool empty() const { return events.empty(); }

    FaultPlan &
    crash(SimTime at, uint32_t shard)
    {
        events.push_back({at, FaultKind::kShardCrash, shard, 0, 0, 0});
        return *this;
    }

    FaultPlan &
    stallIngest(SimTime at, uint32_t tenant, SimTime duration)
    {
        events.push_back({at, FaultKind::kIngestStall, 0, tenant,
                          static_cast<uint64_t>(duration), 0});
        return *this;
    }

    FaultPlan &
    dropIngest(SimTime at, uint32_t tenant, uint64_t bundles)
    {
        events.push_back(
            {at, FaultKind::kIngestDrop, 0, tenant, bundles, 0});
        return *this;
    }

    /** Sort into deterministic firing order. */
    void
    canonicalize()
    {
        std::stable_sort(events.begin(), events.end(),
                         [](const FaultEvent &a, const FaultEvent &b) {
                             if (a.at != b.at)
                                 return a.at < b.at;
                             return static_cast<uint8_t>(a.kind)
                                    < static_cast<uint8_t>(b.kind);
                         });
    }

    /**
     * Derive a chaos schedule from a seed: @p count faults scattered
     * uniformly over (0, horizon], kinds drawn from the full mix,
     * shard targets in [1, shards) (shard 0 hosts the fleet's control
     * plane, which is modelled as replicated — it degrades but never
     * crashes), tenant targets in [1, tenants]. The seed fully
     * determines the plan.
     */
    static FaultPlan
    scatter(uint64_t seed, SimTime horizon, uint32_t shards,
            uint32_t tenants, uint32_t count)
    {
        sbhbm_assert(horizon > 0, "chaos horizon must be positive");
        sbhbm_assert(tenants > 0, "chaos plan needs tenants");
        Rng rng(seed);
        FaultPlan plan;
        for (uint32_t i = 0; i < count; ++i) {
            FaultEvent e;
            e.at = 1 + static_cast<SimTime>(rng.nextBounded(
                       static_cast<uint64_t>(horizon)));
            // Crashes only when a non-control shard exists to kill.
            const uint64_t kinds = shards > 1 ? 4 : 3;
            const uint64_t k = rng.nextBounded(kinds);
            switch (shards > 1 ? k : k + 1) {
              case 0:
                e.kind = FaultKind::kShardCrash;
                e.shard = 1
                          + static_cast<uint32_t>(
                              rng.nextBounded(shards - 1));
                break;
              case 1:
                e.kind = FaultKind::kIngestStall;
                e.tenant = 1
                           + static_cast<uint32_t>(
                               rng.nextBounded(tenants));
                e.arg = 1 + rng.nextBounded(
                            static_cast<uint64_t>(horizon / 8));
                break;
              case 2:
                e.kind = FaultKind::kIngestDrop;
                e.tenant = 1
                           + static_cast<uint32_t>(
                               rng.nextBounded(tenants));
                e.arg = 1 + rng.nextBounded(16);
                break;
              default:
                e.kind = FaultKind::kSlowShard;
                e.shard = static_cast<uint32_t>(rng.nextBounded(shards));
                e.arg = 1 + rng.nextBounded(4);
                e.arg2 = 1 + rng.nextBounded(
                             static_cast<uint64_t>(horizon / 8));
                break;
            }
            plan.events.push_back(e);
        }
        plan.canonicalize();
        return plan;
    }
};

} // namespace sbhbm::sim

#endif // SBHBM_SIM_FAULT_PLAN_H
