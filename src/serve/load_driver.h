/**
 * @file
 * Deterministic open-loop load driver: builds the tenant fleets the
 * serving benchmarks and examples run.
 *
 * Models the traffic mix of a shared deployment: a small set of hot
 * tenants (high offered rate, high weight — the paying workloads) and
 * a long tail of cold tenants, every session's bundle arrivals an
 * independent Poisson process, sessions arriving at the admission
 * controller over a configurable span with exponential gaps. Every
 * draw comes from one seeded Rng consumed in tenant-id order, so the
 * same config always produces the same fleet, byte for byte.
 */

#ifndef SBHBM_SERVE_LOAD_DRIVER_H
#define SBHBM_SERVE_LOAD_DRIVER_H

#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "queries/query.h"
#include "serve/server.h"
#include "serve/tenant.h"

namespace sbhbm::serve {

/** Leading fraction of a generated fleet that is hot (at least one
 *  tenant when the fleet is not empty). */
constexpr double kFleetHotFraction = 0.25;

/** Fair-share weights of hot and cold fleet tenants. */
constexpr double kFleetHotWeight = 4.0;
constexpr double kFleetColdWeight = 1.0;

/** Queries assigned round-robin across a generated fleet. Key and
 *  value ranges are TenantSpec's defaults. */
constexpr queries::QueryId kFleetQueryMix[] = {
    queries::QueryId::kSumPerKey,
    queries::QueryId::kAvgPerKey,
    queries::QueryId::kUniqueCountPerKey,
};

/** Shape of a generated tenant fleet. */
struct FleetConfig
{
    uint32_t tenants = 8;
    uint64_t seed = 42;

    /** Offered records/sec. */
    double hot_rate = 2e6;
    double cold_rate = 4e5;

    /** Session length, records. */
    uint64_t hot_records = 600'000;
    uint64_t cold_records = 150'000;

    uint32_t bundle_records = 10'000;

    /** HBM reservation each session requests at admission. */
    uint64_t hot_hbm_reserve = 64ull << 20;
    uint64_t cold_hbm_reserve = 16ull << 20;

    /** Per-tenant in-flight bundle budget. */
    uint32_t max_inflight_bundles = 32;

    /**
     * Sessions arrive over roughly this span with exponential gaps
     * (0 = everyone arrives at t = 0).
     */
    SimTime arrival_span = 0;
};

/**
 * Build the fleet: tenant ids 1..tenants, the first
 * ceil(kFleetHotFraction * tenants) of them hot, Poisson bundle
 * arrivals, exponential session-arrival gaps, per-tenant seeds drawn
 * from the fleet seed in id order.
 */
inline std::vector<TenantSpec>
makeFleet(const FleetConfig &cfg)
{
    Rng rng(cfg.seed);
    const auto hot_count = static_cast<uint32_t>(
        std::ceil(kFleetHotFraction * cfg.tenants));

    std::vector<TenantSpec> fleet;
    fleet.reserve(cfg.tenants);
    SimTime arrival = 0;
    const double mean_gap =
        cfg.tenants > 0
            ? static_cast<double>(cfg.arrival_span) / cfg.tenants
            : 0.0;

    for (uint32_t i = 0; i < cfg.tenants; ++i) {
        const bool hot = i < hot_count;
        TenantSpec t;
        t.id = i + 1;
        t.name = (hot ? "hot-" : "cold-") + std::to_string(t.id);
        t.weight = hot ? kFleetHotWeight : kFleetColdWeight;
        t.query = kFleetQueryMix[i % std::size(kFleetQueryMix)];
        t.total_records = hot ? cfg.hot_records : cfg.cold_records;
        t.bundle_records = cfg.bundle_records;
        t.offered_rate = hot ? cfg.hot_rate : cfg.cold_rate;
        t.poisson_arrivals = t.offered_rate > 0;
        t.hbm_reserve_bytes =
            hot ? cfg.hot_hbm_reserve : cfg.cold_hbm_reserve;
        t.max_inflight_bundles = cfg.max_inflight_bundles;
        t.seed = rng.next() | 1; // nonzero: 0 means "derive for me"
        if (cfg.arrival_span > 0)
            arrival += static_cast<SimTime>(mean_gap * rng.nextExp());
        t.arrives_at = arrival;
        fleet.push_back(std::move(t));
    }
    return fleet;
}

// -------------------------------------------------------------------
// The canonical memory-control-plane overload scenario, shared by
// examples/multi_tenant (part 2) and bench/serve_report's overload
// point so the demo and the recorded numbers can never drift apart.
// -------------------------------------------------------------------

/**
 * Serving config whose HBM is scaled down so the overload fleet's
 * open-window KPA state overruns it. @p control_plane sets
 * EngineConfig::control_plane: the pressure director, gauge-aware
 * live admission and SLA-driven placement demotion; false is the
 * knob-only baseline.
 *
 * Sizing rules the constants obey (violating either wedges sessions
 * on the ingestion deadlock guard): with delayed watermarks the
 * idle-watermark escape is off, so the per-tenant *soft*
 * back-pressure cap (2/3 of the tenant budget) must cover the
 * watermark gap plus a window's worth of slack, and the global soft
 * threshold (a third of engine.max_inflight_bundles) must clear the
 * sum of the per-tenant budgets — the per-tenant caps are the
 * intended binding constraint.
 */
inline ServeConfig
overloadServeConfig(unsigned cores, bool control_plane)
{
    ServeConfig cfg;
    cfg.engine.machine = sim::MachineConfig::knl();
    // Scarce HBM: the fleet's open-window KPA state (~10 MB+)
    // overruns 8 MiB, so placement pressure is guaranteed.
    cfg.engine.machine.hbm.capacity_bytes = 8ull << 20;
    cfg.engine.cores = cores;
    cfg.engine.max_inflight_bundles = 2048; // soft 682 > 4 x 160
    cfg.engine.target_delay = 20 * kNsPerMs; // tight SLA in overload
    cfg.window_ns = 10 * kNsPerMs;
    cfg.admission.hbm_budget_bytes = 8ull << 20;
    cfg.engine.control_plane = control_plane;
    return cfg;
}

/**
 * Four identical SumPerKey sessions for overloadServeConfig():
 * 2 M rec/s each in 5000-record bundles (4 bundles per 10 ms window,
 * so event time really spans windows), watermarks delayed to every 50
 * bundles so many windows of sorted runs stay open at once — the cold
 * state the pressure director demotes.
 */
inline std::vector<TenantSpec>
makeOverloadFleet(uint64_t records_per_tenant)
{
    std::vector<TenantSpec> fleet;
    for (uint32_t i = 1; i <= 4; ++i) {
        TenantSpec t;
        t.id = i;
        t.name = "ovl-" + std::to_string(i);
        t.weight = 1.0;
        t.query = queries::QueryId::kSumPerKey;
        t.total_records = records_per_tenant;
        t.bundle_records = 5'000;
        t.offered_rate = 2e6;
        t.poisson_arrivals = true;
        t.hbm_reserve_bytes = 2ull << 20;
        t.bundles_per_watermark = 50;
        t.max_inflight_bundles = 160; // soft 106 > gap 50 + slack
        fleet.push_back(std::move(t));
    }
    return fleet;
}

} // namespace sbhbm::serve

#endif // SBHBM_SERVE_LOAD_DRIVER_H
