/**
 * @file
 * Multi-tenant serving: eight concurrent query sessions on one
 * engine, arbitrated by the weighted fair scheduler.
 *
 * Tenants 1-2 are hot (fair-share weight 4), tenants 3-8 cold
 * (weight 1). Every session offers far more traffic than its share
 * can absorb (open-loop Poisson arrivals), so the engine is the
 * bottleneck and the scheduler decides who gets served. Session
 * lengths are proportional to weight, so under weighted fair sharing
 * all eight drain at about the same time and each tenant's throughput
 * lands on its weighted share of the aggregate — the FAIRNESS lines
 * check every tenant is within 2x of that share.
 *
 * Two more sessions exercise the admission controller: tenant 9
 * arrives later asking for a reservation the HBM budget cannot cover
 * while everyone is running (queued, admitted once sessions drain),
 * and tenant 10 asks for more than the whole budget (rejected).
 *
 * Part 2 demonstrates sharded scale-out: the same 64-session
 * contending fleet served by one engine shard and then by four. The
 * SHARD lines check that placement spread the fleet over every shard,
 * that every session still drained in full, and that aggregate
 * throughput grew with the shard count.
 *
 * With `--trace <out.json>` the example instead runs only the
 * overload fleet (four contending sessions on a machine whose HBM is
 * scaled down so their window state overruns it; the balance knob
 * and the spill to DRAM place that state) with the unified telemetry
 * plane installed, prints each tenant's SLA breach attribution
 * (latency decomposed into recovery / ingest-wait / memory-stall /
 * sched-queue / compute), and writes the deterministic Chrome
 * trace_event timeline to the given path (load it in Perfetto or
 * chrome://tracing).
 *
 * Build & run:
 *   cmake -B build -S . && cmake --build build -j
 *   ./build/examples/multi_tenant [records_scale]
 *   ./build/examples/multi_tenant --trace overload_trace.json
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "example_args.h"
#include "obs/json_writer.h"
#include "obs/trace.h"
#include "serve/load_driver.h"
#include "serve/server.h"

using namespace sbhbm;
using serve::Admission;
using serve::TenantReport;
using serve::TenantSpec;

namespace {

/** What one shard-count run leaves behind (part 2). */
struct ShardRun
{
    double aggregate_mrps = 0;
    double fairness = 0;
    uint32_t shards_used = 0;
    bool all_drained = true;
};

/**
 * The scale-out scenario: sixty-four short contending sessions arriving
 * at once, served by @p shards engine shards.
 * The per-shard engine is deliberately small (8 cores) so a single
 * shard is clearly compute-bound and extra shards pay off.
 */
ShardRun
runShardFleet(double scale, uint32_t shards)
{
    serve::FleetConfig fleet;
    fleet.tenants = 64;
    fleet.seed = 42;
    fleet.hot_records = static_cast<uint64_t>(40'000 * scale);
    fleet.cold_records = static_cast<uint64_t>(10'000 * scale);
    fleet.bundle_records = 2'000;
    fleet.hot_rate = 50e6;
    fleet.cold_rate = 10e6;
    fleet.hot_hbm_reserve = 8ull << 20;
    fleet.cold_hbm_reserve = 2ull << 20;
    fleet.arrival_span = 0; // everyone at once: placement sees the load
    fleet.max_inflight_bundles = 8;

    serve::ServeConfig cfg;
    cfg.engine.machine = sim::MachineConfig::knl();
    cfg.engine.cores = 8;
    cfg.engine.max_inflight_bundles = 1024;
    cfg.window_ns = 20 * kNsPerMs;
    cfg.shards = shards;

    serve::Server server(cfg);
    server.submitFleet(serve::makeFleet(fleet));
    server.run();

    ShardRun r;
    r.aggregate_mrps = server.aggregateMrps();
    r.fairness = server.fairnessIndex();
    std::vector<bool> used(shards, false);
    for (const TenantReport &rep : server.reports()) {
        r.all_drained = r.all_drained
                        && rep.admission == Admission::kAdmitted
                        && rep.records == rep.spec.total_records;
        used[rep.shard] = true;
    }
    for (bool u : used)
        r.shards_used += u ? 1 : 0;
    return r;
}

/**
 * The traced overload demo (--trace): the canonical overload scenario
 * (serve::overloadServeConfig / serve::makeOverloadFleet — also
 * serve_report's overload point) with a Telemetry installed so every
 * layer records into one trace, plus the per-tenant SLA breach
 * attribution table.
 */
int
runTracedOverload(const char *trace_path)
{
    std::printf("== traced overload: telemetry plane on "
                "(HBM scaled to 8 MiB) ==\n");
    obs::Telemetry tele;
    serve::ServeConfig cfg = serve::overloadServeConfig(/*cores=*/16);
    cfg.telemetry = &tele;
    serve::Server server(cfg);
    server.submitFleet(serve::makeOverloadFleet(150'000));
    server.run();

    std::printf("\ntenant    windows  viol  recovery ms  ingest ms  "
                "memory ms  sched ms  compute ms  dominant\n");
    for (const TenantReport &r : server.reports()) {
        const double *a = r.attribution_ns;
        std::printf(
            "%-8s  %7" PRIu64 "  %4" PRIu64
            "  %11.2f  %9.2f  %9.2f  %8.2f  %10.2f  %s\n",
            r.spec.name.c_str(), r.windows, r.sla_violations,
            a[0] / 1e6, a[1] / 1e6, a[2] / 1e6, a[3] / 1e6, a[4] / 1e6,
            serve::stallCauseName(r.dominant_cause));
    }

    obs::JsonWriter w;
    tele.trace.exportJson(w);
    if (!w.writeFile(trace_path)) {
        std::fprintf(stderr, "multi_tenant: cannot write %s\n",
                     trace_path);
        return 1;
    }
    std::printf("\nwrote %s (%zu trace events) — load it in Perfetto "
                "or chrome://tracing\n",
                trace_path, tele.trace.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 2 && std::strcmp(argv[1], "--trace") == 0)
        return runTracedOverload(argv[2]);

    // The largest record count below is 4 x 100'000 x scale; the
    // bound keeps every count's conversion to uint64_t defined.
    constexpr double kMaxScale = 1e13;
    double scale = 1.0;
    if (argc > 2
        || (argc > 1 && !examples::parseScale(argv[1], kMaxScale, scale)))
        return examples::usage(argv[0],
                               "[records_scale] (a positive number, "
                               "default 1) | --trace <out.json>");

    serve::ServeConfig cfg;
    cfg.engine.machine = sim::MachineConfig::knl();
    cfg.engine.cores = 16;
    cfg.engine.max_inflight_bundles = 512;
    cfg.window_ns = 50 * kNsPerMs;
    // Budget sized so the eight contending sessions fit with little
    // slack: 8 x 48 MiB = 384 MiB of 416 MiB.
    cfg.admission.hbm_budget_bytes = 416ull << 20;

    serve::Server server(cfg);

    const auto base = static_cast<uint64_t>(100'000 * scale);
    const double sum_weights = 2 * 4.0 + 6 * 1.0;
    for (uint32_t i = 1; i <= 8; ++i) {
        const bool hot = i <= 2;
        TenantSpec t;
        t.id = i;
        t.name = (hot ? "hot-" : "cold-") + std::to_string(i);
        t.weight = hot ? 4.0 : 1.0;
        t.query = queries::QueryId::kSumPerKey;
        t.total_records = static_cast<uint64_t>(
            static_cast<double>(base) * t.weight);
        t.bundle_records = 5'000;
        t.offered_rate = 50e6; // far beyond any tenant's share
        t.poisson_arrivals = true;
        t.hbm_reserve_bytes = 48ull << 20;
        // In-flight budget scales with weight so a hot tenant can keep
        // enough backlog queued to actually use its larger share.
        t.max_inflight_bundles = hot ? 48 : 12;
        server.submit(t);
    }

    // Tenant 9: fits the budget alone, not alongside all eight.
    TenantSpec late;
    late.id = 9;
    late.name = "late-batch";
    late.weight = 1.0;
    late.query = queries::QueryId::kAvgPerKey;
    late.total_records = base / 2;
    late.bundle_records = 5'000;
    late.offered_rate = 50e6;
    late.poisson_arrivals = true;
    late.hbm_reserve_bytes = 160ull << 20;
    late.max_inflight_bundles = 24;
    late.arrives_at = 20 * kNsPerMs;
    server.submit(late);

    // Tenant 10: asks for more than the whole serving budget.
    TenantSpec oversized = late;
    oversized.id = 10;
    oversized.name = "oversized";
    oversized.hbm_reserve_bytes = 1ull << 30;
    oversized.arrives_at = 30 * kNsPerMs;
    server.submit(oversized);

    server.run();

    std::printf("tenant      weight  admission  records    Mrec/s  "
                "p50 ms  p99 ms  slots\n");
    double aggregate_tput = 0;
    for (const TenantReport &r : server.reports()) {
        if (r.admission == Admission::kAdmitted && r.spec.id <= 8)
            aggregate_tput += r.throughput_mrps;
    }
    for (const TenantReport &r : server.reports()) {
        std::printf("%-10s  %6.1f  %-9s  %8" PRIu64 "  %6.2f  %6.1f  "
                    "%6.1f  %5" PRIu64 "\n",
                    r.spec.name.c_str(), r.spec.weight,
                    admissionName(r.admission), r.records,
                    r.throughput_mrps, r.p50_s * 1e3, r.p99_s * 1e3,
                    r.served_slots);
    }

    // The fairness claim: with everyone overloaded, each of the
    // eight contending tenants' throughput is within 2x of its
    // weighted share of their aggregate.
    std::printf("\nweighted fair shares (contending tenants 1-8):\n");
    bool all_fair = true;
    for (const TenantReport &r : server.reports()) {
        if (r.spec.id > 8 || r.admission != Admission::kAdmitted)
            continue;
        const double share =
            aggregate_tput * r.spec.weight / sum_weights;
        const double ratio =
            share > 0 ? r.throughput_mrps / share : 0.0;
        const bool ok = ratio >= 0.5 && ratio <= 2.0;
        all_fair = all_fair && ok;
        std::printf("FAIRNESS  %-10s  got %.2f of fair share %.2f "
                    "Mrec/s (ratio %.2f): %s\n",
                    r.spec.name.c_str(), r.throughput_mrps, share,
                    ratio, ok ? "ok" : "VIOLATED");
    }

    uint64_t queued_first = 0;
    for (const TenantReport &r : server.reports())
        queued_first += r.was_queued ? 1 : 0;
    std::printf("\naggregate   : %.2f M records/s over %" PRIu64
                " admitted sessions (%" PRIu64 " queued first, %" PRIu64
                " rejected)\n",
                server.aggregateMrps(), server.registry().everAdmitted(),
                queued_first, server.registry().rejected());
    std::printf("fairness    : Jain index %.3f over weight-normalized "
                "service\n",
                server.fairnessIndex());
    std::printf("verdict     : %s\n",
                all_fair ? "fair-share ok" : "fair-share VIOLATED");

    // ---- Part 2: sharded scale-out --------------------------------
    std::printf("\n== scale-out: 64 sessions, 1 vs 4 engine shards "
                "(8 cores each) ==\n");
    const ShardRun one = runShardFleet(scale, 1);
    const ShardRun four = runShardFleet(scale, 4);
    std::printf("1 shard   : %.2f M records/s, Jain %.3f\n",
                one.aggregate_mrps, one.fairness);
    std::printf("4 shards  : %.2f M records/s, Jain %.3f, "
                "%u shards hosting sessions\n",
                four.aggregate_mrps, four.fairness, four.shards_used);

    const bool spread = four.shards_used == 4;
    const bool scaled = four.aggregate_mrps > one.aggregate_mrps;
    const bool shard_drained = one.all_drained && four.all_drained;
    std::printf("SHARD  placement spread the fleet over every shard: "
                "%s\n",
                spread ? "ok" : "VIOLATED");
    std::printf("SHARD  aggregate throughput grew with shards "
                "(%.2f > %.2f Mrec/s): %s\n",
                four.aggregate_mrps, one.aggregate_mrps,
                scaled ? "ok" : "VIOLATED");
    std::printf("SHARD  every session drained in full on both "
                "fleets: %s\n",
                shard_drained ? "ok" : "VIOLATED");

    const bool part2_ok = spread && scaled && shard_drained;
    return all_fair && part2_ok ? 0 : 1;
}
