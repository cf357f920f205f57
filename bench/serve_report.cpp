/**
 * @file
 * Serving-layer benchmark: tenant-count sweep on one engine, plus a
 * shard-count sweep on the sharded fleet.
 *
 * For each fleet size N the load driver builds a deterministic
 * hot/cold tenant mix (25% hot at 4x weight, Poisson bundle
 * arrivals, sessions arriving over a 100 ms span) and the server
 * runs it to drain. Reported per point: aggregate throughput, the
 * pooled p50/p99 watermark latency across every tenant's windows,
 * Jain's fairness index over weight-normalized service, the
 * admission counters, and each tenant's peak HBM occupancy. A final
 * overload point runs a scarce-HBM fleet whose open-window state
 * overruns HBM, so the balance knob and the spill to DRAM decide
 * where it lands.
 *
 * The shard sweep scales one large fleet (256 sessions in full mode)
 * across 1..8 engine shards: per point it reports fleet throughput,
 * pooled latency percentiles, fairness, host wall-clock, and a
 * per-shard breakdown (sessions placed, tasks completed, records) —
 * with the accounting identity "each executor completed exactly its
 * residents' tasks" checked as a shape test.
 *
 * The failover sweep runs a 64-session recoverable fleet through a
 * fixed two-crash fault plan at increasing checkpoint cadences
 * (scratch-restart first) and reports the recovery economics per
 * point — checkpoints cut, copy/reuse bytes, records replayed,
 * downtime — with the exactly-once acceptance checked as shape
 * tests: no session lost, records conserved across the replay, and
 * every point's per-window output bit-identical to the fault-free
 * baseline. Written to BENCH_serve.json (schema sbhbm-serve-v7) for
 * the CI artifact.
 *
 * Schema v5 added SLA breach attribution to the overload point: each
 * tenant's watermark latency decomposed into recovery-replay, ingest-
 * wait, memory-stall, sched-queue and compute components (summing
 * exactly to the measured latency), the dominant cause of its
 * violating windows, and a pooled latency histogram. With --trace the
 * overload point also records the unified telemetry plane and writes
 * a Chrome trace_event JSON timeline. Schema v6 drops the failover
 * points' suppressed_records: a recovered session never redelivers a
 * committed window, so there is nothing to deduplicate. Schema v7
 * drops the demotion counts (the point-level demoted_kpas and the
 * per-tenant demoted_kpas, demoted_bytes and sla_demotions): the
 * engine places each KPA once and never demotes it.
 *
 * Usage: serve_report [--smoke] [--out <path>] [--trace <path>]
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "obs/json_writer.h"
#include "obs/trace.h"
#include "serve/load_driver.h"
#include "serve/server.h"

using namespace sbhbm;
using serve::Admission;
using serve::TenantReport;

namespace {

/** Core slots every sweep point's engine (shard) uses. */
constexpr unsigned kCores = 16;

struct TenantMem
{
    uint32_t id = 0;
    uint64_t hbm_peak_bytes = 0;
};

/** The per-tenant memory slice of a TenantReport. */
TenantMem
toTenantMem(const TenantReport &r)
{
    return TenantMem{r.spec.id, r.hbm_peak_bytes};
}

/** One tenant's SLA breach attribution (the v5 addition). */
struct TenantAttr
{
    uint32_t id = 0;
    uint64_t windows = 0;
    uint64_t sla_violations = 0;
    double total_latency_ns = 0;
    double comp_ns[serve::kStallCauses] = {};
    double breach_ns[serve::kStallCauses] = {};
    const char *dominant = "compute";
};

/** Pooled latency histogram (SampleSet::histogram buckets). */
struct LatencyHist
{
    std::vector<double> bounds_ms;
    std::vector<uint64_t> counts; //!< bounds + one overflow slot
};

struct Point
{
    uint32_t tenants = 0;
    double aggregate_mrps = 0;
    double p50_s = 0;
    double p99_s = 0;
    double fairness = 0;
    uint64_t windows = 0;
    uint64_t sla_violations = 0;
    uint64_t admitted = 0;
    uint64_t queued = 0;
    uint64_t rejected = 0;
    std::vector<TenantMem> tenant_mem;

    /** Filled for the overload point only (empty elsewhere). */
    std::vector<TenantAttr> attribution;
    LatencyHist latency_hist;
};

Point
runPoint(uint32_t tenants, bool smoke)
{
    serve::FleetConfig fleet;
    fleet.tenants = tenants;
    fleet.seed = 42;
    fleet.hot_records = smoke ? 150'000 : 600'000;
    fleet.cold_records = smoke ? 50'000 : 150'000;
    fleet.bundle_records = 5'000;
    fleet.hot_rate = 50e6;
    fleet.cold_rate = 10e6;
    fleet.arrival_span = 100 * kNsPerMs;
    fleet.max_inflight_bundles = 24;

    serve::ServeConfig cfg;
    cfg.engine.machine = sim::MachineConfig::knl();
    cfg.engine.cores = kCores;
    cfg.engine.max_inflight_bundles = 1024;
    cfg.window_ns = 50 * kNsPerMs;

    serve::Server server(cfg);
    server.submitFleet(serve::makeFleet(fleet));
    server.run();

    Point p;
    p.tenants = tenants;
    p.aggregate_mrps = server.aggregateMrps();
    p.fairness = server.fairnessIndex();
    SampleSet pooled;
    for (const TenantReport &r : server.reports()) {
        if (r.admission != Admission::kAdmitted)
            continue;
        ++p.admitted;
        p.queued += r.was_queued ? 1 : 0;
        p.windows += r.windows;
        p.sla_violations += r.sla_violations;
    }
    // Pool every tenant's raw per-window latencies: fleet-level
    // percentiles cannot be recovered from per-tenant percentiles.
    for (const TenantReport &r : server.reports()) {
        for (double s : r.latency_samples)
            pooled.add(s);
    }
    p.p50_s = pooled.percentile(50);
    p.p99_s = pooled.percentile(99);
    p.rejected = server.registry().rejected();
    for (const TenantReport &r : server.reports())
        p.tenant_mem.push_back(toTenantMem(r));
    return p;
}

/**
 * The overload point: the canonical scarce-HBM scenario
 * (serve::overloadServeConfig / serve::makeOverloadFleet — the same
 * one examples/multi_tenant --trace demonstrates).
 */
Point
runOverloadPoint(bool smoke, obs::Telemetry *tele = nullptr)
{
    serve::ServeConfig cfg = serve::overloadServeConfig(kCores);
    cfg.telemetry = tele;
    serve::Server server(cfg);
    const uint64_t records = smoke ? 150'000 : 600'000;
    server.submitFleet(serve::makeOverloadFleet(records));
    server.run();

    Point p;
    p.tenants = 4;
    p.aggregate_mrps = server.aggregateMrps();
    p.fairness = server.fairnessIndex();
    SampleSet pooled;
    for (const TenantReport &r : server.reports()) {
        ++p.admitted;
        p.windows += r.windows;
        p.sla_violations += r.sla_violations;
        for (double s : r.latency_samples)
            pooled.add(s);
        p.tenant_mem.push_back(toTenantMem(r));

        TenantAttr ta;
        ta.id = r.spec.id;
        ta.windows = r.windows;
        ta.sla_violations = r.sla_violations;
        for (double s : r.latency_samples)
            ta.total_latency_ns += s * 1e9;
        for (uint32_t c = 0; c < serve::kStallCauses; ++c) {
            ta.comp_ns[c] = r.attribution_ns[c];
            ta.breach_ns[c] = r.breach_attribution_ns[c];
        }
        ta.dominant = serve::stallCauseName(r.dominant_cause);
        p.attribution.push_back(ta);
    }
    p.p50_s = pooled.percentile(50);
    p.p99_s = pooled.percentile(99);
    // The pooled latency distribution, bucketed (ms upper bounds).
    p.latency_hist.bounds_ms = {10, 50, 100, 500, 1000};
    std::vector<double> bounds_s;
    for (double b : p.latency_hist.bounds_ms)
        bounds_s.push_back(b / 1e3);
    p.latency_hist.counts = pooled.histogram(bounds_s);
    return p;
}

// -------------------------------------------------------------------
// Shard sweep
// -------------------------------------------------------------------

struct ShardRow
{
    uint32_t shard = 0;
    uint32_t tenants = 0;
    uint64_t tasks = 0;
    uint64_t records = 0;
};

struct ShardPoint
{
    uint32_t shards = 0;
    uint32_t tenants = 0;
    double aggregate_mrps = 0;
    double p50_s = 0;
    double p99_s = 0;
    double fairness = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t records = 0;
    double wall_ms = 0; //!< host wall-clock of run(), milliseconds
    bool accounting_ok = true;
    std::vector<ShardRow> rows;
};

/**
 * One shard-sweep point: the same N-session hot/cold fleet (short
 * sessions — the point is placement and accounting at scale, not
 * long drains) served by @p shards engine shards.
 */
ShardPoint
runShardPoint(uint32_t tenants, uint32_t shards, bool smoke)
{
    serve::FleetConfig fleet;
    fleet.tenants = tenants;
    fleet.seed = 42;
    // Hot keeps exactly 4x the cold records at 4x the weight, so the
    // weight-normalized service shares are flat and Jain ~ 1.
    fleet.hot_records = smoke ? 8'000 : 40'000;
    fleet.cold_records = smoke ? 2'000 : 10'000;
    fleet.bundle_records = 2'000;
    fleet.hot_rate = 50e6;
    fleet.cold_rate = 10e6;
    fleet.hot_hbm_reserve = 8_MiB;
    fleet.cold_hbm_reserve = 2_MiB;
    // The whole fleet arrives at once: placement sees N concurrent
    // load vectors (staggered arrivals would drain between offers and
    // pile everything on shard 0).
    fleet.arrival_span = 0;
    fleet.max_inflight_bundles = 8;

    serve::ServeConfig cfg;
    cfg.engine.machine = sim::MachineConfig::knl();
    cfg.engine.cores = kCores;
    cfg.engine.max_inflight_bundles = 1024;
    cfg.window_ns = 20 * kNsPerMs;
    cfg.shards = shards;
    cfg.admission.max_active = tenants;
    cfg.admission.max_queued = tenants;

    serve::Server server(cfg);
    server.submitFleet(serve::makeFleet(fleet));
    const auto t0 = std::chrono::steady_clock::now();
    server.run();
    const auto t1 = std::chrono::steady_clock::now();

    ShardPoint p;
    p.shards = shards;
    p.tenants = tenants;
    p.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    p.aggregate_mrps = server.aggregateMrps();
    p.fairness = server.fairnessIndex();
    p.rejected = server.registry().rejected();
    p.rows.resize(shards);
    for (uint32_t s = 0; s < shards; ++s)
        p.rows[s].shard = s;

    SampleSet pooled;
    for (const TenantReport &r : server.reports()) {
        if (r.admission != Admission::kAdmitted)
            continue;
        ++p.admitted;
        p.records += r.records;
        ShardRow &row = p.rows[r.shard];
        ++row.tenants;
        row.tasks += r.tasks;
        row.records += r.records;
        for (double s : r.latency_samples)
            pooled.add(s);
    }
    p.p50_s = pooled.percentile(50);
    p.p99_s = pooled.percentile(99);
    // The accounting identity: every shard's executor completed
    // exactly its residents' tasks.
    for (uint32_t s = 0; s < shards; ++s) {
        if (server.engine(s).exec().completedTasks() != p.rows[s].tasks)
            p.accounting_ok = false;
    }
    return p;
}

// -------------------------------------------------------------------
// Failover sweep
// -------------------------------------------------------------------

struct FailoverPoint
{
    SimTime checkpoint_period = 0;
    double aggregate_mrps = 0;
    uint64_t crashes = 0;
    uint64_t recoveries = 0;
    uint64_t lost = 0;
    uint64_t checkpoints = 0;
    uint64_t copied_bytes = 0;
    uint64_t reused_bytes = 0;
    uint64_t records_replayed = 0;
    SimTime downtime_ns = 0; //!< summed over sessions (not in the JSON)
    double mean_downtime_ms = 0;
    bool output_identical = true; //!< per-window output == baseline
    bool conserved = true;        //!< ingest == offered + replay
};

/** The recoverable fleet every failover point serves: the shard-sweep
 *  mix under logical event time (replay needs it). */
std::vector<serve::TenantSpec>
failoverFleet(bool smoke)
{
    serve::FleetConfig fleet;
    fleet.tenants = 64;
    fleet.seed = 42;
    fleet.hot_records = smoke ? 20'000 : 40'000;
    fleet.cold_records = smoke ? 5'000 : 10'000;
    fleet.bundle_records = 1'000;
    fleet.hot_rate = 5e6;
    fleet.cold_rate = 1e6;
    fleet.hot_hbm_reserve = 8_MiB;
    fleet.cold_hbm_reserve = 2_MiB;
    fleet.arrival_span = 0;
    fleet.max_inflight_bundles = 8;
    std::vector<serve::TenantSpec> specs = serve::makeFleet(fleet);
    for (serve::TenantSpec &t : specs)
        t.logical_time = true;
    return specs;
}

serve::ServeConfig
failoverConfig(SimTime checkpoint_period)
{
    serve::ServeConfig cfg;
    cfg.engine.machine = sim::MachineConfig::knl();
    cfg.engine.cores = kCores;
    cfg.engine.max_inflight_bundles = 1024;
    cfg.window_ns = kNsPerMs;
    cfg.shards = 4;
    cfg.fault.checkpoint_period = checkpoint_period;
    return cfg;
}

/**
 * One failover point: the fleet under a fixed two-crash plan (shards
 * 1 and 2 die mid-stream) at the given checkpoint cadence, compared
 * window for window against the fault-free @p baseline reports.
 */
FailoverPoint
runFailoverPoint(SimTime checkpoint_period, bool smoke,
                 const std::vector<TenantReport> &baseline)
{
    serve::ServeConfig cfg = failoverConfig(checkpoint_period);
    const SimTime span = smoke ? 4 * kNsPerMs : 8 * kNsPerMs;
    cfg.fault.plan.crash(span * 2 / 5, 1).crash(span * 7 / 10, 2);
    serve::Server server(cfg);
    server.submitFleet(failoverFleet(smoke));
    server.run();

    FailoverPoint p;
    p.checkpoint_period = checkpoint_period;
    p.aggregate_mrps = server.aggregateMrps();
    const auto &reports = server.reports();
    for (size_t i = 0; i < reports.size(); ++i) {
        const TenantReport &r = reports[i];
        p.crashes += r.crashes;
        p.recoveries += r.recoveries;
        p.lost += r.lost ? 1 : 0;
        p.checkpoints += r.checkpoints;
        p.copied_bytes += r.checkpoint_copied_bytes;
        p.reused_bytes += r.checkpoint_reused_bytes;
        p.records_replayed += r.records_replayed;
        p.downtime_ns += r.downtime_ns;
        if (!r.lost
            && r.records != r.spec.total_records + r.records_replayed)
            p.conserved = false;
        const TenantReport &b = baseline[i];
        if (r.window_records != b.window_records
            || r.window_checksums != b.window_checksums)
            p.output_identical = false;
    }
    p.mean_downtime_ms =
        p.recoveries > 0
            ? static_cast<double>(p.downtime_ns) / p.recoveries / 1e6
            : 0.0;
    return p;
}

void
writePoint(obs::JsonWriter &w, const Point &p)
{
    w.beginObject();
    w.key("tenants").value(p.tenants);
    w.key("aggregate_mrps").value(p.aggregate_mrps, 3);
    w.key("p50_s").value(p.p50_s, 6);
    w.key("p99_s").value(p.p99_s, 6);
    w.key("fairness").value(p.fairness, 4);
    w.key("windows").value(p.windows);
    w.key("sla_violations").value(p.sla_violations);
    w.key("admitted").value(p.admitted);
    w.key("queued").value(p.queued);
    w.key("rejected").value(p.rejected);
    w.key("tenant_mem").beginArray();
    for (const TenantMem &tm : p.tenant_mem) {
        w.beginObject();
        w.key("id").value(tm.id);
        w.key("hbm_peak_bytes").value(tm.hbm_peak_bytes);
        w.endObject();
    }
    w.endArray();
    if (!p.attribution.empty()) {
        w.key("attribution").beginArray();
        for (const TenantAttr &ta : p.attribution) {
            w.beginObject();
            w.key("id").value(ta.id);
            w.key("windows").value(ta.windows);
            w.key("sla_violations").value(ta.sla_violations);
            w.key("total_latency_ns").value(ta.total_latency_ns, 1);
            for (uint32_t c = 0; c < serve::kStallCauses; ++c) {
                const auto cause = static_cast<serve::StallCause>(c);
                w.key(std::string(serve::stallCauseName(cause))
                      + "_ns")
                    .value(ta.comp_ns[c], 1);
            }
            for (uint32_t c = 0; c < serve::kStallCauses; ++c) {
                const auto cause = static_cast<serve::StallCause>(c);
                w.key(std::string("breach_")
                      + serve::stallCauseName(cause) + "_ns")
                    .value(ta.breach_ns[c], 1);
            }
            w.key("dominant_cause").value(ta.dominant);
            w.endObject();
        }
        w.endArray();
        w.key("latency_hist").beginObject();
        w.key("bounds_ms").beginArray();
        for (double b : p.latency_hist.bounds_ms)
            w.value(b, 1);
        w.endArray();
        w.key("counts").beginArray();
        for (uint64_t c : p.latency_hist.counts)
            w.value(c);
        w.endArray();
        w.endObject();
    }
    w.endObject();
}

void
writeShardPoint(obs::JsonWriter &w, const ShardPoint &p)
{
    w.beginObject();
    w.key("shards").value(p.shards);
    w.key("tenants").value(p.tenants);
    w.key("aggregate_mrps").value(p.aggregate_mrps, 3);
    w.key("p50_s").value(p.p50_s, 6);
    w.key("p99_s").value(p.p99_s, 6);
    w.key("fairness").value(p.fairness, 4);
    w.key("admitted").value(p.admitted);
    w.key("rejected").value(p.rejected);
    w.key("records").value(p.records);
    w.key("wall_ms").value(p.wall_ms, 1);
    w.key("accounting_ok").value(p.accounting_ok);
    w.key("per_shard").beginArray();
    for (const ShardRow &r : p.rows) {
        w.beginObject();
        w.key("shard").value(r.shard);
        w.key("tenants").value(r.tenants);
        w.key("tasks").value(r.tasks);
        w.key("records").value(r.records);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeFailoverPoint(obs::JsonWriter &w, const FailoverPoint &p)
{
    w.beginObject();
    w.key("checkpoint_period_ms")
        .value(static_cast<double>(p.checkpoint_period) / 1e6, 3);
    w.key("aggregate_mrps").value(p.aggregate_mrps, 3);
    w.key("crashes").value(p.crashes);
    w.key("recoveries").value(p.recoveries);
    w.key("lost").value(p.lost);
    w.key("checkpoints").value(p.checkpoints);
    w.key("copied_bytes").value(p.copied_bytes);
    w.key("reused_bytes").value(p.reused_bytes);
    w.key("records_replayed").value(p.records_replayed);
    w.key("mean_downtime_ms").value(p.mean_downtime_ms, 3);
    w.key("output_identical").value(p.output_identical);
    w.key("conserved").value(p.conserved);
    w.endObject();
}

bool
writeJson(const std::string &path, const std::vector<Point> &points,
          const Point &overload,
          const std::vector<ShardPoint> &shard_points,
          const std::vector<FailoverPoint> &failover_points)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("schema").value("sbhbm-serve-v7");
    w.key("cores").value(kCores);
    w.key("points").beginArray();
    for (const Point &p : points)
        writePoint(w, p);
    w.endArray();
    w.key("overload");
    writePoint(w, overload);
    w.key("shard_sweep").beginArray();
    for (const ShardPoint &p : shard_points)
        writeShardPoint(w, p);
    w.endArray();
    w.key("failover_sweep").beginArray();
    for (const FailoverPoint &p : failover_points)
        writeFailoverPoint(w, p);
    w.endArray();
    w.endObject();
    return w.writeFile(path);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out = "BENCH_serve.json";
    std::string trace_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out = argv[++i];
        } else if (std::strcmp(argv[i], "--trace") == 0
                   && i + 1 < argc) {
            trace_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: serve_report [--smoke] "
                                 "[--out path] [--trace path]\n");
            return 2;
        }
    }

    const std::vector<uint32_t> sweep =
        smoke ? std::vector<uint32_t>{1, 2, 4}
              : std::vector<uint32_t>{1, 2, 4, 8, 16};

    bench::Table table("Serving layer — tenant-count sweep ("
                       + std::to_string(kCores) + " cores)");
    table.header({"tenants", "agg Mrec/s", "p50 ms", "p99 ms",
                  "fairness", "windows", "SLA viol"});

    std::vector<Point> points;
    for (uint32_t n : sweep) {
        Point p = runPoint(n, smoke);
        table.row({bench::Table::num(uint64_t{p.tenants}),
                   bench::Table::num(p.aggregate_mrps, 2),
                   bench::Table::num(p.p50_s * 1e3, 1),
                   bench::Table::num(p.p99_s * 1e3, 1),
                   bench::Table::num(p.fairness, 3),
                   bench::Table::num(p.windows),
                   bench::Table::num(p.sla_violations)});
        points.push_back(p);
    }
    table.print();

    // The scarce-HBM overload point — the one run that gets full
    // telemetry: tracing is optional observability, so it is only
    // installed when the caller asked for a trace file.
    obs::Telemetry tele;
    const Point ovl =
        runOverloadPoint(smoke, trace_path.empty() ? nullptr : &tele);
    uint64_t ovl_peak = 0;
    for (const TenantMem &tm : ovl.tenant_mem)
        ovl_peak = std::max(ovl_peak, tm.hbm_peak_bytes);
    std::printf("\noverload (8 MiB HBM): max tenant HBM peak %.1f MB\n",
                static_cast<double>(ovl_peak) / 1e6);

    // The shard sweep: one big fleet over a growing shard count.
    const uint32_t shard_tenants = smoke ? 32 : 256;
    const std::vector<uint32_t> shard_counts =
        smoke ? std::vector<uint32_t>{1, 2, 4}
              : std::vector<uint32_t>{1, 2, 4, 8};

    bench::Table stable("Serving layer — shard sweep ("
                        + std::to_string(shard_tenants) + " tenants, "
                        + std::to_string(kCores) + " cores/shard)");
    stable.header({"shards", "agg Mrec/s", "p50 ms", "p99 ms",
                   "fairness", "admitted", "wall ms"});
    std::vector<ShardPoint> shard_points;
    for (uint32_t s : shard_counts) {
        ShardPoint p = runShardPoint(shard_tenants, s, smoke);
        stable.row({bench::Table::num(uint64_t{p.shards}),
                    bench::Table::num(p.aggregate_mrps, 2),
                    bench::Table::num(p.p50_s * 1e3, 1),
                    bench::Table::num(p.p99_s * 1e3, 1),
                    bench::Table::num(p.fairness, 3),
                    bench::Table::num(p.admitted),
                    bench::Table::num(p.wall_ms, 0)});
        shard_points.push_back(p);
    }
    stable.print();
    std::printf("note: the host is simulated one shard at a time — "
                "shard-sweep wall-clock is a single-thread baseline "
                "to re-measure on a multicore box.\n");

    // The failover sweep: a fault-free baseline run of the same
    // recoverable fleet anchors the exactly-once comparison (output
    // content is a pure function of the records, so one baseline
    // serves every checkpoint cadence).
    std::vector<TenantReport> ft_baseline;
    {
        serve::Server server(failoverConfig(0));
        server.submitFleet(failoverFleet(smoke));
        server.run();
        ft_baseline = server.reports();
    }
    const std::vector<SimTime> ft_periods = {0, kNsPerMs, 2 * kNsPerMs};
    bench::Table ftable("Serving layer — failover sweep (64 tenants, "
                        "4 shards, 2 crashes)");
    ftable.header({"ckpt ms", "agg Mrec/s", "recoveries", "ckpts",
                   "copied MB", "replayed", "downtime ms", "identical"});
    std::vector<FailoverPoint> failover_points;
    for (SimTime period : ft_periods) {
        FailoverPoint p = runFailoverPoint(period, smoke, ft_baseline);
        ftable.row({bench::Table::num(
                        static_cast<double>(period) / 1e6, 1),
                    bench::Table::num(p.aggregate_mrps, 2),
                    bench::Table::num(p.recoveries),
                    bench::Table::num(p.checkpoints),
                    bench::Table::num(
                        static_cast<double>(p.copied_bytes) / 1e6, 1),
                    bench::Table::num(p.records_replayed),
                    bench::Table::num(p.mean_downtime_ms, 2),
                    p.output_identical ? "yes" : "NO"});
        failover_points.push_back(p);
    }
    ftable.print();

    // Shape checks: admission must have run everyone, a lone tenant
    // cannot be unfair to itself, and fairness must hold at scale.
    bench::shapeCheck("all sweep points admitted every tenant", [&] {
        for (const Point &p : points)
            if (p.admitted != p.tenants || p.rejected != 0)
                return false;
        return true;
    }());
    bench::shapeCheck("fairness index >= 0.8 at every point", [&] {
        for (const Point &p : points)
            if (p.fairness < 0.8)
                return false;
        return true;
    }());
    bench::shapeCheck("overload point drains every tenant",
                      ovl.admitted == ovl.tenants);
    bench::shapeCheck("per-tenant HBM occupancy accounted", [&] {
        for (const TenantMem &tm : ovl.tenant_mem)
            if (tm.hbm_peak_bytes == 0)
                return false;
        return true;
    }());
    bench::shapeCheck("shard sweep admits and drains the fleet", [&] {
        for (const ShardPoint &p : shard_points)
            if (p.admitted != p.tenants || p.rejected != 0)
                return false;
        return true;
    }());
    bench::shapeCheck("shard sweep fairness >= 0.99", [&] {
        for (const ShardPoint &p : shard_points)
            if (p.fairness < 0.99)
                return false;
        return true;
    }());
    bench::shapeCheck("per-shard accounting closes", [&] {
        for (const ShardPoint &p : shard_points) {
            if (!p.accounting_ok)
                return false;
            uint64_t rows_records = 0;
            uint32_t rows_tenants = 0;
            for (const ShardRow &r : p.rows) {
                rows_records += r.records;
                rows_tenants += r.tenants;
            }
            if (rows_records != p.records || rows_tenants != p.admitted)
                return false;
        }
        return true;
    }());
    bench::shapeCheck("every shard hosts sessions", [&] {
        for (const ShardPoint &p : shard_points)
            for (const ShardRow &r : p.rows)
                if (r.tenants == 0)
                    return false;
        return true;
    }());
    bench::shapeCheck("failover sweep crashes and recovers sessions", [&] {
        for (const FailoverPoint &p : failover_points)
            if (p.crashes == 0 || p.recoveries == 0)
                return false;
        return true;
    }());
    bench::shapeCheck("failover sweep loses no session", [&] {
        for (const FailoverPoint &p : failover_points)
            if (p.lost != 0)
                return false;
        return true;
    }());
    bench::shapeCheck("recovered output bit-identical to fault-free run",
                      [&] {
                          for (const FailoverPoint &p : failover_points)
                              if (!p.output_identical)
                                  return false;
                          return true;
                      }());
    bench::shapeCheck("records conserved across crash replay", [&] {
        for (const FailoverPoint &p : failover_points)
            if (!p.conserved)
                return false;
        return true;
    }());
    // The survivors have room for every recovery, so each session
    // restarts exactly kRecoveryDelay after its crash.
    bench::shapeCheck("each recovery starts kRecoveryDelay after its crash",
                      [&] {
                          for (const FailoverPoint &p : failover_points)
                              if (p.downtime_ns
                                  != p.recoveries * serve::kRecoveryDelay)
                                  return false;
                          return true;
                      }());
    bench::shapeCheck("overload attribution covers every tenant",
                      ovl.attribution.size() == ovl.tenants);
    bench::shapeCheck("attribution components sum to measured latency",
                      [&] {
                          for (const TenantAttr &ta : ovl.attribution) {
                              double sum = 0;
                              for (uint32_t c = 0;
                                   c < serve::kStallCauses; ++c)
                                  sum += ta.comp_ns[c];
                              if (std::fabs(sum - ta.total_latency_ns)
                                  > 1e-6
                                        * std::max(
                                            1.0, ta.total_latency_ns))
                                  return false;
                          }
                          return true;
                      }());
    bench::shapeCheck("latency histogram counts every window", [&] {
        uint64_t hist_windows = 0;
        for (uint64_t c : ovl.latency_hist.counts)
            hist_windows += c;
        return hist_windows == ovl.windows;
    }());
    bench::shapeCheck("checkpoints bound the replay", [&] {
        // Scratch-restart (period 0) replays the whole consumed
        // prefix; any checkpoint cadence must replay strictly less.
        for (const FailoverPoint &p : failover_points) {
            if (p.checkpoint_period == 0)
                continue;
            if (p.checkpoints == 0 || p.copied_bytes == 0
                || p.records_replayed
                       >= failover_points.front().records_replayed)
                return false;
        }
        return true;
    }());

    if (!writeJson(out, points, ovl, shard_points, failover_points)) {
        std::fprintf(stderr, "serve_report: cannot write %s\n",
                     out.c_str());
        return 1;
    }
    std::printf("serve_report: wrote %s (%zu points, %zu shard points)\n",
                out.c_str(), points.size(), shard_points.size());

    if (!trace_path.empty()) {
        obs::JsonWriter tw;
        tele.trace.exportJson(tw);
        if (!tw.writeFile(trace_path)) {
            std::fprintf(stderr, "serve_report: cannot write %s\n",
                         trace_path.c_str());
            return 1;
        }
        std::printf("serve_report: wrote %s (%zu trace events)\n",
                    trace_path.c_str(), tele.trace.size());
    }
    return 0;
}
