/**
 * @file
 * The telemetry plane's two core contracts at the serving layer:
 *
 *  - Determinism: trace events are recorded only on the
 *    single-threaded simulation control path, so the same seed yields
 *    a byte-identical Chrome trace export at any host worker-thread
 *    count, and repeated runs of a sharded fleet export identically.
 *
 *  - Neutrality: telemetry is pure observation — running the same
 *    fleet with and without a Telemetry installed produces identical
 *    simulation results (records, windows, latencies), and
 *    so does a faulted fleet, whose fault and recovery instants are
 *    recorded only when telemetry is installed.
 */

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "serve/load_driver.h"
#include "serve/server.h"

namespace sbhbm::serve {
namespace {

constexpr uint64_t kOverloadRecords = 30'000;

/** The canonical overload fleet, traced, at @p host_threads. */
std::string
tracedOverloadJson(unsigned host_threads)
{
    obs::Telemetry tele;
    ServeConfig cfg = overloadServeConfig(/*cores=*/8);
    cfg.engine.host_threads = host_threads;
    cfg.telemetry = &tele;
    Server server(cfg);
    server.submitFleet(makeOverloadFleet(kOverloadRecords));
    server.run();
    EXPECT_GT(tele.trace.size(), 0u);
    return tele.trace.json();
}

/** A small contending fleet on @p shards engine shards, traced. */
std::string
tracedShardJson(uint32_t shards)
{
    obs::Telemetry tele;
    FleetConfig fleet;
    fleet.tenants = 8;
    fleet.seed = 42;
    fleet.hot_records = 8'000;
    fleet.cold_records = 2'000;
    fleet.bundle_records = 2'000;
    fleet.hot_rate = 50e6;
    fleet.cold_rate = 10e6;
    fleet.hot_hbm_reserve = 8_MiB;
    fleet.cold_hbm_reserve = 2_MiB;
    fleet.arrival_span = 0;
    fleet.max_inflight_bundles = 8;

    ServeConfig cfg;
    cfg.engine.machine = sim::MachineConfig::knl();
    cfg.engine.cores = 8;
    cfg.engine.max_inflight_bundles = 1024;
    cfg.window_ns = 20 * kNsPerMs;
    cfg.shards = shards;
    cfg.telemetry = &tele;

    Server server(cfg);
    server.submitFleet(makeFleet(fleet));
    server.run();
    EXPECT_GT(tele.trace.size(), 0u);
    return tele.trace.json();
}

TEST(ObsTraceDeterminism, SameSeedSameTraceAtAnyHostThreadCount)
{
    const std::string one = tracedOverloadJson(1);
    const std::string two = tracedOverloadJson(2);
    const std::string eight = tracedOverloadJson(8);
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, eight);
}

TEST(ObsTraceDeterminism, ShardedTraceIsRepeatable)
{
    EXPECT_EQ(tracedShardJson(1), tracedShardJson(1));
    EXPECT_EQ(tracedShardJson(4), tracedShardJson(4));
}

TEST(ObsTraceDeterminism, TraceCoversTasksAndAdmission)
{
    obs::Telemetry tele;
    ServeConfig cfg = overloadServeConfig(/*cores=*/8);
    cfg.telemetry = &tele;
    Server server(cfg);
    server.submitFleet(makeOverloadFleet(kOverloadRecords));
    server.run();

    uint64_t tasks = 0, admissions = 0;
    for (const obs::TraceEvent &e : tele.trace.events()) {
        const std::string cat = e.cat;
        tasks += cat == "task" ? 1 : 0;
        admissions += cat == "admission" ? 1 : 0;
    }
    EXPECT_GT(tasks, 0u) << "operator task spans missing";
    EXPECT_EQ(admissions, 4u) << "one admission decision per tenant";
}

/** Everything a run externalizes, for equality comparison. */
struct RunResult
{
    std::vector<uint64_t> records, windows, violations;
    std::vector<std::vector<double>> latencies;
    SimTime end_time = 0;

    bool operator==(const RunResult &) const = default;
};

RunResult
runOverload(obs::Telemetry *tele)
{
    ServeConfig cfg = overloadServeConfig(/*cores=*/8);
    cfg.telemetry = tele;
    Server server(cfg);
    server.submitFleet(makeOverloadFleet(kOverloadRecords));
    server.run();

    RunResult r;
    for (const TenantReport &rep : server.reports()) {
        r.records.push_back(rep.records);
        r.windows.push_back(rep.windows);
        r.violations.push_back(rep.sla_violations);
        r.latencies.push_back(rep.latency_samples);
    }
    r.end_time = server.engine(0).machine().now();
    return r;
}

TEST(ObsCostLogNeutral, TelemetryOnDoesNotPerturbTheSimulation)
{
    const RunResult off = runOverload(nullptr);
    obs::Telemetry tele;
    const RunResult on = runOverload(&tele);
    EXPECT_GT(tele.trace.size(), 0u);
    EXPECT_TRUE(off == on)
        << "tracing must be pure observation: identical records, "
           "windows, latencies and virtual end time";
}

/** What a faulted fleet's reports externalize, for equality. */
struct FaultedResult
{
    std::vector<uint64_t> records, output_records, windows, replayed;
    std::vector<uint32_t> recoveries;
    std::vector<std::map<columnar::WindowId, uint64_t>> window_records,
        window_checksums;

    bool operator==(const FaultedResult &) const = default;
};

/**
 * Two recoverable sessions on three shards (tenant 1 on shard 0,
 * tenant 2 on shard 1) under a plan built out of time order: it
 * crashes tenant 2's shard after several checkpoints, and the empty
 * shard 2 before that.
 */
FaultedResult
runFaulted(obs::Telemetry *tele)
{
    ServeConfig cfg;
    cfg.engine.cores = 8;
    cfg.engine.max_inflight_bundles = 256;
    cfg.window_ns = 2 * kNsPerMs;
    cfg.shards = 3;
    cfg.fault.checkpoint_period = 3 * kNsPerMs;
    cfg.fault.plan.crash(10 * kNsPerMs, 1).crash(6 * kNsPerMs, 2);
    cfg.telemetry = tele;
    Server server(cfg);
    for (runtime::StreamId id : {1u, 2u}) {
        TenantSpec t;
        t.id = id;
        t.name = "ft" + std::to_string(id);
        t.query = queries::QueryId::kSumPerKey;
        t.total_records = 100'000;
        t.bundle_records = 1'000;
        t.offered_rate = 5e6;
        t.logical_time = true;
        t.key_range = 2'000;
        t.hbm_reserve_bytes = 8_MiB;
        t.max_inflight_bundles = 32;
        server.submit(t);
    }
    server.run();

    FaultedResult r;
    for (const TenantReport &rep : server.reports()) {
        r.records.push_back(rep.records);
        r.output_records.push_back(rep.output_records);
        r.windows.push_back(rep.windows);
        r.replayed.push_back(rep.records_replayed);
        r.recoveries.push_back(rep.recoveries);
        r.window_records.push_back(rep.window_records);
        r.window_checksums.push_back(rep.window_checksums);
    }
    return r;
}

TEST(ObsCostLogNeutral, TelemetryOnDoesNotPerturbAFaultedRun)
{
    const FaultedResult off = runFaulted(nullptr);
    obs::Telemetry tele;
    const FaultedResult on = runFaulted(&tele);

    // The plan fired in full and the crash was recovered.
    uint64_t faults = 0, recoveries = 0;
    for (const obs::TraceEvent &e : tele.trace.events()) {
        faults += std::strcmp(e.cat, "fault") == 0 ? 1 : 0;
        recoveries += std::strcmp(e.cat, "recovery") == 0 ? 1 : 0;
    }
    EXPECT_EQ(faults, 2u);
    EXPECT_GT(recoveries, 0u);

    // The plan was built out of time order; its crashes fire in time
    // order, one "fault" instant each on its shard's control track,
    // each right before the "recovery" line of the crash it causes.
    struct Want
    {
        SimTime at;
        uint32_t shard;
        uint32_t sessions;
    };
    const Want want[] = {
        {6 * kNsPerMs, 2, 0},
        {10 * kNsPerMs, 1, 1},
    };
    const std::vector<obs::TraceEvent> &events = tele.trace.events();
    size_t next = 0;
    for (size_t i = 0; i < events.size(); ++i) {
        const obs::TraceEvent &e = events[i];
        if (std::strcmp(e.cat, "fault") != 0)
            continue;
        ASSERT_LT(next, std::size(want));
        const Want &w = want[next++];
        EXPECT_EQ(e.ph, 'i');
        EXPECT_EQ(e.ts, w.at);
        EXPECT_EQ(e.pid, w.shard);
        EXPECT_EQ(e.tid, 0u);
        EXPECT_EQ(e.name, "shard-crash");
        EXPECT_EQ(e.nargs, 0u);

        ASSERT_LT(i + 1, events.size());
        const obs::TraceEvent &line = events[i + 1];
        EXPECT_STREQ(line.cat, "recovery");
        EXPECT_EQ(line.name, "t=" + std::to_string(w.at) + " crash shard="
                                 + std::to_string(w.shard) + " sessions="
                                 + std::to_string(w.sessions));
    }
    EXPECT_EQ(next, std::size(want));

    EXPECT_EQ(on.recoveries, (std::vector<uint32_t>{0, 1}));
    EXPECT_GT(on.replayed[1], 0u);

    EXPECT_TRUE(off == on)
        << "recording fault and recovery instants must be pure "
           "observation: identical records, windows, checksums, "
           "recoveries and replays";
}

} // namespace
} // namespace sbhbm::serve
