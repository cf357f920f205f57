/**
 * @file
 * Fault tolerance end to end:
 *  - FaultPlanTest: the seeded crash schedule is a pure function of
 *    its seed and never targets the control-plane shard;
 *  - ServerDeath: a plan that crashes shard 0, or a shard the fleet
 *    does not have, is refused when the server is built;
 *  - Failover: an injected shard crash fails the resident sessions
 *    over to survivors — checkpoint restore or scratch-restart plus
 *    watermark-aligned replay — and the recovered fleet's per-window
 *    output (records and content checksums) is bit-identical to a
 *    fault-free run, with records conserved across the replay and
 *    the same plan reproducing the same recovery trace twice (the
 *    "recovery" instants on the installed trace sink); a session
 *    whose checkpoints are unrestorable restarts from scratch, and
 *    one whose recovery does not fit waits for a release and then
 *    recovers;
 *  - ServeExhaustionDeath: running out of simulated DRAM stops a
 *    fault-tolerant fleet, as it stops a single pipeline;
 *  - ChaosSoak: a seeded crash storm over the 64-session load-driver
 *    fleet drains cleanly, restarts every session kRecoveryDelay
 *    after each crash, and reproduces bit for bit.
 */

#include "serve/server.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/trace.h"
#include "serve/load_driver.h"

namespace sbhbm::serve {
namespace {

/** A fault-tolerant fleet: checkpointing on, recovery on. */
ServeConfig
ftConfig(uint32_t shards, SimTime checkpoint_period = 3 * kNsPerMs)
{
    ServeConfig cfg;
    cfg.engine.cores = 8;
    cfg.engine.max_inflight_bundles = 256;
    cfg.window_ns = 2 * kNsPerMs;
    cfg.shards = shards;
    cfg.fault.checkpoint_period = checkpoint_period;
    return cfg;
}

/** A recoverable session: logical event time, steady offered rate. */
TenantSpec
ftTenant(runtime::StreamId id, uint64_t records = 100'000)
{
    TenantSpec t;
    t.id = id;
    t.name = "ft" + std::to_string(id);
    t.query = queries::QueryId::kSumPerKey;
    t.total_records = records;
    t.bundle_records = 1'000;
    t.offered_rate = 5e6; // 100k records = 20 ms of stream
    t.logical_time = true;
    t.key_range = 2'000;
    t.hbm_reserve_bytes = 8_MiB;
    t.max_inflight_bundles = 32; // a 2 ms window spans 10 bundles
    return t;
}

/** The "recovery" instants on @p tele's trace sink, in record order:
 *  one line per crash processed and session recovered or lost. */
std::vector<std::string>
recoveryLines(const obs::Telemetry &tele)
{
    std::vector<std::string> lines;
    for (const obs::TraceEvent &e : tele.trace.events()) {
        if (std::strcmp(e.cat, "recovery") == 0)
            lines.push_back(e.name);
    }
    return lines;
}

/** A server beside the telemetry its recovery instants land on
 *  (declared first, so it outlives the server). */
struct TracedServer
{
    std::unique_ptr<obs::Telemetry> tele =
        std::make_unique<obs::Telemetry>();
    std::unique_ptr<Server> server;

    Server *operator->() const { return server.get(); }
};

/** Run a two-tenant fleet (t1 -> shard 0, t2 -> shard 1) under
 *  @p plan and hand back the server for inspection. */
TracedServer
runPair(uint32_t shards, sim::FaultPlan plan,
        SimTime checkpoint_period = 3 * kNsPerMs)
{
    TracedServer run;
    ServeConfig cfg = ftConfig(shards, checkpoint_period);
    cfg.fault.plan = std::move(plan);
    cfg.telemetry = run.tele.get();
    run.server = std::make_unique<Server>(cfg);
    run->submit(ftTenant(1));
    run->submit(ftTenant(2));
    run->run();
    return run;
}

/** Ingest-side conservation across crashes: everything the stream
 *  offered was ingested exactly once, plus the replays. */
void
expectRecordsConserved(const TenantReport &r)
{
    EXPECT_EQ(r.records, r.spec.total_records + r.records_replayed)
        << "tenant " << r.spec.id;
}

// -------------------------------------------------------------------
// FaultPlanTest: the schedule itself
// -------------------------------------------------------------------

TEST(FaultPlanTest, ScatterIsAPureFunctionOfTheSeed)
{
    const auto a = sim::FaultPlan::scatter(7, kNsPerSec, 4, 32);
    const auto b = sim::FaultPlan::scatter(7, kNsPerSec, 4, 32);
    ASSERT_EQ(a.events.size(), 32u);
    ASSERT_EQ(b.events.size(), 32u);
    for (size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].at, b.events[i].at);
        EXPECT_EQ(a.events[i].shard, b.events[i].shard);
    }
    // A different seed is a different plan.
    const auto c = sim::FaultPlan::scatter(8, kNsPerSec, 4, 32);
    bool differs = false;
    for (size_t i = 0; i < c.events.size(); ++i)
        differs = differs || c.events[i].at != a.events[i].at;
    EXPECT_TRUE(differs);
}

TEST(FaultPlanTest, ScatterNeverCrashesTheControlPlaneShard)
{
    // Every event is a crash of a shard in [1, shards), within
    // (0, horizon]; 200 draws hit every such shard.
    const auto plan = sim::FaultPlan::scatter(3, kNsPerSec, 4, 200);
    ASSERT_EQ(plan.events.size(), 200u);
    std::set<uint32_t> shards;
    for (const auto &e : plan.events) {
        shards.insert(e.shard);
        EXPECT_GE(e.at, 1u);
        EXPECT_LE(e.at, kNsPerSec);
    }
    EXPECT_EQ(shards, (std::set<uint32_t>{1, 2, 3}));
}

// -------------------------------------------------------------------
// ServerDeath: a malformed plan stops the server at construction
// -------------------------------------------------------------------

TEST(ServerDeath, FaultPlanCrashingTheControlPlaneShardIsRefused)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            ServeConfig cfg = ftConfig(3);
            cfg.fault.plan.crash(10 * kNsPerMs, 1).crash(12 * kNsPerMs, 0);
            Server server(cfg);
        },
        "the crash at 12000000 ns names shard 0");
}

TEST(ServerDeath, FaultPlanCrashingAShardPastTheFleetIsRefused)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            ServeConfig cfg = ftConfig(3);
            cfg.fault.plan.crash(10 * kNsPerMs, 3);
            Server server(cfg);
        },
        "the crash at 10000000 ns names shard 3");
}

// -------------------------------------------------------------------
// Failover: crash -> recover -> bit-identical output
// -------------------------------------------------------------------

TEST(Failover, CheckpointRecoveryIsBitIdenticalToFaultFreeRun)
{
    // Baseline: same fleet, same checkpoint cadence, no faults.
    auto base = runPair(3, sim::FaultPlan{});
    // Fault run: shard 1 (hosting tenant 2) dies mid-stream, after
    // several checkpoints have been cut.
    auto fault = runPair(3, sim::FaultPlan{}.crash(10 * kNsPerMs, 1));

    EXPECT_TRUE(fault->shardDead(1));
    ASSERT_EQ(base->reports().size(), 2u);
    ASSERT_EQ(fault->reports().size(), 2u);

    const TenantReport &survivor = fault->reports()[0];
    const TenantReport &recovered = fault->reports()[1];
    EXPECT_EQ(survivor.crashes, 0u);
    EXPECT_EQ(recovered.crashes, 1u);
    EXPECT_EQ(recovered.recoveries, 1u);
    EXPECT_FALSE(recovered.lost);
    EXPECT_GT(recovered.downtime_ns, 0u);
    EXPECT_GT(recovered.records_replayed, 0u);
    EXPECT_GT(recovered.checkpoints, 0u);
    // The checkpoint bounded the replay: far fewer records than a
    // scratch restart (which would replay the whole prefix).
    EXPECT_LT(recovered.records_replayed, recovered.spec.total_records);
    EXPECT_NE(recovered.shard, 1u);
    expectRecordsConserved(survivor);
    expectRecordsConserved(recovered);

    // The pinned acceptance check: per-window delivered output —
    // record counts and order-insensitive content checksums — is
    // bit-identical to the fault-free run, for both sessions.
    for (size_t i = 0; i < 2; ++i) {
        const TenantReport &b = base->reports()[i];
        const TenantReport &f = fault->reports()[i];
        // A recovered session started when it was first admitted,
        // not when its restart began.
        EXPECT_EQ(f.started_at, b.started_at) << "tenant " << b.spec.id;
        EXPECT_EQ(f.output_records, b.output_records)
            << "tenant " << b.spec.id;
        EXPECT_EQ(f.window_records, b.window_records)
            << "tenant " << b.spec.id;
        EXPECT_EQ(f.window_checksums, b.window_checksums)
            << "tenant " << b.spec.id;
    }
    // The untouched session's cost totals match the baseline too.
    EXPECT_EQ(survivor.tasks, base->reports()[0].tasks);
    EXPECT_EQ(survivor.cpu_ns, base->reports()[0].cpu_ns);
    EXPECT_EQ(survivor.hbm_bytes, base->reports()[0].hbm_bytes);

    // The recovery restored from a checkpoint, not from scratch.
    bool checkpoint_restore = false;
    for (const std::string &line : recoveryLines(*fault.tele))
        checkpoint_restore = checkpoint_restore
                             || line.find("mode=checkpoint")
                                    != std::string::npos;
    EXPECT_TRUE(checkpoint_restore);
}

TEST(Failover, ScratchRestartRecoversWithoutACheckpoint)
{
    auto base = runPair(3, sim::FaultPlan{}, /*checkpoint_period=*/0);
    auto fault = runPair(3, sim::FaultPlan{}.crash(10 * kNsPerMs, 1),
                         /*checkpoint_period=*/0);

    const TenantReport &recovered = fault->reports()[1];
    EXPECT_EQ(recovered.crashes, 1u);
    EXPECT_EQ(recovered.recoveries, 1u);
    EXPECT_FALSE(recovered.lost);
    EXPECT_EQ(recovered.checkpoints, 0u);
    // No checkpoint: the whole consumed prefix replays.
    EXPECT_GT(recovered.records_replayed, 0u);
    expectRecordsConserved(recovered);
    EXPECT_EQ(fault->reports()[0].window_checksums,
              base->reports()[0].window_checksums);
    EXPECT_EQ(recovered.window_records, base->reports()[1].window_records);
    EXPECT_EQ(recovered.window_checksums,
              base->reports()[1].window_checksums);

    bool scratch = false;
    for (const std::string &line : recoveryLines(*fault.tele))
        scratch = scratch
                  || line.find("mode=scratch") != std::string::npos;
    EXPECT_TRUE(scratch);
}

TEST(Failover, SameFaultPlanReproducesTheSameRecoveryTrace)
{
    // Shard 2 (empty) dies first, then shard 1 (tenant 2), whose
    // session can only recover onto shard 0.
    const auto plan = sim::FaultPlan{}
                          .crash(10 * kNsPerMs, 1)
                          .crash(6 * kNsPerMs, 2);
    auto a = runPair(3, plan);
    auto b = runPair(3, plan);

    ASSERT_FALSE(recoveryLines(*a.tele).empty());
    EXPECT_EQ(recoveryLines(*a.tele), recoveryLines(*b.tele));
    EXPECT_EQ(a->reports()[1].crashes, 1u);
    EXPECT_EQ(a->reports()[1].recoveries, 1u);
    EXPECT_EQ(a->reports()[1].shard, 0u);
    for (size_t i = 0; i < a->reports().size(); ++i) {
        const TenantReport &ra = a->reports()[i];
        const TenantReport &rb = b->reports()[i];
        EXPECT_EQ(ra.records, rb.records);
        EXPECT_EQ(ra.output_records, rb.output_records);
        EXPECT_EQ(ra.records_replayed, rb.records_replayed);
        EXPECT_EQ(ra.cpu_ns, rb.cpu_ns);
        EXPECT_EQ(ra.window_checksums, rb.window_checksums);
        EXPECT_EQ(ra.downtime_ns, rb.downtime_ns);
    }
}

TEST(Failover, DoubleCrashDuringRecoveryStillConvergesBitIdentically)
{
    auto base = runPair(3, sim::FaultPlan{});
    // Shard 1 dies; tenant 2 recovers onto the empty shard 2, which
    // then dies too; the second recovery lands on shard 0.
    auto fault = runPair(3, sim::FaultPlan{}
                                .crash(8 * kNsPerMs, 1)
                                .crash(12 * kNsPerMs, 2));

    EXPECT_TRUE(fault->shardDead(1));
    EXPECT_TRUE(fault->shardDead(2));
    const TenantReport &recovered = fault->reports()[1];
    EXPECT_EQ(recovered.crashes, 2u);
    EXPECT_EQ(recovered.recoveries, 2u);
    EXPECT_FALSE(recovered.lost);
    EXPECT_EQ(recovered.shard, 0u);
    expectRecordsConserved(recovered);
    EXPECT_EQ(recovered.output_records,
              base->reports()[1].output_records);
    EXPECT_EQ(recovered.window_records,
              base->reports()[1].window_records);
    EXPECT_EQ(recovered.window_checksums,
              base->reports()[1].window_checksums);
}

TEST(Failover, PhysicalTimeSessionIsLostNotWedged)
{
    // Without logical event time a replay cannot reproduce the
    // original timestamps: the session is declared lost, its
    // reservation released, and the fleet still drains cleanly.
    obs::Telemetry tele;
    ServeConfig cfg = ftConfig(3);
    cfg.fault.plan.crash(10 * kNsPerMs, 1);
    cfg.telemetry = &tele;
    Server server(cfg);
    server.submit(ftTenant(1));
    TenantSpec legacy = ftTenant(2);
    legacy.logical_time = false;
    server.submit(legacy);
    server.run();

    const TenantReport &lost = server.reports()[1];
    EXPECT_EQ(lost.crashes, 1u);
    EXPECT_EQ(lost.recoveries, 0u);
    EXPECT_TRUE(lost.lost);
    EXPECT_LT(lost.records, lost.spec.total_records);
    EXPECT_EQ(server.reports()[0].crashes, 0u);
    bool traced = false;
    for (const std::string &line : recoveryLines(tele))
        traced = traced
                 || line.find("unrecoverable") != std::string::npos;
    EXPECT_TRUE(traced);
}

TEST(Failover, UnrestorableCutRecoversFromScratchBitIdentically)
{
    // AvgAll keeps per-window accumulators it does not capture, so
    // every checkpoint of its session is cut but marked unrestorable.
    // A crash must then restart the session from scratch: restoring
    // such a cut would silently drop the open windows' sums.
    auto run = [](sim::FaultPlan plan) {
        TracedServer r;
        ServeConfig cfg = ftConfig(3);
        cfg.fault.plan = std::move(plan);
        cfg.telemetry = r.tele.get();
        r.server = std::make_unique<Server>(cfg);
        r->submit(ftTenant(1));
        TenantSpec avg = ftTenant(2);
        avg.query = queries::QueryId::kAvgAll;
        r->submit(avg);
        r->run();
        return r;
    };
    auto base = run(sim::FaultPlan{});
    auto fault = run(sim::FaultPlan{}.crash(10 * kNsPerMs, 1));

    const TenantReport &recovered = fault->reports()[1];
    EXPECT_EQ(recovered.crashes, 1u);
    EXPECT_EQ(recovered.recoveries, 1u);
    EXPECT_FALSE(recovered.lost);
    EXPECT_GT(recovered.checkpoints, 0u)
        << "cuts are taken, just never restored";
    expectRecordsConserved(recovered);
    const TenantReport &b = base->reports()[1];
    EXPECT_GT(b.windows, 0u);
    EXPECT_EQ(recovered.output_records, b.output_records);
    EXPECT_EQ(recovered.window_records, b.window_records);
    EXPECT_EQ(recovered.window_checksums, b.window_checksums);

    bool scratch = false, restored = false;
    for (const std::string &line : recoveryLines(*fault.tele)) {
        if (line.find("recover tenant=2 ") == std::string::npos)
            continue;
        scratch = scratch || line.find("mode=scratch") != std::string::npos;
        restored = restored
                   || line.find("mode=checkpoint") != std::string::npos;
    }
    EXPECT_TRUE(scratch);
    EXPECT_FALSE(restored);
}

TEST(Failover, RecoveryThatDoesNotFitWaitsForARelease)
{
    // Static admission, one session slot per shard: tenant 1 fills
    // shard 0 (its stream spans 100 ms), tenant 2 runs on shard 1
    // until it crashes at 5 ms. The recovery finds no room and waits
    // at the head of the queue; tenant 1's release places it on
    // shard 0, and it delivers what the fault-free run delivers.
    auto run = [](sim::FaultPlan plan) {
        ServeConfig cfg = ftConfig(2);
        cfg.admission.hbm_budget_bytes = 24_MiB; // 12 MiB per shard
        cfg.fault.plan = std::move(plan);
        auto server = std::make_unique<Server>(cfg);
        server->submit(ftTenant(1, /*records=*/500'000)); // 100 ms at 5 M/s
        server->submit(ftTenant(2));
        server->run();
        return server;
    };
    auto base = run(sim::FaultPlan{});
    auto fault = run(sim::FaultPlan{}.crash(5 * kNsPerMs, 1));

    const TenantReport &holder = fault->reports()[0];
    const TenantReport &recovered = fault->reports()[1];
    EXPECT_EQ(holder.shard, 0u);
    EXPECT_EQ(holder.crashes, 0u);
    expectRecordsConserved(holder);
    EXPECT_EQ(recovered.crashes, 1u);
    EXPECT_EQ(recovered.recoveries, 1u);
    EXPECT_FALSE(recovered.lost);
    EXPECT_EQ(recovered.shard, 0u);
    expectRecordsConserved(recovered);
    // It waited out tenant 1's whole stream and restarted the moment
    // tenant 1 drained.
    EXPECT_GT(holder.finished_at, 100 * kNsPerMs);
    EXPECT_EQ(recovered.downtime_ns, holder.finished_at - 5 * kNsPerMs);

    for (size_t i = 0; i < 2; ++i) {
        const TenantReport &b = base->reports()[i];
        const TenantReport &f = fault->reports()[i];
        EXPECT_EQ(f.window_records, b.window_records)
            << "tenant " << b.spec.id;
        EXPECT_EQ(f.window_checksums, b.window_checksums)
            << "tenant " << b.spec.id;
    }

    // Nothing stays booked on the dead shard, or anywhere.
    EXPECT_EQ(fault->registry().gauge(1).used(), 0u);
    EXPECT_EQ(fault->registry().active(), 0u);
}

// -------------------------------------------------------------------
// ServeExhaustionDeath: exhausting DRAM stops the run
// -------------------------------------------------------------------

TEST(ServeExhaustionDeath, DramExhaustionIsFatalUnderFaultTolerance)
{
    // Fault tolerance recovers crashes; it does not drop work to fit
    // a fleet sized below its load. 256 KiB of DRAM cannot hold the
    // session's in-flight bundles, so the run must stop.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            ServeConfig cfg = ftConfig(1, /*checkpoint_period=*/0);
            cfg.engine.machine.dram.capacity_bytes = 256_KiB;
            cfg.engine.machine.hbm.capacity_bytes = 1_MiB;
            cfg.admission.hbm_budget_bytes = 1_MiB;
            TenantSpec t = ftTenant(1);
            t.hbm_reserve_bytes = 0;
            Server server(cfg);
            server.submit(t);
            server.run();
        },
        "DRAM exhausted");
}

// -------------------------------------------------------------------
// ChaosSoak: a seeded crash storm over the 64-session fleet
// -------------------------------------------------------------------

/** The part-3 contending fleet, shrunk and made recoverable. */
std::vector<TenantSpec>
chaosFleet()
{
    FleetConfig fleet;
    fleet.tenants = 64;
    fleet.seed = 42;
    fleet.hot_records = 20'000;
    fleet.cold_records = 5'000;
    fleet.bundle_records = 1'000;
    fleet.hot_rate = 5e6;
    fleet.cold_rate = 1e6;
    fleet.hot_hbm_reserve = 8_MiB;
    fleet.cold_hbm_reserve = 2_MiB;
    fleet.arrival_span = 0;
    fleet.max_inflight_bundles = 8;
    std::vector<TenantSpec> specs = makeFleet(fleet);
    for (TenantSpec &t : specs)
        t.logical_time = true; // every session recoverable
    return specs;
}

TracedServer
runChaos(uint64_t seed)
{
    TracedServer run;
    ServeConfig cfg;
    cfg.engine.cores = 4;
    cfg.engine.max_inflight_bundles = 512;
    cfg.window_ns = kNsPerMs;
    cfg.shards = 4;
    cfg.fault.checkpoint_period = kNsPerMs;
    // Ten crashes over three crashable shards while every session
    // still runs: sessions fail over, some onto a shard that dies
    // next.
    cfg.fault.plan = sim::FaultPlan::scatter(
        seed, /*horizon=*/3 * kNsPerMs, /*shards=*/4, /*count=*/10);
    cfg.telemetry = run.tele.get();
    run.server = std::make_unique<Server>(cfg);
    run->submitFleet(chaosFleet());
    run->run();
    return run;
}

TEST(ChaosSoak, SeededFaultStormDrainsConservedAndReproducible)
{
    auto a = runChaos(0xC0FFEE);
    auto b = runChaos(0xC0FFEE);

    ASSERT_EQ(a->reports().size(), 64u);
    ASSERT_FALSE(recoveryLines(*a.tele).empty());

    uint64_t crashes = 0, recoveries = 0;
    for (const TenantReport &r : a->reports()) {
        ASSERT_EQ(r.admission, Admission::kAdmitted)
            << "tenant " << r.spec.id;
        crashes += r.crashes;
        recoveries += r.recoveries;
        EXPECT_FALSE(r.lost) << "tenant " << r.spec.id;
        expectRecordsConserved(r);
        // Shard 0 always has room for the fleet: every restart begins
        // exactly kRecoveryDelay after its own crash.
        EXPECT_EQ(r.downtime_ns, r.recoveries * kRecoveryDelay)
            << "tenant " << r.spec.id;
    }
    // The storm actually hit something and the fleet came back.
    EXPECT_GT(crashes, 0u);
    EXPECT_GT(recoveries, 0u);

    // Same seed, same fleet => same recovery trace and same
    // per-tenant outcome, bit for bit.
    EXPECT_EQ(recoveryLines(*a.tele), recoveryLines(*b.tele));
    for (size_t i = 0; i < a->reports().size(); ++i) {
        const TenantReport &ra = a->reports()[i];
        const TenantReport &rb = b->reports()[i];
        EXPECT_EQ(ra.records, rb.records) << "tenant " << ra.spec.id;
        EXPECT_EQ(ra.output_records, rb.output_records);
        EXPECT_EQ(ra.records_replayed, rb.records_replayed);
        EXPECT_EQ(ra.crashes, rb.crashes);
        EXPECT_EQ(ra.recoveries, rb.recoveries);
        EXPECT_EQ(ra.lost, rb.lost);
        EXPECT_EQ(ra.checkpoints, rb.checkpoints);
        EXPECT_EQ(ra.cpu_ns, rb.cpu_ns) << "tenant " << ra.spec.id;
        EXPECT_EQ(ra.window_checksums, rb.window_checksums);
    }
}

} // namespace
} // namespace sbhbm::serve
