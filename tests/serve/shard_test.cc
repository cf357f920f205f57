/**
 * @file
 * The sharded serving layer (ShardRegistry): load-vector placement
 * onto the least-loaded shard under per-shard budget slices, crash
 * recoveries re-admitted through the same queue, the server-level
 * determinism contract (same fleet, any submission order =>
 * identical placement and per-tenant results), and a session whose
 * window state overruns a scarce HBM delivering, on a two-shard
 * fleet, exactly the windows of the one-shard fleet.
 */

#include "serve/server.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "common/units.h"
#include "serve/load_driver.h"

namespace sbhbm::serve {
namespace {

TenantSpec
spec(runtime::StreamId id, uint64_t reserve, double rate = 0)
{
    TenantSpec t;
    t.id = id;
    t.name = "t" + std::to_string(id);
    t.hbm_reserve_bytes = reserve;
    t.offered_rate = rate;
    return t;
}

AdmissionConfig
shardedBudget(uint64_t bytes)
{
    AdmissionConfig cfg;
    cfg.hbm_budget_bytes = bytes;
    return cfg;
}

// -------------------------------------------------------------------
// ShardRegistry: placement + accounting
// -------------------------------------------------------------------

TEST(ShardRegistry, PlacesOnLeastLoadedShardTiesToLowestIndex)
{
    TenantRegistry reg(shardedBudget(400_MiB), 4);
    EXPECT_EQ(reg.perShardBudget(), 100_MiB);

    // A hot session pins shard 0's load far above the others.
    EXPECT_EQ(reg.offer(spec(1, 10_MiB, 1e9)), Admission::kAdmitted);
    EXPECT_EQ(reg.shardOf(1), 0u);
    // Equal-load arrivals fan out over the empty shards in index
    // order (stable ties).
    for (runtime::StreamId id = 2; id <= 4; ++id) {
        EXPECT_EQ(reg.offer(spec(id, 10_MiB, 1.0)), Admission::kAdmitted);
        EXPECT_EQ(reg.shardOf(id), id - 1);
    }
    // Next arrival: shards 1..3 tie for least loaded, 0 is hot —
    // lowest index among the tie wins, never the hot shard.
    EXPECT_EQ(reg.offer(spec(5, 10_MiB, 1.0)), Admission::kAdmitted);
    EXPECT_EQ(reg.shardOf(5), 1u);
    EXPECT_EQ(reg.shardActive(0), 1u);
    EXPECT_EQ(reg.shardActive(1), 2u);
    EXPECT_GT(reg.shardLoad(0), reg.shardLoad(1));
}

TEST(ShardRegistry, PerShardBudgetGovernsAdmission)
{
    // 100 MiB over 4 shards: 25 MiB per shard.
    TenantRegistry reg(shardedBudget(100_MiB), 4);

    // Bigger than a whole shard's slice: can never fit anywhere.
    EXPECT_EQ(reg.offer(spec(9, 30_MiB)), Admission::kRejected);
    EXPECT_EQ(reg.rejected(), 1u);

    // Four 20 MiB sessions land on four distinct shards.
    for (runtime::StreamId id = 1; id <= 4; ++id) {
        EXPECT_EQ(reg.offer(spec(id, 20_MiB)), Admission::kAdmitted);
        EXPECT_EQ(reg.shardOf(id), id - 1);
    }
    // The fifth fits the global budget on paper (80 + 20 <= 100) but
    // no single shard has 20 MiB of headroom left: it queues.
    EXPECT_EQ(reg.offer(spec(5, 20_MiB)), Admission::kQueued);
    EXPECT_EQ(reg.queued(), 1u);

    // A release frees shard 0; the waiter lands exactly there.
    const auto admitted = reg.release(1);
    ASSERT_EQ(admitted.size(), 1u);
    EXPECT_EQ(admitted[0].id, 5u);
    EXPECT_EQ(reg.shardOf(5), 0u);
    EXPECT_EQ(reg.gauge(0).used(), 20_MiB);
    EXPECT_EQ(reg.queued(), 0u);
}

TEST(ShardRegistry, ReadmitPassesOverAFullShardForOneWithRoom)
{
    TenantRegistry reg(shardedBudget(120_MiB), 3); // 40 MiB per shard
    EXPECT_EQ(reg.offer(spec(1, 30_MiB)), Admission::kAdmitted);
    EXPECT_EQ(reg.offer(spec(2, 30_MiB)), Admission::kAdmitted);
    EXPECT_EQ(reg.offer(spec(3, 5_MiB, 1e3)), Admission::kAdmitted);
    EXPECT_EQ(reg.shardOf(1), 0u);
    EXPECT_EQ(reg.shardOf(2), 1u);
    EXPECT_EQ(reg.shardOf(3), 2u);
    EXPECT_LT(reg.shardLoad(0), reg.shardLoad(2));

    // Shard 1 dies. Its session's reservation leaves it; the
    // least-loaded live shard (0) has no room for 30 MiB, so the
    // recovery lands on shard 2, which has.
    reg.setShardDown(1);
    const auto admitted = reg.readmit({spec(2, 30_MiB)});
    ASSERT_EQ(admitted.size(), 1u);
    EXPECT_EQ(admitted[0].id, 2u);
    EXPECT_EQ(reg.shardOf(2), 2u);
    EXPECT_EQ(reg.gauge(0).used(), 30_MiB);
    EXPECT_EQ(reg.gauge(1).used(), 0u);
    EXPECT_EQ(reg.gauge(2).used(), 35_MiB);
    EXPECT_EQ(reg.shardActive(1), 0u);
    EXPECT_EQ(reg.shardLoad(1), 0.0);
    EXPECT_EQ(reg.active(), 3u);
    EXPECT_EQ(reg.queued(), 0u);
    EXPECT_EQ(reg.everAdmitted(), 3u) << "a restart is not a new session";
}

TEST(ShardRegistry, WaitingRecoveryLeadsTheQueueUntilARelease)
{
    AdmissionConfig cfg = shardedBudget(60_MiB); // 20 MiB per shard
    cfg.max_queued = 1;
    TenantRegistry reg(cfg, 3);
    for (runtime::StreamId id = 1; id <= 3; ++id) {
        EXPECT_EQ(reg.offer(spec(id, 15_MiB)), Admission::kAdmitted);
        EXPECT_EQ(reg.shardOf(id), id - 1);
    }

    // Shard 1 dies and no live shard has 15 MiB free: the recovery
    // waits.
    reg.setShardDown(1);
    EXPECT_TRUE(reg.readmit({spec(2, 15_MiB)}).empty());
    EXPECT_EQ(reg.gauge(1).used(), 0u);
    EXPECT_EQ(reg.queued(), 1u);
    // An arrival that would fit on shard 0 waits behind it, and the
    // recovery does not count against max_queued.
    EXPECT_EQ(reg.offer(spec(4, 4_MiB)), Admission::kQueued);
    // Shard 2 dies: its recovery queues behind the earlier one and
    // ahead of the waiting arrival, past a full queue.
    reg.setShardDown(2);
    EXPECT_TRUE(reg.readmit({spec(3, 15_MiB)}).empty());
    EXPECT_EQ(reg.queued(), 3u);
    EXPECT_EQ(reg.offer(spec(5, 1_MiB)), Admission::kRejected)
        << "one waiting arrival fills max_queued";

    // The next release places the first recovery, and the second
    // (which does not fit beside it) holds back the arrival that
    // would.
    auto admitted = reg.release(1);
    ASSERT_EQ(admitted.size(), 1u);
    EXPECT_EQ(admitted[0].id, 2u);
    EXPECT_EQ(reg.shardOf(2), 0u);
    EXPECT_EQ(reg.queued(), 2u);

    admitted = reg.release(2);
    ASSERT_EQ(admitted.size(), 2u);
    EXPECT_EQ(admitted[0].id, 3u);
    EXPECT_EQ(admitted[1].id, 4u);
    EXPECT_EQ(reg.gauge(0).used(), 19_MiB);
    EXPECT_EQ(reg.queued(), 0u);
    EXPECT_EQ(reg.everAdmitted(), 4u);
}

// -------------------------------------------------------------------
// ShardRegistry: server-level placement + determinism
// -------------------------------------------------------------------

ServeConfig
shardedConfig(uint32_t shards)
{
    ServeConfig cfg;
    cfg.engine.cores = 8;
    cfg.engine.max_inflight_bundles = 256;
    cfg.window_ns = 20 * kNsPerMs;
    cfg.shards = shards;
    return cfg;
}

TenantSpec
shardTenant(runtime::StreamId id, uint64_t records = 30'000)
{
    TenantSpec t;
    t.id = id;
    t.name = "t" + std::to_string(id);
    t.total_records = records;
    t.bundle_records = 2'000;
    t.offered_rate = 20e6;
    t.poisson_arrivals = true;
    t.hbm_reserve_bytes = 8_MiB;
    t.max_inflight_bundles = 8;
    return t;
}

/** The determinism anchors of one run, comparable bit for bit. */
struct Fingerprint
{
    std::vector<uint32_t> shard;
    std::vector<double> cpu_ns;
    std::vector<uint64_t> hbm, dram, tasks, records, slots;
    std::vector<double> p50, p99;

    static Fingerprint
    of(const Server &server)
    {
        Fingerprint f;
        for (const TenantReport &r : server.reports()) {
            f.shard.push_back(r.shard);
            f.cpu_ns.push_back(r.cpu_ns);
            f.hbm.push_back(r.hbm_bytes);
            f.dram.push_back(r.dram_bytes);
            f.tasks.push_back(r.tasks);
            f.records.push_back(r.records);
            f.slots.push_back(r.served_slots);
            f.p50.push_back(r.p50_s);
            f.p99.push_back(r.p99_s);
        }
        return f;
    }

    bool
    operator==(const Fingerprint &o) const
    {
        return shard == o.shard && cpu_ns == o.cpu_ns && hbm == o.hbm
               && dram == o.dram && tasks == o.tasks
               && records == o.records && slots == o.slots
               && p50 == o.p50 && p99 == o.p99;
    }
};

TEST(ShardRegistry, FleetSpreadsAcrossShardsAndDrains)
{
    Server server(shardedConfig(4));
    for (runtime::StreamId id = 1; id <= 8; ++id)
        server.submit(shardTenant(id));
    server.run();

    ASSERT_EQ(server.reports().size(), 8u);
    std::set<uint32_t> used;
    std::vector<uint64_t> shard_tasks(4, 0);
    for (const TenantReport &r : server.reports()) {
        EXPECT_EQ(r.admission, Admission::kAdmitted);
        EXPECT_EQ(r.records, 30'000u) << "tenant " << r.spec.id;
        EXPECT_EQ(r.migrations, 0u);
        used.insert(r.shard);
        shard_tasks[r.shard] += r.tasks;
        // Single-segment sessions: the report's task total is the
        // home executor's per-stream count, nothing more.
        EXPECT_EQ(r.tasks,
                  server.engine(r.shard)
                      .exec()
                      .streamStats(r.spec.id)
                      .completed)
            << "tenant " << r.spec.id;
    }
    EXPECT_EQ(used.size(), 4u) << "8 equal sessions over 4 shards "
                                  "must use every shard";
    // Per-shard accounting closes: each executor completed exactly
    // its residents' tasks.
    for (uint32_t s = 0; s < 4; ++s)
        EXPECT_EQ(server.engine(s).exec().completedTasks(),
                  shard_tasks[s])
            << "shard " << s;
    EXPECT_GT(server.fairnessIndex(), 0.9);
}

std::vector<TenantSpec>
shardedMixedFleet()
{
    std::vector<TenantSpec> fleet;
    for (runtime::StreamId id = 1; id <= 8; ++id) {
        TenantSpec t = shardTenant(id, id == 1 ? 60'000 : 30'000);
        t.weight = id == 1 ? 4.0 : 1.0;
        t.query = id % 2 == 0 ? queries::QueryId::kAvgPerKey
                              : queries::QueryId::kSumPerKey;
        t.offered_rate = id % 3 == 0 ? 8e6 : 20e6;
        t.hbm_reserve_bytes = (id % 2 == 0 ? 4 : 8) * 1_MiB;
        t.arrives_at = (id - 1) * 2 * kNsPerMs;
        fleet.push_back(t);
    }
    return fleet;
}

TEST(ShardRegistry, PlacementAndResultsIndependentOfSubmissionOrder)
{
    Server a(shardedConfig(4));
    a.submitFleet(shardedMixedFleet());
    a.run();

    // Same fleet, reversed submission order: identical placement and
    // per-tenant results, bit for bit.
    Server b(shardedConfig(4));
    std::vector<TenantSpec> reversed = shardedMixedFleet();
    std::reverse(reversed.begin(), reversed.end());
    b.submitFleet(reversed);
    b.run();

    EXPECT_TRUE(Fingerprint::of(a) == Fingerprint::of(b))
        << "shard assignment and per-tenant cost totals must not "
           "depend on the order sessions were submitted in";

    // And per-shard aggregates agree too.
    for (uint32_t s = 0; s < 4; ++s) {
        EXPECT_EQ(a.engine(s).exec().completedTasks(),
                  b.engine(s).exec().completedTasks())
            << "shard " << s;
        EXPECT_EQ(a.engine(s).exec().spawnedTasks(),
                  b.engine(s).exec().spawnedTasks())
            << "shard " << s;
    }
}

TEST(ShardRegistry, RepeatedShardedRunsAreBitIdentical)
{
    Server a(shardedConfig(4));
    a.submitFleet(shardedMixedFleet());
    a.run();

    Server b(shardedConfig(4));
    b.submitFleet(shardedMixedFleet());
    b.run();

    EXPECT_TRUE(Fingerprint::of(a) == Fingerprint::of(b));
}

/** The scarce-HBM fleet: one hot SumPerKey session whose open window
 *  overruns a 4 MiB HBM, so the knob and the spill place its state. */
std::unique_ptr<Server>
runScarceHbmFleet(uint32_t shards)
{
    ServeConfig cfg;
    cfg.engine.machine = sim::MachineConfig::knl();
    cfg.engine.machine.hbm.capacity_bytes = 4_MiB;
    cfg.engine.cores = 4;
    cfg.engine.max_inflight_bundles = 2048;
    cfg.engine.monitor_period = kNsPerMs;
    cfg.admission.hbm_budget_bytes = 64_MiB;
    cfg.shards = shards;

    TenantSpec t;
    t.id = 1;
    t.name = "hot";
    t.query = queries::QueryId::kSumPerKey;
    t.total_records = 200'000;
    t.bundle_records = 5'000;
    t.offered_rate = 2e7;
    t.hbm_reserve_bytes = 1_MiB;
    t.max_inflight_bundles = 64;

    auto server = std::make_unique<Server>(cfg);
    server->submit(t);
    server->run();
    return server;
}

TEST(ShardRegistry, ScarceHbmTwoShardFleetDeliversOneShardWindows)
{
    // HBM pressure at more than one shard: the session stays on its
    // placement shard under sustained high-water pressure and
    // delivers every window whole — the same rows and checksums as
    // the one-shard fleet, one row per key of its 10,000-key range.
    auto one = runScarceHbmFleet(1);
    auto two = runScarceHbmFleet(2);
    ASSERT_EQ(two->reports().size(), 1u);
    const TenantReport &r1 = one->reports()[0];
    const TenantReport &r2 = two->reports()[0];
    EXPECT_EQ(r2.admission, Admission::kAdmitted);
    EXPECT_EQ(r2.records, 200'000u);
    EXPECT_EQ(r2.migrations, 0u);
    EXPECT_GT(two->engine(r2.shard).monitor().hbmUsedStat().max(),
              runtime::BalanceKnob::kHbmHigh * 4_MiB)
        << "the fleet must actually run under HBM pressure";

    ASSERT_EQ(r1.window_records.count(0), 1u);
    ASSERT_EQ(r2.window_records.count(0), 1u);
    EXPECT_EQ(r1.window_records.at(0), 10'000u);
    EXPECT_EQ(r2.window_records.at(0), r1.window_records.at(0));
    EXPECT_EQ(r2.window_checksums.at(0), r1.window_checksums.at(0));
    EXPECT_EQ(r2.window_records, r1.window_records);
    EXPECT_EQ(r2.window_checksums, r1.window_checksums);
}

} // namespace
} // namespace sbhbm::serve
