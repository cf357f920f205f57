#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/units.h"
#include "serve/load_driver.h"

namespace sbhbm::serve {
namespace {

ServeConfig
smallConfig()
{
    ServeConfig cfg;
    cfg.engine.cores = 8;
    cfg.engine.max_inflight_bundles = 256;
    cfg.window_ns = 20 * kNsPerMs;
    return cfg;
}

TenantSpec
smallTenant(runtime::StreamId id, double weight = 1.0,
            uint64_t records = 40'000)
{
    TenantSpec t;
    t.id = id;
    t.name = "t" + std::to_string(id);
    t.weight = weight;
    t.total_records = records;
    t.bundle_records = 2'000;
    t.offered_rate = 20e6;
    t.poisson_arrivals = true;
    t.hbm_reserve_bytes = 8_MiB;
    t.max_inflight_bundles = 8;
    return t;
}

TEST(Server, SingleTenantRunsToCompletion)
{
    Server server(smallConfig());
    server.submit(smallTenant(1));
    server.run();

    ASSERT_EQ(server.reports().size(), 1u);
    const TenantReport &r = server.reports()[0];
    EXPECT_EQ(r.admission, Admission::kAdmitted);
    EXPECT_EQ(r.records, 40'000u);
    EXPECT_GT(r.output_records, 0u);
    EXPECT_GT(r.throughput_mrps, 0.0);
    EXPECT_GT(r.windows, 0u);
    EXPECT_GT(r.tasks, 0u);
    EXPECT_GT(r.cpu_ns, 0.0);
}

TEST(Server, ConcurrentTenantsAllDrain)
{
    Server server(smallConfig());
    for (uint32_t i = 1; i <= 4; ++i)
        server.submit(smallTenant(i, i <= 1 ? 2.0 : 1.0));
    server.run();

    ASSERT_EQ(server.reports().size(), 4u);
    for (const TenantReport &r : server.reports()) {
        EXPECT_EQ(r.admission, Admission::kAdmitted);
        EXPECT_EQ(r.records, 40'000u) << "tenant " << r.spec.id;
        EXPECT_GT(r.served_slots, 0u);
    }
    EXPECT_GT(server.fairnessIndex(), 0.5);
}

TEST(ServerDeath, TwoStreamQueryIsRefusedByName)
{
    // A two-stream session could not be recovered after a crash (its
    // sources drain at different offsets), so the server refuses the
    // query outright and names it, beside a single-stream session.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            Server server(smallConfig());
            TenantSpec join = smallTenant(1, 1.0, 20'000);
            join.query = queries::QueryId::kTemporalJoin;
            server.submit(join);
            server.submit(smallTenant(2));
            server.run();
        },
        "single-stream queries only, not Temporal Join");
    EXPECT_DEATH(
        {
            Server server(smallConfig());
            TenantSpec filter = smallTenant(1);
            filter.query = queries::QueryId::kWindowedFilter;
            server.submit(filter);
            server.run();
        },
        "single-stream queries only, not Windowed Filter");
}

/** The determinism anchors of one run, comparable bit for bit. */
struct Fingerprint
{
    std::vector<double> cpu_ns;
    std::vector<uint64_t> hbm, dram, tasks, records;
    std::vector<double> p50, p99;

    static Fingerprint
    of(const Server &server)
    {
        Fingerprint f;
        for (const TenantReport &r : server.reports()) {
            f.cpu_ns.push_back(r.cpu_ns);
            f.hbm.push_back(r.hbm_bytes);
            f.dram.push_back(r.dram_bytes);
            f.tasks.push_back(r.tasks);
            f.records.push_back(r.records);
            f.p50.push_back(r.p50_s);
            f.p99.push_back(r.p99_s);
        }
        return f;
    }

    bool
    operator==(const Fingerprint &o) const
    {
        return cpu_ns == o.cpu_ns && hbm == o.hbm && dram == o.dram
               && tasks == o.tasks && records == o.records
               && p50 == o.p50 && p99 == o.p99;
    }
};

std::vector<TenantSpec>
mixedFleet()
{
    std::vector<TenantSpec> fleet;
    for (uint32_t i = 1; i <= 4; ++i) {
        TenantSpec t = smallTenant(i, i == 1 ? 4.0 : 1.0,
                                   i == 1 ? 80'000 : 30'000);
        t.query = i % 2 == 0 ? queries::QueryId::kAvgPerKey
                             : queries::QueryId::kSumPerKey;
        t.arrives_at = (i - 1) * 5 * kNsPerMs;
        fleet.push_back(t);
    }
    return fleet;
}

TEST(Server, RepeatedRunsAreBitIdentical)
{
    Server a(smallConfig());
    a.submitFleet(mixedFleet());
    a.run();

    Server b(smallConfig());
    b.submitFleet(mixedFleet());
    b.run();

    EXPECT_TRUE(Fingerprint::of(a) == Fingerprint::of(b))
        << "per-tenant cost totals / SLA percentiles must be "
           "bit-identical across repeated runs";
}

TEST(Server, ResultsIndependentOfSubmissionOrder)
{
    Server a(smallConfig());
    a.submitFleet(mixedFleet());
    a.run();

    Server b(smallConfig());
    auto reversed = mixedFleet();
    std::reverse(reversed.begin(), reversed.end());
    b.submitFleet(reversed);
    b.run();

    EXPECT_TRUE(Fingerprint::of(a) == Fingerprint::of(b))
        << "per-tenant results must not depend on the order sessions "
           "were submitted in";
}

TEST(Server, WeightedFairSharingUnderOverload)
{
    // Session lengths proportional to weight: under weighted fair
    // sharing everyone drains together and throughput lands on the
    // weighted share.
    Server server(smallConfig());
    server.submit(smallTenant(1, 3.0, 90'000));
    for (uint32_t i = 2; i <= 4; ++i)
        server.submit(smallTenant(i, 1.0, 30'000));
    server.run();

    double aggregate = 0;
    for (const TenantReport &r : server.reports())
        aggregate += r.throughput_mrps;
    const double sum_w = 3.0 + 3 * 1.0;
    for (const TenantReport &r : server.reports()) {
        const double share = aggregate * r.spec.weight / sum_w;
        EXPECT_GE(r.throughput_mrps, 0.5 * share)
            << "tenant " << r.spec.id << " starved";
        EXPECT_LE(r.throughput_mrps, 2.0 * share)
            << "tenant " << r.spec.id << " hogged";
    }
    EXPECT_GT(server.fairnessIndex(), 0.8);
}

TEST(Server, QueuedSessionRunsAfterRelease)
{
    ServeConfig cfg = smallConfig();
    cfg.admission.hbm_budget_bytes = 10_MiB;
    Server server(cfg);
    server.submit(smallTenant(1)); // 8 MiB: admitted
    server.submit(smallTenant(2)); // queued behind it
    server.run();

    ASSERT_EQ(server.reports().size(), 2u);
    const TenantReport &r1 = server.reports()[0];
    const TenantReport &r2 = server.reports()[1];
    EXPECT_EQ(r1.admission, Admission::kAdmitted);
    EXPECT_FALSE(r1.was_queued);
    EXPECT_EQ(r2.admission, Admission::kAdmitted);
    EXPECT_TRUE(r2.was_queued);
    EXPECT_GE(r2.started_at, r1.finished_at)
        << "queued session starts only when the running one drains";
    EXPECT_EQ(r2.records, 40'000u);
}

TEST(Server, OversizedSessionRejected)
{
    ServeConfig cfg = smallConfig();
    cfg.admission.hbm_budget_bytes = 10_MiB;
    Server server(cfg);
    TenantSpec big = smallTenant(1);
    big.hbm_reserve_bytes = 11_MiB;
    server.submit(big);
    server.submit(smallTenant(2));
    server.run();

    EXPECT_EQ(server.reports()[0].admission, Admission::kRejected);
    EXPECT_EQ(server.reports()[0].records, 0u);
    EXPECT_EQ(server.reports()[1].admission, Admission::kAdmitted);
}

TEST(Server, LoadDriverFleetIsDeterministic)
{
    FleetConfig fc;
    fc.tenants = 6;
    fc.seed = 7;
    fc.arrival_span = 50 * kNsPerMs;
    const auto a = makeFleet(fc);
    const auto b = makeFleet(fc);
    ASSERT_EQ(a.size(), 6u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_EQ(a[i].arrives_at, b[i].arrives_at);
        EXPECT_EQ(a[i].offered_rate, b[i].offered_rate);
    }
    // 25% of 6 rounds up to 2 hot tenants, leading the fleet.
    EXPECT_EQ(a[0].weight, kFleetHotWeight);
    EXPECT_EQ(a[1].weight, kFleetHotWeight);
    EXPECT_EQ(a[2].weight, kFleetColdWeight);
    // Arrivals are staggered and non-decreasing.
    for (size_t i = 1; i < a.size(); ++i)
        EXPECT_GE(a[i].arrives_at, a[i - 1].arrives_at);
    EXPECT_GT(a.back().arrives_at, 0u);
}

TEST(Server, SlaTrackerCountsViolations)
{
    // A tiny engine + one overloaded tenant with a tight SLA: some
    // windows must miss it, and the tracker must see them.
    ServeConfig cfg = smallConfig();
    cfg.engine.cores = 1;
    cfg.engine.target_delay = 100 * kNsPerUs; // 0.1 ms: unmeetable
    Server server(cfg);
    server.submit(smallTenant(1));
    server.run();

    const TenantReport &r = server.reports()[0];
    EXPECT_GT(r.windows, 0u);
    EXPECT_GT(r.sla_violations, 0u);
    EXPECT_LE(r.sla_violations, r.windows);
    EXPECT_GE(r.p99_s, r.p50_s);
}

TEST(ServerPressure, LiveAdmissionPacksOverstatedReservations)
{
    // Reservations sum far past the budget, but the sessions' real
    // working sets are small. Arrivals are spaced a couple of
    // admission ticks apart so each offer is judged against a freshly
    // measured gauge window: static mode serializes the fleet
    // (queues on paper reservations), live mode admits everyone.
    auto makeCfg = [](bool control_plane) {
        ServeConfig cfg = smallConfig();
        cfg.admission = AdmissionConfig{64_MiB, 64, 64};
        cfg.engine.monitor_period = kNsPerMs;
        cfg.engine.control_plane = control_plane;
        return cfg;
    };
    auto fleet = [] {
        std::vector<TenantSpec> v;
        for (runtime::StreamId id = 1; id <= 4; ++id) {
            // 200k records at 20 Mrec/s = 10 ms of ingest: every
            // session outlives the whole arrival span.
            TenantSpec t = smallTenant(id, 1, 200'000);
            t.hbm_reserve_bytes = 30_MiB; // 4 x 30 > 64 MiB budget
            t.arrives_at = (id - 1) * 2 * kNsPerMs;
            v.push_back(t);
        }
        return v;
    };

    Server stat(makeCfg(false));
    stat.submitFleet(fleet());
    stat.run();
    uint64_t queued_static = 0;
    for (const TenantReport &r : stat.reports())
        queued_static += r.was_queued ? 1 : 0;
    EXPECT_EQ(queued_static, 2u) << "static mode must serialize";

    Server live(makeCfg(true));
    live.submitFleet(fleet());
    live.run();
    for (const TenantReport &r : live.reports()) {
        EXPECT_EQ(r.admission, Admission::kAdmitted);
        EXPECT_FALSE(r.was_queued)
            << "live pressure is low: tenant " << r.spec.id
            << " must not wait on paper reservations";
        EXPECT_EQ(r.records, 200'000u);
    }
}

TEST(ServerPressure, AdmissionBurstJudgedAgainstUnmeasuredReserves)
{
    // The whole fleet arrives within one admission tick, so every
    // offer sees the same stale (near-zero) gauge sample. The
    // declared reserves of the sessions just admitted must count
    // against the later offers: exactly two 30 MiB sessions fit the
    // 64 MiB budget up front, the rest wait for a measured window —
    // instead of the whole burst being waved through at 2x budget.
    ServeConfig cfg = smallConfig();
    cfg.admission = AdmissionConfig{64_MiB, 64, 64};
    cfg.engine.control_plane = true;
    Server server(cfg);
    for (runtime::StreamId id = 1; id <= 4; ++id) {
        TenantSpec t = smallTenant(id);
        t.hbm_reserve_bytes = 30_MiB;
        server.submit(t);
    }
    server.run();

    uint64_t queued = 0;
    for (const TenantReport &r : server.reports()) {
        EXPECT_EQ(r.admission, Admission::kAdmitted);
        EXPECT_EQ(r.records, 40'000u) << "queued sessions still drain";
        queued += r.was_queued ? 1 : 0;
    }
    EXPECT_EQ(queued, 2u)
        << "one tick's admits must cap at the declared-reserve budget";
}

TEST(ServerPressure, LiveAdmissionReportsOccupancy)
{
    ServeConfig cfg = smallConfig();
    cfg.engine.control_plane = true;
    Server server(cfg);
    server.submit(smallTenant(1));
    server.run();
    const TenantReport &r = server.reports()[0];
    EXPECT_EQ(r.admission, Admission::kAdmitted);
    EXPECT_GT(r.hbm_peak_bytes, 0u)
        << "per-tenant occupancy must be accounted";
    EXPECT_EQ(r.demoted_kpas, 0u) << "no pressure, no demotion";
}

TEST(ServerPressure, SlaDemotionEngagesAndSessionsDrain)
{
    // Unmeetable SLA + control plane on: breaching tenants get their
    // placement class demoted (sla_demotions counts episodes), and
    // every session still drains fully.
    ServeConfig cfg = smallConfig();
    cfg.engine.cores = 1;
    cfg.engine.target_delay = 100 * kNsPerUs; // unmeetable
    cfg.engine.control_plane = true;
    Server server(cfg);
    server.submit(smallTenant(1));
    server.submit(smallTenant(2));
    server.run();

    uint64_t demotion_episodes = 0;
    for (const TenantReport &r : server.reports()) {
        EXPECT_EQ(r.records, 40'000u) << "demoted tenants keep draining";
        demotion_episodes += r.sla_demotions;
    }
    EXPECT_GT(demotion_episodes, 0u);

    // Deterministic: the same fleet reproduces the same episodes.
    Server again(cfg);
    again.submit(smallTenant(1));
    again.submit(smallTenant(2));
    again.run();
    uint64_t episodes_again = 0;
    for (const TenantReport &r : again.reports())
        episodes_again += r.sla_demotions;
    EXPECT_EQ(episodes_again, demotion_episodes);
}

} // namespace
} // namespace sbhbm::serve
