#include "runtime/executor.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/units.h"
#include "sim/machine.h"

namespace sbhbm::runtime {
namespace {

sim::MachineConfig
testConfig(unsigned cores = 4)
{
    auto cfg = sim::MachineConfig::knl();
    cfg.cores = cores;
    return cfg;
}

TEST(Executor, RunsATaskAndItsCompletion)
{
    sim::Machine m(testConfig());
    Executor ex(m, 4);
    bool ran = false, done = false;
    ex.spawn(
        ImpactTag::kHigh,
        [&](sim::CostLog &log) {
            ran = true;
            log.cpu(1000);
        },
        [&] { done = true; });
    EXPECT_TRUE(ran) << "task body runs at dispatch";
    EXPECT_FALSE(done) << "completion only in virtual time";
    m.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(ex.completedTasks(), 1u);
    EXPECT_TRUE(ex.idle());
}

TEST(Executor, AtMostCoresTasksInFlight)
{
    sim::Machine m(testConfig(4));
    Executor ex(m, 2);
    // 6 equal CPU tasks of 1 us on 2 cores => 3 serial waves, 3 us.
    SimTime last_done = 0;
    for (int i = 0; i < 6; ++i) {
        ex.spawn(
            ImpactTag::kHigh,
            [](sim::CostLog &log) { log.cpu(1000); },
            [&] { last_done = m.now(); });
    }
    EXPECT_EQ(ex.busyCores(), 2u);
    EXPECT_EQ(ex.queuedTasks(), 4u);
    m.run();
    // Dispatch overhead adds kTaskDispatchNs per task.
    const double per_task = 1000 + sim::cost::kTaskDispatchNs;
    EXPECT_NEAR(static_cast<double>(last_done), 3 * per_task, 30);
}

TEST(Executor, UrgentTasksPreemptQueueOrder)
{
    sim::Machine m(testConfig(4));
    Executor ex(m, 1);
    std::vector<int> order;
    auto task = [&](int id) {
        return [&order, id](sim::CostLog &log) {
            order.push_back(id);
            log.cpu(100);
        };
    };
    // Occupy the core, then queue low, high, urgent.
    ex.spawn(ImpactTag::kLow, task(0));
    ex.spawn(ImpactTag::kLow, task(1));
    ex.spawn(ImpactTag::kHigh, task(2));
    ex.spawn(ImpactTag::kUrgent, task(3));
    m.run();
    EXPECT_EQ(order, (std::vector<int>{0, 3, 2, 1}));
}

TEST(Executor, FifoWithinSameTag)
{
    sim::Machine m(testConfig(4));
    Executor ex(m, 1);
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        ex.spawn(ImpactTag::kHigh, [&order, i](sim::CostLog &log) {
            order.push_back(i);
            log.cpu(10);
        });
    }
    m.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Executor, CompletionMaySpawnMoreTasks)
{
    sim::Machine m(testConfig());
    Executor ex(m, 2);
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 4) {
            ex.spawn(
                ImpactTag::kHigh,
                [](sim::CostLog &log) { log.cpu(100); },
                chain);
        }
    };
    ex.spawn(
        ImpactTag::kHigh, [](sim::CostLog &log) { log.cpu(100); }, chain);
    m.run();
    EXPECT_EQ(depth, 4);
    EXPECT_EQ(ex.completedTasks(), 4u);
}

TEST(Executor, MemoryContentionDelaysCompletionOfParallelTasks)
{
    // 8 tasks each streaming 1 GB from DRAM (80 GB/s peak, 5.6 GB/s
    // per-core cap on KNL): 8 flows run at their cap (44.8 < 80).
    sim::Machine m(testConfig(8));
    Executor ex(m, 8);
    SimTime done_at = 0;
    for (int i = 0; i < 8; ++i) {
        ex.spawn(
            ImpactTag::kHigh,
            [](sim::CostLog &log) {
                log.seq(sim::Tier::kDram, 1000000000ull);
            },
            [&] { done_at = m.now(); });
    }
    m.run();
    EXPECT_NEAR(static_cast<double>(done_at), 1e9 / 5.6, 3e6);
}

TEST(ExecutorDeath, MoreCoresThanMachinePanics)
{
    sim::Machine m(testConfig(4));
    EXPECT_DEATH(Executor(m, 5), "core count");
}

TEST(Executor, StreamStatsAccumulatePerStream)
{
    sim::Machine m(testConfig(4));
    Executor ex(m, 4);
    ex.spawn(
        ImpactTag::kHigh,
        [](sim::CostLog &log) {
            log.cpu(1000);
            log.seq(sim::Tier::kHbm, 64);
        },
        nullptr, /*stream=*/1);
    ex.spawn(
        ImpactTag::kLow,
        [](sim::CostLog &log) {
            log.cpu(500);
            log.seq(sim::Tier::kDram, 128);
        },
        nullptr, /*stream=*/2);
    ex.spawn(
        ImpactTag::kLow, [](sim::CostLog &log) { log.cpu(500); },
        nullptr, /*stream=*/2);
    m.run();

    const auto &s1 = ex.streamStats(1);
    const auto &s2 = ex.streamStats(2);
    EXPECT_EQ(s1.spawned, 1u);
    EXPECT_EQ(s1.completed, 1u);
    EXPECT_EQ(s1.hbm_bytes, 64u);
    EXPECT_EQ(s1.dram_bytes, 0u);
    EXPECT_EQ(s2.spawned, 2u);
    EXPECT_EQ(s2.completed, 2u);
    EXPECT_EQ(s2.dram_bytes, 128u);
    // Costs include the dispatch overhead on top of the task body.
    EXPECT_DOUBLE_EQ(s1.cpu_ns, 1000.0 + sim::cost::kTaskDispatchNs);
    EXPECT_DOUBLE_EQ(s2.cpu_ns, 1000.0 + 2 * sim::cost::kTaskDispatchNs);
    EXPECT_EQ(ex.streamStats(3).spawned, 0u) << "unknown stream zeroed";
}

/**
 * A tenant's fan-out is a run of ordinary spawns, so the executor's
 * fair pick arbitrates it against other tenants: on one core, two
 * equal-weight streams' backlogs interleave instead of draining in
 * enqueue order, and at weights 2:1 the dispatches of a busy interval
 * split 2:1.
 */
TEST(Executor, ParallelForShardsAreArbitratedByFairScheduler)
{
    constexpr uint32_t kShards = 12;

    // Dispatch order of kShards High tasks on stream 1, then as many
    // on stream 2.
    auto run = [&](double weight1, double weight2) {
        sim::Machine m(testConfig(4));
        Executor ex(m, 1); // one core: the scheduler picks every task
        ex.scheduler().setWeight(1, weight1);
        ex.scheduler().setWeight(2, weight2);
        // Hold the core so both backlogs queue before the first pick.
        ex.spawn(ImpactTag::kHigh,
                 [](sim::CostLog &log) { log.cpu(1000); });
        std::vector<StreamId> order;
        for (StreamId stream : {StreamId{1}, StreamId{2}}) {
            for (uint32_t i = 0; i < kShards; ++i) {
                ex.spawn(
                    ImpactTag::kHigh,
                    [&order, stream](sim::CostLog &log) {
                        order.push_back(stream);
                        log.cpu(1000);
                    },
                    nullptr, stream);
            }
        }
        m.run();
        EXPECT_EQ(order.size(), 2 * kShards);
        return order;
    };

    // Equal weights: the backlogs alternate from the first pick on,
    // although all of stream 1's tasks were enqueued first.
    const auto even = run(1.0, 1.0);
    for (size_t i = 0; i < even.size(); ++i)
        EXPECT_EQ(even[i], i % 2 == 0 ? 1u : 2u) << "dispatch " << i;

    // Weights 2:1: while both streams stay backlogged (the first 15
    // dispatches), every three serve stream 1 twice and stream 2 once.
    const auto skewed = run(2.0, 1.0);
    uint32_t served[3] = {};
    for (size_t i = 0; i < 15; ++i)
        ++served[skewed[i]];
    EXPECT_EQ(served[1], 10u);
    EXPECT_EQ(served[2], 5u);
}

} // namespace
} // namespace sbhbm::runtime
