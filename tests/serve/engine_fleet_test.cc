/**
 * @file
 * EngineFleet's co-simulation loop, driven by events scheduled by
 * hand: the global order across shards (ties to the lowest shard), a
 * cross-shard syncTo + schedule that runs next, a daemon-only shard
 * that keeps pace without keeping the loop alive, and one shard
 * reproducing Machine::run()'s order exactly.
 */

#include "serve/engine_fleet.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/units.h"

namespace sbhbm::serve {
namespace {

/** Records "<label>@<clock>" events in the order they run. */
struct EventLog
{
    std::vector<std::string> order;

    /** A callback that logs @p label at @p m's clock when it runs. */
    std::function<void()>
    at(sim::Machine &m, std::string label)
    {
        return [this, &m, label] {
            order.push_back(label + "@" + std::to_string(m.now()));
        };
    }
};

TEST(EngineFleet, StepsGlobalTimeOrderWithTiesToTheLowestShard)
{
    EngineFleet fleet(runtime::EngineConfig{}, 3, nullptr);
    sim::Machine &m0 = fleet.engine(0).machine();
    sim::Machine &m1 = fleet.engine(1).machine();
    sim::Machine &m2 = fleet.engine(2).machine();
    EventLog log;
    // Scheduled out of order on purpose: the loop, not insertion,
    // decides who runs first.
    m2.at(10, log.at(m2, "s2"));
    m0.at(20, log.at(m0, "s0"));
    m1.at(10, log.at(m1, "s1"));
    m0.at(10, log.at(m0, "s0"));
    m2.at(5, log.at(m2, "s2"));
    fleet.run();

    const std::vector<std::string> want = {"s2@5", "s0@10", "s1@10",
                                           "s2@10", "s0@20"};
    EXPECT_EQ(log.order, want);
    EXPECT_EQ(&fleet.control(), &m0) << "shard 0 is the control plane";
}

TEST(EngineFleet, CrossShardScheduleAtNowRunsNext)
{
    EngineFleet fleet(runtime::EngineConfig{}, 2, nullptr);
    sim::Machine &m0 = fleet.engine(0).machine();
    sim::Machine &m1 = fleet.engine(1).machine();
    EventLog log;
    m1.at(30, log.at(m1, "s1-own"));
    m0.at(10, [&] {
        log.at(m0, "s0-sync")();
        // Legal under the causality invariant: shard 1 holds nothing
        // earlier than the globally-earliest event's time.
        m1.syncTo(m0.now());
        m1.after(0, log.at(m1, "s1-from-s0"));
    });
    m0.at(11, log.at(m0, "s0"));
    fleet.run();

    const std::vector<std::string> want = {"s0-sync@10", "s1-from-s0@10",
                                           "s0@11", "s1-own@30"};
    EXPECT_EQ(log.order, want);
}

TEST(EngineFleet, DaemonOnlyShardKeepsPaceButDoesNotKeepTheLoopAlive)
{
    EngineFleet fleet(runtime::EngineConfig{}, 2, nullptr);
    sim::Machine &m0 = fleet.engine(0).machine();
    sim::Machine &m1 = fleet.engine(1).machine();
    std::vector<SimTime> ticks;
    std::function<void()> tick = [&] {
        ticks.push_back(m0.now());
        m0.after(10, tick, /*daemon=*/true);
    };
    m0.at(0, tick, /*daemon=*/true);

    // Daemon work alone never starts the loop.
    fleet.run();
    EXPECT_TRUE(ticks.empty());

    EventLog log;
    m1.at(15, log.at(m1, "s1"));
    m1.at(40, log.at(m1, "s1"));
    fleet.run();

    // The daemon fires while shard 1 has live work, including its tie
    // at 40 (lowest shard first), and stops when shard 1 drains.
    EXPECT_EQ(ticks, (std::vector<SimTime>{0, 10, 20, 30, 40}));
    EXPECT_EQ(log.order, (std::vector<std::string>{"s1@15", "s1@40"}));
    EXPECT_EQ(m0.now(), 40u);
    EXPECT_EQ(m0.events().nextTime(), 50u) << "next tick stays pending";
}

/**
 * A schedule with equal-time ties, events that schedule more events
 * (at now and later), and a daemon that must stop with the live work.
 */
void
script(sim::Machine &m, EventLog &log)
{
    m.at(7, log.at(m, "a"));
    m.at(3, [&m, &log] {
        log.at(m, "b")();
        m.after(0, log.at(m, "b-now"));
        m.after(4, log.at(m, "b+4"));
    });
    m.at(7, log.at(m, "c"));
    m.at(0, [&m, &log] {
        log.at(m, "daemon")();
        m.after(5, log.at(m, "daemon-next"), /*daemon=*/true);
    }, /*daemon=*/true);
    m.at(12, log.at(m, "d"));
    m.at(20, log.at(m, "late-daemon"), /*daemon=*/true);
}

TEST(EngineFleet, OneShardRunsExactlyLikeMachineRun)
{
    sim::Machine machine(runtime::EngineConfig{}.machine);
    EventLog alone;
    script(machine, alone);
    machine.run();

    EngineFleet fleet(runtime::EngineConfig{}, 1, nullptr);
    EventLog fleet_log;
    script(fleet.control(), fleet_log);
    fleet.run();

    EXPECT_EQ(fleet_log.order, alone.order);
    EXPECT_EQ(fleet.control().now(), machine.now());
    const std::vector<std::string> want = {
        "daemon@0", "b@3", "b-now@3", "daemon-next@5",
        "a@7",      "c@7", "b+4@7",   "d@12"};
    EXPECT_EQ(alone.order, want);
}

} // namespace
} // namespace sbhbm::serve
