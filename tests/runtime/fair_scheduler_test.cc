#include "runtime/fair_scheduler.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace sbhbm::runtime {
namespace {

using Backlog = FairScheduler::StreamBacklog;
using Choice = FairScheduler::Choice;

/** A backlog entry with @p n tasks of @p tag, oldest seq @p seq. */
Backlog
entry(StreamId stream, ImpactTag tag, uint32_t n, uint64_t seq)
{
    Backlog b;
    b.stream = stream;
    b.head_seq[static_cast<int>(tag)] = seq;
    b.depth[static_cast<int>(tag)] = n;
    return b;
}

TEST(FairScheduler, UrgentPreemptsGlobally)
{
    FairScheduler s;
    s.setWeight(1, 100.0); // heavy high-backlog tenant...
    std::vector<Backlog> bl = {
        entry(1, ImpactTag::kHigh, 50, 10),
        entry(2, ImpactTag::kUrgent, 1, 99), // ...still loses to urgent
    };
    const Choice c = s.pick(bl);
    EXPECT_EQ(c.stream, 2u);
    EXPECT_EQ(c.tag, ImpactTag::kUrgent);
}

TEST(FairScheduler, UrgentFifoAcrossTenants)
{
    FairScheduler s;
    std::vector<Backlog> bl = {
        entry(1, ImpactTag::kUrgent, 1, 7),
        entry(2, ImpactTag::kUrgent, 1, 3), // enqueued earlier
    };
    EXPECT_EQ(s.pick(bl).stream, 2u);
}

TEST(FairScheduler, HighDispatchesBeforeLowWithinTenant)
{
    FairScheduler s;
    Backlog b = entry(1, ImpactTag::kLow, 4, 2);
    b.head_seq[static_cast<int>(ImpactTag::kHigh)] = 9;
    b.depth[static_cast<int>(ImpactTag::kHigh)] = 1;
    const Choice c = s.pick({b});
    EXPECT_EQ(c.stream, 1u);
    EXPECT_EQ(c.tag, ImpactTag::kHigh);
}

TEST(FairScheduler, ServiceProportionalToWeights)
{
    FairScheduler s;
    s.setWeight(1, 1.0);
    s.setWeight(2, 1.0);
    s.setWeight(3, 2.0);
    // All three permanently backlogged: service must converge to
    // 1 : 1 : 2.
    std::vector<Backlog> bl = {
        entry(1, ImpactTag::kHigh, 100, 1),
        entry(2, ImpactTag::kHigh, 100, 2),
        entry(3, ImpactTag::kHigh, 100, 3),
    };
    std::map<StreamId, int> count;
    for (int i = 0; i < 400; ++i)
        ++count[s.pick(bl).stream];
    EXPECT_EQ(count[1], 100);
    EXPECT_EQ(count[2], 100);
    EXPECT_EQ(count[3], 200);
}

TEST(FairScheduler, EqualWeightsInterleaveEvenly)
{
    FairScheduler s;
    std::vector<Backlog> bl = {
        entry(4, ImpactTag::kLow, 10, 1),
        entry(9, ImpactTag::kLow, 10, 2),
    };
    std::map<StreamId, int> count;
    for (int i = 0; i < 10; ++i)
        ++count[s.pick(bl).stream];
    EXPECT_EQ(count[4], 5);
    EXPECT_EQ(count[9], 5);
}

TEST(FairScheduler, IdleTenantForfeitsBankedCredit)
{
    FairScheduler s;
    s.setWeight(1, 1.0);
    s.setWeight(2, 1.0);
    // Tenant 1 served alone for a while...
    std::vector<Backlog> alone = {entry(1, ImpactTag::kHigh, 100, 1)};
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(s.pick(alone).stream, 1u);
    // ...then tenant 2 appears: service splits evenly from here on
    // (tenant 1 banked nothing while 2 was absent, and vice versa).
    std::vector<Backlog> both = {
        entry(1, ImpactTag::kHigh, 100, 1),
        entry(2, ImpactTag::kHigh, 100, 2),
    };
    std::map<StreamId, int> count;
    for (int i = 0; i < 100; ++i)
        ++count[s.pick(both).stream];
    EXPECT_EQ(count[1], 50);
    EXPECT_EQ(count[2], 50);
}

TEST(FairScheduler, ServedCountsTracked)
{
    FairScheduler s;
    std::vector<Backlog> bl = {
        entry(1, ImpactTag::kHigh, 10, 1),
        entry(2, ImpactTag::kUrgent, 10, 2),
    };
    for (int i = 0; i < 6; ++i)
        s.pick(bl);
    EXPECT_EQ(s.served(1), 0u) << "urgent backlog starves high";
    EXPECT_EQ(s.served(2), 6u);
}

TEST(JainIndex, BoundsAndExtremes)
{
    EXPECT_DOUBLE_EQ(jainIndex({}), 1.0);
    EXPECT_DOUBLE_EQ(jainIndex({5.0, 5.0, 5.0, 5.0}), 1.0);
    EXPECT_DOUBLE_EQ(jainIndex({1.0, 0.0, 0.0, 0.0}), 0.25);
    const double mixed = jainIndex({4.0, 1.0, 1.0});
    EXPECT_GT(mixed, 0.25);
    EXPECT_LT(mixed, 1.0);
}

} // namespace
} // namespace sbhbm::runtime
