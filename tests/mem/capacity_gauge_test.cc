#include "mem/capacity_gauge.h"

#include <cstdint>

#include <gtest/gtest.h>

namespace sbhbm::mem {
namespace {

TEST(CapacityGauge, BasicReserveRelease)
{
    CapacityGauge g(1000, 0);
    EXPECT_TRUE(g.tryReserve(600, false));
    EXPECT_EQ(g.used(), 600u);
    EXPECT_DOUBLE_EQ(g.usedFraction(), 0.6);
    EXPECT_TRUE(g.tryReserve(400, false));
    EXPECT_FALSE(g.tryReserve(1, false));
    g.release(500);
    EXPECT_EQ(g.used(), 500u);
    EXPECT_TRUE(g.tryReserve(500, false));
}

TEST(CapacityGauge, UrgentReserveOnlyForUrgent)
{
    CapacityGauge g(1000, 100);
    // Non-urgent may only use 900.
    EXPECT_TRUE(g.tryReserve(900, false));
    EXPECT_FALSE(g.tryReserve(1, false));
    // Urgent can dip into the reserve.
    EXPECT_TRUE(g.tryReserve(100, true));
    EXPECT_FALSE(g.tryReserve(1, true));
    EXPECT_EQ(g.used(), 1000u);
}

TEST(CapacityGauge, HasRoomMatchesNonUrgentReserve)
{
    CapacityGauge g(1000, 100);
    EXPECT_TRUE(g.hasRoom(900));
    EXPECT_FALSE(g.hasRoom(901));
    g.tryReserve(500, false);
    EXPECT_TRUE(g.hasRoom(400));
    EXPECT_FALSE(g.hasRoom(401));
}

TEST(CapacityGauge, HighWaterTracksPeakUsage)
{
    CapacityGauge g(1000, 0);
    g.tryReserve(700, false);
    g.release(600);
    g.tryReserve(200, false);
    EXPECT_EQ(g.highWater(), 700u);
    g.tryReserve(600, false);
    EXPECT_EQ(g.highWater(), 900u);
}

TEST(CapacityGauge, UrgentReserveExactBoundary)
{
    // The urgent reserve's edges, one byte at a time: non-urgent may
    // reach exactly capacity - reserve, urgent exactly capacity.
    CapacityGauge g(1000, 100);
    EXPECT_TRUE(g.tryReserve(899, false));
    EXPECT_TRUE(g.tryReserve(1, false)); // lands exactly on 900
    EXPECT_FALSE(g.tryReserve(1, false));
    EXPECT_TRUE(g.tryReserve(99, true));
    EXPECT_TRUE(g.tryReserve(1, true)); // lands exactly on 1000
    EXPECT_FALSE(g.tryReserve(1, true));
    // Releasing one byte re-opens urgent (but not non-urgent) room.
    g.release(1);
    EXPECT_FALSE(g.tryReserve(1, false));
    EXPECT_TRUE(g.tryReserve(1, true));
}

TEST(CapacityGauge, ReserveEqualToCapacityLeavesUrgentOnly)
{
    CapacityGauge g(1000, 1000);
    EXPECT_FALSE(g.tryReserve(1, false));
    EXPECT_FALSE(g.hasRoom(1));
    EXPECT_TRUE(g.tryReserve(1000, true));
}

TEST(CapacityGauge, HugeRequestCannotWrapPastTheLimit)
{
    // used_ + bytes overflows uint64_t for a near-UINT64_MAX request;
    // the wrapped sum used to compare as "fits" and be admitted. The
    // headroom form must reject every such request, urgent or not.
    CapacityGauge g(1000, 100);
    ASSERT_TRUE(g.tryReserve(500, false));
    const uint64_t huge = UINT64_MAX - 100;
    EXPECT_FALSE(g.tryReserve(huge, false));
    EXPECT_FALSE(g.tryReserve(huge, true));
    EXPECT_FALSE(g.tryReserve(UINT64_MAX, false));
    EXPECT_FALSE(g.tryReserve(UINT64_MAX, true));
    EXPECT_FALSE(g.hasRoom(huge));
    EXPECT_FALSE(g.hasRoom(UINT64_MAX));
    EXPECT_EQ(g.used(), 500u) << "rejected requests must not charge";

    // An empty gauge is just as exposed (used_ = 0, bytes wraps the
    // sum all the way around to a small number).
    CapacityGauge fresh(1000, 0);
    EXPECT_FALSE(fresh.tryReserve(UINT64_MAX, false));
    EXPECT_FALSE(fresh.hasRoom(UINT64_MAX - 5));
    EXPECT_EQ(fresh.used(), 0u);
}

TEST(CapacityGauge, UrgentOveruseDoesNotWrapNonUrgentHeadroom)
{
    // Urgent dips into the reserve, so used_ can exceed the
    // non-urgent limit; the headroom subtraction must not wrap then.
    CapacityGauge g(1000, 100);
    ASSERT_TRUE(g.tryReserve(950, true)); // above the 900 limit
    EXPECT_FALSE(g.tryReserve(1, false));
    EXPECT_FALSE(g.hasRoom(1));
    EXPECT_TRUE(g.tryReserve(50, true));
}

TEST(CapacityGauge, ZeroCapacityGaugeRejectsEverything)
{
    CapacityGauge g(0, 0);
    EXPECT_FALSE(g.tryReserve(1, false));
    EXPECT_FALSE(g.tryReserve(1, true));
    EXPECT_DOUBLE_EQ(g.usedFraction(), 0.0);
}

TEST(CapacityGaugeDeath, OverReleasePanics)
{
    CapacityGauge g(1000, 0);
    g.tryReserve(100, false);
    EXPECT_DEATH(g.release(101), "releasing more than used");
}

} // namespace
} // namespace sbhbm::mem
