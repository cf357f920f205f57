#include "serve/tenant_registry.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace sbhbm::serve {
namespace {

TenantSpec
spec(runtime::StreamId id, uint64_t reserve)
{
    TenantSpec t;
    t.id = id;
    t.hbm_reserve_bytes = reserve;
    return t;
}

AdmissionConfig
budget(uint64_t bytes, uint32_t max_active = 64,
       uint32_t max_queued = 64)
{
    return AdmissionConfig{bytes, max_active, max_queued};
}

TEST(TenantRegistry, AdmitsWithinBudget)
{
    TenantRegistry reg(budget(100_MiB), 1);
    EXPECT_EQ(reg.offer(spec(1, 40_MiB)), Admission::kAdmitted);
    EXPECT_EQ(reg.offer(spec(2, 60_MiB)), Admission::kAdmitted);
    EXPECT_EQ(reg.active(), 2u);
    EXPECT_EQ(reg.gauge(0).used(), 100_MiB);
}

TEST(TenantRegistry, QueuesPastBudgetAndAdmitsOnRelease)
{
    TenantRegistry reg(budget(100_MiB), 1);
    EXPECT_EQ(reg.offer(spec(1, 80_MiB)), Admission::kAdmitted);
    EXPECT_EQ(reg.offer(spec(2, 30_MiB)), Admission::kQueued);
    EXPECT_EQ(reg.queued(), 1u);

    auto admitted = reg.release(1);
    ASSERT_EQ(admitted.size(), 1u);
    EXPECT_EQ(admitted[0].id, 2u);
    EXPECT_EQ(reg.active(), 1u);
    EXPECT_EQ(reg.queued(), 0u);
    EXPECT_EQ(reg.gauge(0).used(), 30_MiB);
}

TEST(TenantRegistry, ReleaseAdmitsInArrivalOrderWithHeadOfLine)
{
    TenantRegistry reg(budget(100_MiB), 1);
    EXPECT_EQ(reg.offer(spec(1, 100_MiB)), Admission::kAdmitted);
    EXPECT_EQ(reg.offer(spec(2, 90_MiB)), Admission::kQueued);
    EXPECT_EQ(reg.offer(spec(3, 10_MiB)), Admission::kQueued);

    // Tenant 3 would fit beside 2's 90 MiB, but 2 arrived first and
    // admission preserves head-of-line order: both admit together
    // only when both fit.
    auto admitted = reg.release(1);
    ASSERT_EQ(admitted.size(), 2u);
    EXPECT_EQ(admitted[0].id, 2u);
    EXPECT_EQ(admitted[1].id, 3u);
}

TEST(TenantRegistry, HeadOfLineBlocksSmallerWaiters)
{
    TenantRegistry reg(budget(100_MiB), 1);
    EXPECT_EQ(reg.offer(spec(1, 60_MiB)), Admission::kAdmitted);
    EXPECT_EQ(reg.offer(spec(2, 60_MiB)), Admission::kQueued);
    EXPECT_EQ(reg.offer(spec(3, 10_MiB)), Admission::kQueued);
    // Tenant 3 fits beside 1 right now, but 2 is ahead of it in the
    // queue and does not fit: a release that only frees room for 3
    // must admit nobody (no starving the big waiter).
    TenantRegistry reg2(budget(100_MiB), 1);
    EXPECT_EQ(reg2.offer(spec(1, 60_MiB)), Admission::kAdmitted);
    EXPECT_EQ(reg2.offer(spec(2, 30_MiB)), Admission::kAdmitted);
    EXPECT_EQ(reg2.offer(spec(4, 80_MiB)), Admission::kQueued);
    EXPECT_EQ(reg2.offer(spec(5, 10_MiB)), Admission::kQueued);
    auto admitted = reg2.release(2); // 60 used, head needs 80
    EXPECT_TRUE(admitted.empty());
    EXPECT_EQ(reg2.queued(), 2u);
    admitted = reg2.release(1); // all free: head fits, then 5 too
    ASSERT_EQ(admitted.size(), 2u);
    EXPECT_EQ(admitted[0].id, 4u);
    EXPECT_EQ(admitted[1].id, 5u);
}

TEST(TenantRegistry, RejectsReservationLargerThanBudget)
{
    TenantRegistry reg(budget(100_MiB), 1);
    EXPECT_EQ(reg.offer(spec(1, 101_MiB)), Admission::kRejected);
    EXPECT_EQ(reg.rejected(), 1u);
    EXPECT_EQ(reg.queued(), 0u) << "a session that can never fit "
                                   "must not camp in the queue";
}

TEST(TenantRegistry, RejectsWhenQueueFull)
{
    TenantRegistry reg(budget(100_MiB, 64, /*max_queued=*/1), 1);
    EXPECT_EQ(reg.offer(spec(1, 100_MiB)), Admission::kAdmitted);
    EXPECT_EQ(reg.offer(spec(2, 10_MiB)), Admission::kQueued);
    EXPECT_EQ(reg.offer(spec(3, 10_MiB)), Admission::kRejected);
}

TEST(TenantRegistry, MaxActiveCapsConcurrency)
{
    TenantRegistry reg(budget(100_MiB, /*max_active=*/2), 1);
    EXPECT_EQ(reg.offer(spec(1, 1_MiB)), Admission::kAdmitted);
    EXPECT_EQ(reg.offer(spec(2, 1_MiB)), Admission::kAdmitted);
    EXPECT_EQ(reg.offer(spec(3, 1_MiB)), Admission::kQueued);
    auto admitted = reg.release(2);
    ASSERT_EQ(admitted.size(), 1u);
    EXPECT_EQ(admitted[0].id, 3u);
}

// -------------------------------------------------------------------
// Live-pressure admission (the gauge-aware control-plane mode).
// -------------------------------------------------------------------

/** A one-shard registry in live mode. */
TenantRegistry
liveRegistry(uint64_t bytes)
{
    return TenantRegistry(AdmissionConfig{bytes, 64, 64}, 1, /*live=*/true);
}

TEST(TenantRegistryLive, AdmitsOnMeasuredPressureNotReservations)
{
    // Static reservations sum to 3x the budget, but measured pressure
    // is low: live mode packs all three sessions in where the static
    // mode would queue two.
    uint64_t pressure = 10_MiB;
    TenantRegistry reg = liveRegistry(100_MiB);
    reg.setLivePressure(0, [&pressure] { return pressure; });
    EXPECT_EQ(reg.offer(spec(1, 80_MiB)), Admission::kAdmitted);
    // Each noteGaugeMarked() models the server re-marking the gauge
    // window: the sample now covers the session just admitted, so its
    // declared reserve leaves the unmeasured headroom term.
    reg.noteGaugeMarked(0);
    EXPECT_EQ(reg.offer(spec(2, 80_MiB)), Admission::kAdmitted);
    reg.noteGaugeMarked(0);
    EXPECT_EQ(reg.offer(spec(3, 80_MiB)), Admission::kAdmitted);
    EXPECT_EQ(reg.active(), 3u);
}

TEST(TenantRegistryLive, BackToBackOffersCountUnmeasuredAdmits)
{
    // Two offers inside one monitor tick see the same stale gauge
    // sample. The first admit's declared reserve must count against
    // the second offer's headroom, or a burst of arrivals lands 2x
    // the budget of working sets on a tier whose measured pressure
    // has not caught up yet.
    uint64_t pressure = 10_MiB;
    TenantRegistry reg = liveRegistry(100_MiB);
    reg.setLivePressure(0, [&pressure] { return pressure; });
    EXPECT_EQ(reg.offer(spec(1, 50_MiB)), Admission::kAdmitted);
    EXPECT_EQ(reg.unmeasuredReserve(0), 50_MiB);
    EXPECT_EQ(reg.offer(spec(2, 50_MiB)), Admission::kQueued)
        << "10 + 50 (unmeasured) + 50 exceeds the 100 MiB budget";
    EXPECT_EQ(reg.active(), 1u);

    // The window re-marks with tenant 1's real footprint in the
    // sample: still no room at 60 MiB measured...
    pressure = 60_MiB;
    reg.noteGaugeMarked(0);
    EXPECT_EQ(reg.unmeasuredReserve(0), 0u);
    EXPECT_TRUE(reg.pumpAdmission().empty());

    // ...but once the measured gauge recedes, the waiter admits.
    pressure = 45_MiB;
    reg.noteGaugeMarked(0);
    auto admitted = reg.pumpAdmission();
    ASSERT_EQ(admitted.size(), 1u);
    EXPECT_EQ(admitted[0].id, 2u);
}

TEST(TenantRegistryLive, ReleaseForgetsUnmeasuredReserve)
{
    // A session that admits and drains within one gauge window must
    // not leave a ghost reserve behind blocking later arrivals.
    uint64_t pressure = 10_MiB;
    TenantRegistry reg = liveRegistry(100_MiB);
    reg.setLivePressure(0, [&pressure] { return pressure; });
    EXPECT_EQ(reg.offer(spec(1, 50_MiB)), Admission::kAdmitted);
    reg.release(1);
    EXPECT_EQ(reg.unmeasuredReserve(0), 0u);
    EXPECT_EQ(reg.offer(spec(2, 60_MiB)), Admission::kAdmitted);
}

TEST(TenantRegistryLive, HighPressureQueuesAndPumpAdmits)
{
    uint64_t pressure = 70_MiB;
    TenantRegistry reg = liveRegistry(100_MiB);
    reg.setLivePressure(0, [&pressure] { return pressure; });
    EXPECT_EQ(reg.offer(spec(1, 20_MiB)), Admission::kAdmitted);
    // 70 + 40 > 100: waits for the gauge to recede.
    EXPECT_EQ(reg.offer(spec(2, 40_MiB)), Admission::kQueued);
    EXPECT_EQ(reg.queued(), 1u);

    // Pressure drops a little: still no room, pump admits nobody.
    // (Each drop is a freshly measured window, so the registry is
    // told the sample covers everything admitted so far.)
    pressure = 65_MiB;
    reg.noteGaugeMarked(0);
    EXPECT_TRUE(reg.pumpAdmission().empty());

    // Pressure recedes enough: the pump admits the waiter with no
    // release having happened — headroom in live mode comes from the
    // gauge, not from reservations handed back.
    pressure = 55_MiB;
    reg.noteGaugeMarked(0);
    auto admitted = reg.pumpAdmission();
    ASSERT_EQ(admitted.size(), 1u);
    EXPECT_EQ(admitted[0].id, 2u);
    EXPECT_EQ(reg.queued(), 0u);
    EXPECT_EQ(reg.active(), 2u);
}

TEST(TenantRegistryLive, HeadOfLinePreservedUnderPressure)
{
    uint64_t pressure = 90_MiB;
    TenantRegistry reg = liveRegistry(100_MiB);
    reg.setLivePressure(0, [&pressure] { return pressure; });
    EXPECT_EQ(reg.offer(spec(1, 5_MiB)), Admission::kAdmitted);
    EXPECT_EQ(reg.offer(spec(2, 40_MiB)), Admission::kQueued);
    // Would fit right now, but 2 is ahead: must queue behind it.
    EXPECT_EQ(reg.offer(spec(3, 5_MiB)), Admission::kQueued);
    pressure = 50_MiB;
    auto admitted = reg.pumpAdmission();
    ASSERT_EQ(admitted.size(), 2u);
    EXPECT_EQ(admitted[0].id, 2u);
    EXPECT_EQ(admitted[1].id, 3u);
}

TEST(TenantRegistryLive, ReleaseStillPumpsAndNeverTouchesGauge)
{
    uint64_t pressure = 95_MiB;
    TenantRegistry reg = liveRegistry(100_MiB);
    reg.setLivePressure(0, [&pressure] { return pressure; });
    EXPECT_EQ(reg.offer(spec(1, 4_MiB)), Admission::kAdmitted);
    EXPECT_EQ(reg.offer(spec(2, 30_MiB)), Admission::kQueued);
    EXPECT_EQ(reg.gauge(0).used(), 0u)
        << "live mode accounts on the machine gauge, not this one";

    // The drain drops measured pressure; release() pumps the queue.
    pressure = 20_MiB;
    auto admitted = reg.release(1);
    ASSERT_EQ(admitted.size(), 1u);
    EXPECT_EQ(admitted[0].id, 2u);
    EXPECT_EQ(reg.active(), 1u);
    reg.release(2);
    EXPECT_EQ(reg.active(), 0u);
}

TEST(TenantRegistryLive, OnePumpCannotOverAdmitAgainstStaleSample)
{
    // Pressure recedes once; many waiters are queued. A single pump
    // judges them against the same gauge sample, so the reserves it
    // admits must accumulate into the headroom term — the pump stops
    // when declared working sets fill the budget, instead of
    // admitting everyone against the stale low reading.
    uint64_t pressure = 90_MiB;
    TenantRegistry reg = liveRegistry(100_MiB);
    reg.setLivePressure(0, [&pressure] { return pressure; });
    EXPECT_EQ(reg.offer(spec(1, 5_MiB)), Admission::kAdmitted);
    for (runtime::StreamId id = 2; id <= 11; ++id)
        EXPECT_EQ(reg.offer(spec(id, 20_MiB)), Admission::kQueued);

    pressure = 10_MiB;
    auto admitted = reg.pumpAdmission();
    // 10 + 20 + 20 + 20 + 20 <= 100, but a fifth 20 MiB would not fit.
    ASSERT_EQ(admitted.size(), 4u);
    EXPECT_EQ(reg.queued(), 6u);

    // The next pump re-reads the gauge; with pressure unchanged it
    // admits nobody further (the previous admits' state now shows up
    // in the measured pressure, not in a stale sample).
    pressure = 85_MiB;
    EXPECT_TRUE(reg.pumpAdmission().empty());
}

TEST(TenantRegistryLive, CanNeverFitStillRejected)
{
    uint64_t pressure = 0;
    TenantRegistry reg = liveRegistry(100_MiB);
    reg.setLivePressure(0, [&pressure] { return pressure; });
    EXPECT_EQ(reg.offer(spec(1, 101_MiB)), Admission::kRejected);
    EXPECT_EQ(reg.rejected(), 1u);
}

TEST(TenantRegistry, ZeroReservationAlwaysFitsBudget)
{
    TenantRegistry reg(budget(1), 1);
    EXPECT_EQ(reg.offer(spec(1, 0)), Admission::kAdmitted);
    EXPECT_EQ(reg.offer(spec(2, 0)), Admission::kAdmitted);
    EXPECT_EQ(reg.gauge(0).used(), 0u);
}

TEST(TenantRegistry, EverAdmittedCountsReadmissions)
{
    TenantRegistry reg(budget(100_MiB), 1);
    EXPECT_EQ(reg.offer(spec(1, 100_MiB)), Admission::kAdmitted);
    EXPECT_EQ(reg.offer(spec(2, 100_MiB)), Admission::kQueued);
    reg.release(1);
    EXPECT_EQ(reg.everAdmitted(), 2u);
}

} // namespace
} // namespace sbhbm::serve
