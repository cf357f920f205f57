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
