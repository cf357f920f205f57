/**
 * @file
 * SLA breach attribution: each observe() batch decomposes its window
 * latency into recovery / ingest / sched / compute with the
 * components summing exactly to the measured latency, stall deltas
 * clamp to the latency they can explain, stalls seen between window
 * externalizations carry forward to the next batch, and
 * dominantCause() names the cause with the most violating-window
 * latency.
 */

#include "serve/sla_tracker.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "pipeline/operator.h"
#include "runtime/engine.h"

namespace sbhbm::serve {
namespace {

/** Scripted-externalization harness (same as the sla_tracker tests). */
class ObsAttribution : public ::testing::Test
{
  protected:
    static constexpr SimTime kWindow = 100 * kNsPerMs;
    static constexpr SimTime kTarget = 20 * kNsPerMs;

    ObsAttribution()
        : eng_(runtime::EngineConfig{}),
          pipe_(eng_, columnar::WindowSpec{kWindow}), sla_(kTarget)
    {
    }

    /** Externalize window @p w at @p late past its end. */
    void
    externalize(columnar::WindowId w, SimTime late)
    {
        const SimTime at = (w + 1) * kWindow + late;
        sbhbm_assert(at > last_at_, "externalizations must be ordered");
        last_at_ = at;
        eng_.machine().at(at, [this, w] {
            pipe_.noteWindowExternalized(w);
        });
    }

    double
    totalAttributedNs() const
    {
        double sum = 0;
        for (uint32_t c = 0; c < kStallCauses; ++c)
            sum += sla_.componentNs(static_cast<StallCause>(c));
        return sum;
    }

    SimTime last_at_ = 0;
    runtime::Engine eng_;
    pipeline::Pipeline pipe_;
    SlaTracker sla_;
};

TEST_F(ObsAttribution, ComponentsSumToMeasuredLatency)
{
    sla_.noteOutage(2 * kNsPerMs);
    externalize(0, 3 * kTarget);
    externalize(1, kTarget / 2);
    eng_.machine().run();

    StallSnapshot s;
    s.ingest_wait_ns = 5 * kNsPerMs;
    s.queue_wait_ns = 1 * kNsPerMs;
    sla_.observe(pipe_, s);

    const double total =
        static_cast<double>(3 * kTarget + kTarget / 2);
    EXPECT_DOUBLE_EQ(totalAttributedNs(), total);
    EXPECT_DOUBLE_EQ(sla_.componentNs(StallCause::kRecovery),
                     2.0 * kNsPerMs);
    EXPECT_DOUBLE_EQ(sla_.componentNs(StallCause::kIngest),
                     5.0 * kNsPerMs);
    EXPECT_DOUBLE_EQ(sla_.componentNs(StallCause::kSched),
                     1.0 * kNsPerMs);
    EXPECT_DOUBLE_EQ(sla_.componentNs(StallCause::kCompute),
                     total - 8.0 * kNsPerMs);
}

TEST_F(ObsAttribution, StallDeltasClampToUnexplainedLatency)
{
    externalize(0, 4 * kNsPerMs);
    eng_.machine().run();

    // The claimed stalls far exceed the 4 ms of latency: allocation
    // order (ingest first) and clamping decide who gets charged.
    StallSnapshot s;
    s.ingest_wait_ns = 3 * kNsPerMs;
    s.queue_wait_ns = 50 * kNsPerMs;
    sla_.observe(pipe_, s);

    EXPECT_DOUBLE_EQ(sla_.componentNs(StallCause::kIngest),
                     3.0 * kNsPerMs);
    EXPECT_DOUBLE_EQ(sla_.componentNs(StallCause::kSched),
                     1.0 * kNsPerMs);
    EXPECT_DOUBLE_EQ(sla_.componentNs(StallCause::kCompute), 0.0);
    EXPECT_DOUBLE_EQ(totalAttributedNs(), 4.0 * kNsPerMs);
}

TEST_F(ObsAttribution, EmptyBatchStallsCarryToTheNextWindows)
{
    // A stall completes while no window externalizes: the empty
    // observe() must bank the delta, not drop it.
    StallSnapshot mid;
    mid.queue_wait_ns = 2 * kNsPerMs;
    sla_.observe(pipe_, mid);
    EXPECT_EQ(sla_.windows(), 0u);

    externalize(0, 3 * kTarget);
    eng_.machine().run();
    sla_.observe(pipe_, mid); // counters unchanged since the bank
    EXPECT_DOUBLE_EQ(sla_.componentNs(StallCause::kSched),
                     2.0 * kNsPerMs);
    EXPECT_DOUBLE_EQ(totalAttributedNs(),
                     static_cast<double>(3 * kTarget));
}

TEST_F(ObsAttribution, OutageAttributesToRecoveryFirst)
{
    sla_.noteOutage(10 * kNsPerMs);
    externalize(0, 3 * kTarget);
    eng_.machine().run();
    sla_.observe(pipe_, StallSnapshot{});

    EXPECT_DOUBLE_EQ(sla_.componentNs(StallCause::kRecovery),
                     10.0 * kNsPerMs);
    EXPECT_EQ(sla_.dominantCause(), StallCause::kCompute)
        << "3x-target window: compute residual still dominates";
}

TEST_F(ObsAttribution, DominantCauseNamesTheBiggestBreachComponent)
{
    EXPECT_EQ(sla_.dominantCause(), StallCause::kCompute)
        << "no violations yet: default is compute";

    externalize(0, 3 * kTarget);
    eng_.machine().run();
    StallSnapshot s;
    s.queue_wait_ns = static_cast<uint64_t>(3 * kTarget);
    sla_.observe(pipe_, s);

    EXPECT_EQ(sla_.dominantCause(), StallCause::kSched);
    EXPECT_DOUBLE_EQ(sla_.breachNs(StallCause::kSched),
                     static_cast<double>(3 * kTarget));
    EXPECT_DOUBLE_EQ(sla_.breachNs(StallCause::kCompute), 0.0);
}

TEST_F(ObsAttribution, OnlyLateWindowsCountTowardBreachTotals)
{
    externalize(0, kTarget / 2);  // in target
    externalize(1, 3 * kTarget);  // violation
    eng_.machine().run();
    sla_.observe(pipe_, StallSnapshot{});

    // Batch latency splits by window share; only window 1's share
    // lands in the breach totals.
    const double total =
        static_cast<double>(kTarget / 2 + 3 * kTarget);
    const double late_share = static_cast<double>(3 * kTarget) / total;
    EXPECT_DOUBLE_EQ(sla_.breachNs(StallCause::kCompute),
                     total * late_share);
}

} // namespace
} // namespace sbhbm::serve
