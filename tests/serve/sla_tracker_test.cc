/**
 * @file
 * SlaTracker violation counting: every externalized window is one
 * latency sample, and exactly the windows whose latency exceeds the
 * target count as violations.
 */

#include "serve/sla_tracker.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "pipeline/operator.h"
#include "runtime/engine.h"

namespace sbhbm::serve {
namespace {

/**
 * Harness: a pipeline whose externalization times are scripted via
 * machine events, so each window's watermark latency is exact.
 */
class SlaTrackerTest : public ::testing::Test
{
  protected:
    static constexpr SimTime kWindow = 100 * kNsPerMs;
    static constexpr SimTime kTarget = 20 * kNsPerMs;

    SlaTrackerTest()
        : eng_(runtime::EngineConfig{}),
          pipe_(eng_, columnar::WindowSpec{kWindow}), sla_(kTarget)
    {
    }

    /**
     * Externalize window @p w with latency @p late past its end.
     * Windows externalize in order, so the scripted times must be
     * monotone: keep every @p late within one window length of the
     * previous window's.
     */
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

    void
    runAndObserve()
    {
        eng_.machine().run();
        sla_.observe(pipe_, StallSnapshot{});
    }

    SimTime last_at_ = 0;
    runtime::Engine eng_;
    pipeline::Pipeline pipe_;
    SlaTracker sla_;
};

TEST_F(SlaTrackerTest, CountsOnlyWindowsPastTheTarget)
{
    externalize(0, kTarget / 2);  // fine
    externalize(1, 3 * kTarget);  // violation
    externalize(2, 4 * kTarget);  // violation
    externalize(3, kTarget);      // exactly on target: fine
    runAndObserve();
    EXPECT_EQ(sla_.windows(), 4u);
    EXPECT_EQ(sla_.violations(), 2u);

    // Observing again without new externalizations changes nothing.
    runAndObserve();
    EXPECT_EQ(sla_.windows(), 4u);
    EXPECT_EQ(sla_.violations(), 2u);
}

TEST_F(SlaTrackerTest, NoViolationsWithinTarget)
{
    for (columnar::WindowId w = 0; w < 6; ++w)
        externalize(w, kTarget / 4);
    runAndObserve();
    EXPECT_EQ(sla_.windows(), 6u);
    EXPECT_EQ(sla_.violations(), 0u);
}

} // namespace
} // namespace sbhbm::serve
