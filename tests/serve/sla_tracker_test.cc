/**
 * @file
 * SlaTracker breach hysteresis: one violating window puts the tenant
 * in breach (one placement demotion episode); it recovers only after
 * a streak of kRecoveryWindows in-target windows, so the placement
 * class does not flap on a single good window.
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

TEST_F(SlaTrackerTest, ViolationEntersBreachOnce)
{
    externalize(0, kTarget / 2);    // fine
    externalize(1, 3 * kTarget);    // violation
    externalize(2, 4 * kTarget);    // still violating: same episode
    runAndObserve();
    EXPECT_EQ(sla_.violations(), 2u);
    EXPECT_TRUE(sla_.breached());
    EXPECT_EQ(sla_.breaches(), 1u) << "one episode, not one per window";
}

TEST_F(SlaTrackerTest, RecoversOnlyAfterStreak)
{
    static_assert(SlaTracker::kRecoveryWindows == 4);
    externalize(0, 3 * kTarget); // breach
    externalize(1, 0);
    externalize(2, 0);
    externalize(3, 0);
    runAndObserve();
    EXPECT_TRUE(sla_.breached()) << "3 of 4 recovery windows seen";

    externalize(4, 0);
    runAndObserve();
    EXPECT_FALSE(sla_.breached()) << "streak of 4 clears the breach";
    EXPECT_EQ(sla_.breaches(), 1u);
}

TEST_F(SlaTrackerTest, ViolationMidStreakRestartsRecovery)
{
    static_assert(SlaTracker::kRecoveryWindows == 4);
    externalize(0, 3 * kTarget); // breach
    externalize(1, 0);
    externalize(2, 0);
    externalize(3, 0);
    externalize(4, 3 * kTarget); // relapse before the streak completes
    externalize(5, 0);
    externalize(6, 0);
    externalize(7, 0);
    runAndObserve();
    EXPECT_TRUE(sla_.breached());
    EXPECT_EQ(sla_.breaches(), 1u) << "relapse extends the episode";

    externalize(8, 0);
    runAndObserve();
    EXPECT_FALSE(sla_.breached());

    // A fresh violation after recovery is a new episode.
    externalize(9, 3 * kTarget);
    runAndObserve();
    EXPECT_TRUE(sla_.breached());
    EXPECT_EQ(sla_.breaches(), 2u);
}

TEST_F(SlaTrackerTest, NeverBreachedWithoutViolations)
{
    for (columnar::WindowId w = 0; w < 6; ++w)
        externalize(w, kTarget / 4);
    runAndObserve();
    EXPECT_EQ(sla_.violations(), 0u);
    EXPECT_FALSE(sla_.breached());
    EXPECT_EQ(sla_.breaches(), 0u);
}

} // namespace
} // namespace sbhbm::serve
