#include "runtime/engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"

namespace sbhbm::runtime {
namespace {

EngineConfig
smallConfig()
{
    EngineConfig cfg;
    cfg.cores = 8;
    return cfg;
}

TEST(Engine, UrgentPlacementAlwaysHbmReserved)
{
    Engine e(smallConfig());
    for (int i = 0; i < 50; ++i) {
        auto p = e.placeKpa(ImpactTag::kUrgent, 1_MiB);
        EXPECT_EQ(p.tier, mem::Tier::kHbm);
        EXPECT_TRUE(p.urgent);
    }
}

TEST(Engine, DefaultPlacementIsHbm)
{
    Engine e(smallConfig());
    // Knob starts at {1, 1}: everything prefers HBM.
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(e.placeKpa(ImpactTag::kLow, 1_MiB).tier,
                  mem::Tier::kHbm);
        EXPECT_EQ(e.placeKpa(ImpactTag::kHigh, 1_MiB).tier,
                  mem::Tier::kHbm);
    }
}

TEST(Engine, PlacementSpillsWhenHbmLacksRoom)
{
    auto cfg = smallConfig();
    cfg.machine.hbm.capacity_bytes = 1_MiB;
    Engine e(cfg);
    // Request larger than non-reserved HBM: must place on DRAM.
    auto p = e.placeKpa(ImpactTag::kHigh, 2_MiB);
    EXPECT_EQ(p.tier, mem::Tier::kDram);
    EXPECT_FALSE(p.urgent);
}

TEST(Engine, NonFlatModesAlwaysPlaceDram)
{
    auto cfg = smallConfig();
    cfg.mode = sim::MemoryMode::kCache;
    Engine e(cfg);
    EXPECT_EQ(e.placeKpa(ImpactTag::kUrgent, 1_MiB).tier,
              mem::Tier::kDram);
    EXPECT_EQ(e.placeKpa(ImpactTag::kLow, 1_MiB).tier, mem::Tier::kDram);
}

TEST(Engine, DelayHeadroomTracksTarget)
{
    Engine e(smallConfig()); // target 1 s
    e.reportOutputDelay(500 * kNsPerMs);
    EXPECT_TRUE(e.delayHeadroomOk());
    e.reportOutputDelay(950 * kNsPerMs);
    EXPECT_FALSE(e.delayHeadroomOk());
    // The boundary: a delay of exactly 0.9 x target is ok, and 1 ns
    // more is not.
    e.reportOutputDelay(900 * kNsPerMs);
    EXPECT_TRUE(e.delayHeadroomOk());
    e.reportOutputDelay(900 * kNsPerMs + 1);
    EXPECT_FALSE(e.delayHeadroomOk());
    EXPECT_EQ(e.outputDelays().size(), 4u);
}

TEST(Engine, BackpressureEngagesAtCreditLimit)
{
    auto cfg = smallConfig();
    cfg.max_inflight_bundles = 3;
    Engine e(cfg);
    EXPECT_FALSE(e.backpressured());
    e.noteBundleIn();
    e.noteBundleIn();
    e.noteBundleIn();
    EXPECT_TRUE(e.backpressured());
    e.noteBundleOut();
    EXPECT_FALSE(e.backpressured());
    EXPECT_EQ(e.inflightBundles(), 2u);
}

TEST(Engine, MonitorSamplesAndDrivesKnob)
{
    auto cfg = smallConfig();
    cfg.machine.hbm.capacity_bytes = 10_MiB;
    Engine e(cfg);
    e.reportOutputDelay(100 * kNsPerMs); // plenty of headroom

    // Fill HBM past the high threshold: knob must start spilling.
    std::vector<mem::Block> blocks;
    for (int i = 0; i < 9; ++i) {
        blocks.push_back(e.memory().alloc(1_MiB, mem::Tier::kHbm));
        ASSERT_EQ(blocks.back().tier, mem::Tier::kHbm);
    }

    e.monitor().start();
    e.machine().runUntil(200 * kNsPerMs);
    e.monitor().stop();
    e.machine().run();

    EXPECT_GE(e.monitor().samples().size(), 19u);
    EXPECT_LT(e.knob().kLow(), 1.0) << "knob should have shifted to DRAM";
    for (auto &b : blocks)
        e.memory().free(b);
}

TEST(Engine, MonitorStopsCleanly)
{
    Engine e(smallConfig());
    e.monitor().start();
    e.machine().runUntil(50 * kNsPerMs);
    e.monitor().stop();
    e.machine().run(); // must terminate (no self-perpetuating events)
    EXPECT_FALSE(e.monitor().running());
}

TEST(Engine, NoKpaConfigExposed)
{
    auto cfg = smallConfig();
    cfg.use_kpa = false;
    Engine e(cfg);
    EXPECT_FALSE(e.useKpa());
}

} // namespace
} // namespace sbhbm::runtime
