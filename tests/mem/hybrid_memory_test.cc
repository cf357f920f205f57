#include "mem/hybrid_memory.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "sim/machine_config.h"

namespace sbhbm::mem {
namespace {

using sim::MachineConfig;
using sim::MemoryMode;

MachineConfig
tinyConfig()
{
    auto cfg = MachineConfig::knl();
    cfg.hbm.capacity_bytes = 1_MiB; // easy to fill in tests
    cfg.dram.capacity_bytes = 64_MiB;
    return cfg;
}

TEST(HybridMemory, FlatModeHonorsRequestedTier)
{
    auto cfg = tinyConfig();
    HybridMemory hm(cfg, MemoryMode::kFlat);
    Block h = hm.alloc(4096, Tier::kHbm);
    Block d = hm.alloc(4096, Tier::kDram);
    EXPECT_EQ(h.tier, Tier::kHbm);
    EXPECT_EQ(d.tier, Tier::kDram);
    EXPECT_EQ(hm.gauge(Tier::kHbm).used(), 4096u);
    EXPECT_EQ(hm.gauge(Tier::kDram).used(), 4096u);
    hm.free(h);
    hm.free(d);
    EXPECT_EQ(hm.gauge(Tier::kHbm).used(), 0u);
    EXPECT_FALSE(h); // free() clears the block
}

TEST(HybridMemory, HbmSpillsToDramWhenFull)
{
    auto cfg = tinyConfig();
    HybridMemory hm(cfg, MemoryMode::kFlat);
    // 1 MiB HBM with 5% urgent reserve: ~996 KiB usable.
    Block a = hm.alloc(512_KiB, Tier::kHbm);
    EXPECT_EQ(a.tier, Tier::kHbm);
    Block b = hm.alloc(512_KiB, Tier::kHbm);
    EXPECT_EQ(b.tier, Tier::kDram) << "second 512 KiB must spill";
    hm.free(a);
    hm.free(b);
}

TEST(HybridMemory, UrgentAllocationUsesHbmReserve)
{
    auto cfg = tinyConfig();
    HybridMemory hm(cfg, MemoryMode::kFlat);
    Block a = hm.alloc(512_KiB, Tier::kHbm);
    Block spill = hm.alloc(512_KiB, Tier::kHbm, /*urgent=*/false);
    EXPECT_EQ(spill.tier, Tier::kDram);
    // Urgent fits: 512 KiB used of 1 MiB, urgent limit is the full MiB.
    Block urgent = hm.alloc(512_KiB, Tier::kHbm, /*urgent=*/true);
    EXPECT_EQ(urgent.tier, Tier::kHbm);
    hm.free(a);
    hm.free(spill);
    hm.free(urgent);
}

TEST(HybridMemory, ChargedBytesUseSizeClass)
{
    auto cfg = tinyConfig();
    HybridMemory hm(cfg, MemoryMode::kFlat);
    Block b = hm.alloc(5000, Tier::kDram);
    EXPECT_EQ(b.charged_bytes, 8192u);
    EXPECT_EQ(hm.gauge(Tier::kDram).used(), 8192u);
    hm.free(b);
}

TEST(HybridMemory, DramOnlyModeNeverGrantsHbm)
{
    auto cfg = tinyConfig();
    HybridMemory hm(cfg, MemoryMode::kDramOnly);
    Block b = hm.alloc(4096, Tier::kHbm);
    EXPECT_EQ(b.tier, Tier::kDram);
    EXPECT_FALSE(hm.hbmHasRoom(4096));
    hm.free(b);
}

TEST(HybridMemory, FlatChargeGoesToObjectTier)
{
    auto cfg = tinyConfig();
    HybridMemory hm(cfg, MemoryMode::kFlat);
    sim::CostLog log;
    hm.charge(log, Tier::kHbm, AccessPattern::kSequential, 1000);
    hm.charge(log, Tier::kDram, AccessPattern::kRandom, 500);
    EXPECT_EQ(log.bytesOn(Tier::kHbm), 1000u);
    EXPECT_EQ(log.bytesOn(Tier::kDram), 500u);
}

TEST(HybridMemory, DramOnlyChargeRedirectsHbmTraffic)
{
    auto cfg = tinyConfig();
    HybridMemory hm(cfg, MemoryMode::kDramOnly);
    sim::CostLog log;
    hm.charge(log, Tier::kHbm, AccessPattern::kSequential, 1000);
    EXPECT_EQ(log.bytesOn(Tier::kHbm), 0u);
    EXPECT_EQ(log.bytesOn(Tier::kDram), 1000u);
}

TEST(HybridMemory, CacheModeHitRatioShrinksWithWorkingSet)
{
    auto cfg = tinyConfig(); // HBM 1 MiB cache
    HybridMemory hm(cfg, MemoryMode::kCache);
    EXPECT_DOUBLE_EQ(hm.cacheHitRatio(), 1.0);

    // Allocate a 4 MiB working set: hit ratio drops to ~0.25.
    Block b = hm.alloc(4_MiB, Tier::kDram);
    EXPECT_NEAR(hm.cacheHitRatio(), 0.25, 0.01);

    // Charged access: all bytes via HBM, ~75% also hit DRAM.
    sim::CostLog log;
    hm.charge(log, Tier::kDram, AccessPattern::kSequential, 100000);
    EXPECT_EQ(log.bytesOn(Tier::kHbm), 100000u);
    EXPECT_NEAR(static_cast<double>(log.bytesOn(Tier::kDram)), 75000.0,
                1500.0);
    hm.free(b);
}

TEST(HybridMemory, CacheModeAllocationsLiveInDram)
{
    auto cfg = tinyConfig();
    HybridMemory hm(cfg, MemoryMode::kCache);
    Block b = hm.alloc(4096, Tier::kHbm);
    EXPECT_EQ(b.tier, Tier::kDram);
    EXPECT_EQ(hm.gauge(Tier::kHbm).used(), 0u);
    hm.free(b);
}

/** Fill HBM until a 64 KiB non-urgent allocation no longer fits. */
std::vector<Block>
fillHbm(HybridMemory &hm)
{
    std::vector<Block> filler;
    for (;;) {
        Block f = hm.alloc(64_KiB, Tier::kHbm);
        if (f.tier == Tier::kDram) {
            hm.free(f);
            return filler;
        }
        filler.push_back(f);
    }
}

TEST(HybridMemory, SpillFallbackStillTagsStream)
{
    // An HBM request that spills to DRAM accounts to the stream on
    // the tier it actually landed on.
    auto cfg = tinyConfig();
    HybridMemory hm(cfg, MemoryMode::kFlat);
    std::vector<Block> filler = fillHbm(hm);
    Block spilled =
        hm.alloc(256_KiB, Tier::kHbm, /*urgent=*/false, /*stream=*/3);
    EXPECT_EQ(spilled.tier, Tier::kDram);
    EXPECT_EQ(hm.streamUsed(3, Tier::kDram), 256_KiB);
    EXPECT_EQ(hm.streamUsed(3, Tier::kHbm), 0u);
    EXPECT_EQ(hm.streamHbmHighWater(3), 0u);
    for (Block &f : filler)
        hm.free(f);
    hm.free(spilled);
}

TEST(HybridMemoryDeath, DramExhaustionIsFatal)
{
    auto cfg = tinyConfig();
    cfg.dram.capacity_bytes = 8192;
    HybridMemory hm(cfg, MemoryMode::kFlat);
    Block a = hm.alloc(8192, Tier::kDram);
    EXPECT_DEATH((void)hm.alloc(8192, Tier::kDram), "DRAM exhausted");
    hm.free(a);
}

} // namespace
} // namespace sbhbm::mem
