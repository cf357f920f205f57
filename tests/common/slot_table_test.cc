#include "common/slot_table.h"

#include <gtest/gtest.h>

#include <string>

namespace sbhbm {
namespace {

TEST(SlotTable, ReusesTheMostRecentlyFreedSlot)
{
    SlotTable<std::string> t;
    EXPECT_EQ(t.take(), 0u);
    EXPECT_EQ(t.take(), 1u);
    EXPECT_EQ(t.take(), 2u);
    t.free(0);
    t.free(2);
    EXPECT_EQ(t.take(), 2u);
    EXPECT_EQ(t.take(), 0u);
    EXPECT_EQ(t.take(), 3u);
}

TEST(SlotTable, ReferencesSurviveTakingMoreSlots)
{
    SlotTable<std::string> t;
    const uint32_t id = t.take();
    std::string &s = t[id];
    s = "held";
    for (int i = 0; i < 10000; ++i)
        t[t.take()] = "other";
    EXPECT_EQ(&t[id], &s);
    EXPECT_EQ(s, "held");
}

TEST(SlotTable, AFreedSlotKeepsItsObjectUntilRetaken)
{
    SlotTable<std::string> t;
    const uint32_t id = t.take();
    t[id] = "stale";
    t.free(id);
    ASSERT_EQ(t.take(), id);
    EXPECT_EQ(t[id], "stale") << "the taker overwrites what it needs";
}

} // namespace
} // namespace sbhbm
