#include "algo/hash_table.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.h"

namespace sbhbm::algo {
namespace {

TEST(HashTable, InsertFindRoundTrip)
{
    HashTable<uint64_t> t(100);
    t.findOrInsert(42) = 7;
    t.findOrInsert(43) = 8;
    ASSERT_NE(t.find(42), nullptr);
    EXPECT_EQ(*t.find(42), 7u);
    EXPECT_EQ(*t.find(43), 8u);
    EXPECT_EQ(t.find(44), nullptr);
    EXPECT_EQ(t.size(), 2u);
}

TEST(HashTable, FindOrInsertIsIdempotent)
{
    HashTable<uint64_t> t(10);
    t.findOrInsert(5) = 100;
    t.findOrInsert(5) += 1;
    EXPECT_EQ(*t.find(5), 101u);
    EXPECT_EQ(t.size(), 1u);
}

TEST(HashTable, AgreesWithStdMapOnRandomWorkload)
{
    Rng rng(99);
    HashTable<uint64_t> t(20000);
    std::map<uint64_t, uint64_t> ref;
    for (int i = 0; i < 20000; ++i) {
        const uint64_t k = rng.nextBounded(5000); // plenty of collisions
        t.findOrInsert(k) += 1;
        ref[k] += 1;
    }
    EXPECT_EQ(t.size(), ref.size());
    for (const auto &[k, v] : ref) {
        ASSERT_NE(t.find(k), nullptr) << k;
        EXPECT_EQ(*t.find(k), v) << k;
    }
}

TEST(HashTable, ForEachVisitsEveryEntryOnce)
{
    HashTable<uint64_t> t(100);
    for (uint64_t k = 0; k < 50; ++k)
        t.findOrInsert(k * 1000) = k;
    uint64_t count = 0, key_sum = 0;
    t.forEach([&](uint64_t k, const uint64_t &v) {
        ++count;
        key_sum += k;
        EXPECT_EQ(v, k / 1000);
    });
    EXPECT_EQ(count, 50u);
    EXPECT_EQ(key_sum, 1000u * (49 * 50 / 2));
}

TEST(HashTable, ProbeCountsGrowWithLoad)
{
    // Linear probing puts each new key in the first free slot at or
    // after its home slot hashKey(key) & (capacity - 1). Replay that
    // placement beside the table, counting the slots each insert
    // inspects; forEach visits slots in index order, so matching its
    // order pins the replay to the table's own layout.
    HashTable<uint64_t> t(1000);
    const size_t mask = t.capacity() - 1;
    std::vector<uint64_t> slot_key(t.capacity());
    std::vector<bool> used(t.capacity(), false);
    Rng rng(1);
    size_t total_probes = 0;
    for (int i = 0; i < 1000; ++i) {
        const uint64_t key = rng.next();
        t.findOrInsert(key) = 1;
        size_t idx = hashKey(key) & mask;
        for (++total_probes; used[idx]; ++total_probes)
            idx = (idx + 1) & mask;
        used[idx] = true;
        slot_key[idx] = key;
    }
    ASSERT_EQ(t.size(), 1000u);
    std::vector<uint64_t> layout, visited;
    for (size_t i = 0; i < used.size(); ++i)
        if (used[i])
            layout.push_back(slot_key[i]);
    t.forEach([&](uint64_t k, const uint64_t &) { visited.push_back(k); });
    ASSERT_EQ(visited, layout);
    // Linear probing at <= 87% load: average probe count stays small.
    EXPECT_GE(total_probes, 1000u);
    EXPECT_LT(total_probes, 4000u);
}

TEST(HashTable, CapacityIsPowerOfTwoAboveHint)
{
    HashTable<int> t(1000);
    EXPECT_GE(t.capacity(), 1000u + 1000u / 7);
    EXPECT_EQ(t.capacity() & (t.capacity() - 1), 0u);
}

TEST(HashTable, ZeroKeyIsAValidKey)
{
    HashTable<uint64_t> t(10);
    t.findOrInsert(0) = 99;
    ASSERT_NE(t.find(0), nullptr);
    EXPECT_EQ(*t.find(0), 99u);
}

TEST(HashTable, FootprintCoversSlots)
{
    HashTable<uint64_t> t(1000);
    EXPECT_GE(t.footprintBytes(), t.capacity() * 16);
}

} // namespace
} // namespace sbhbm::algo
