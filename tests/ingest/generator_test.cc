#include "ingest/generator.h"

#include <gtest/gtest.h>

#include <set>

#include "sim/machine_config.h"

namespace sbhbm::ingest {
namespace {

class GeneratorTest : public ::testing::Test
{
  protected:
    sim::MachineConfig cfg_ = sim::MachineConfig::knl();
    mem::HybridMemory hm_{cfg_, sim::MemoryMode::kFlat};
};

TEST_F(GeneratorTest, KvGenSchemaAndRanges)
{
    KvGen gen(1, 100, 1000);
    EXPECT_EQ(gen.cols(), 3u);
    EXPECT_EQ(gen.tsCol(), KvGen::kTsCol);
    auto b = columnar::BundleHandle::adopt(
        columnar::Bundle::create(hm_, gen.cols(), 1000));
    gen.fill(*b, 1000, 5000, 15000);
    for (uint32_t r = 0; r < b->size(); ++r) {
        EXPECT_LT(b->row(r)[KvGen::kKeyCol], 100u);
        EXPECT_LT(b->row(r)[KvGen::kValueCol], 1000u);
        EXPECT_GE(b->row(r)[KvGen::kTsCol], 5000u);
        EXPECT_LT(b->row(r)[KvGen::kTsCol], 15000u);
    }
    // Timestamps nondecreasing within the bundle (arrival order).
    for (uint32_t r = 1; r < b->size(); ++r)
        EXPECT_GE(b->row(r)[KvGen::kTsCol], b->row(r - 1)[KvGen::kTsCol]);
}

TEST_F(GeneratorTest, KvGenSecondaryKeyColumn)
{
    KvGen gen(2, 10, 10, /*secondary_key=*/true, 5);
    EXPECT_EQ(gen.cols(), 4u);
    auto b = columnar::BundleHandle::adopt(
        columnar::Bundle::create(hm_, gen.cols(), 100));
    gen.fill(*b, 100, 0, 100);
    for (uint32_t r = 0; r < b->size(); ++r)
        EXPECT_LT(b->row(r)[KvGen::kKey2Col], 5u);
}

TEST_F(GeneratorTest, KvGenDeterministicPerSeed)
{
    KvGen g1(42, 100, 100), g2(42, 100, 100), g3(43, 100, 100);
    auto b1 = columnar::BundleHandle::adopt(
        columnar::Bundle::create(hm_, 3, 100));
    auto b2 = columnar::BundleHandle::adopt(
        columnar::Bundle::create(hm_, 3, 100));
    auto b3 = columnar::BundleHandle::adopt(
        columnar::Bundle::create(hm_, 3, 100));
    g1.fill(*b1, 100, 0, 100);
    g2.fill(*b2, 100, 0, 100);
    g3.fill(*b3, 100, 0, 100);
    bool same12 = true, same13 = true;
    for (uint32_t r = 0; r < 100; ++r) {
        same12 &= b1->row(r)[0] == b2->row(r)[0];
        same13 &= b1->row(r)[0] == b3->row(r)[0];
    }
    EXPECT_TRUE(same12);
    EXPECT_FALSE(same13);
}

TEST_F(GeneratorTest, YsbSchemaMatchesBenchmark)
{
    YsbGen gen(7);
    EXPECT_EQ(gen.cols(), 7u);
    EXPECT_EQ(gen.tsCol(), YsbGen::kTsCol);
    auto b = columnar::BundleHandle::adopt(
        columnar::Bundle::create(hm_, 7, 3000));
    gen.fill(*b, 3000, 0, 3000);
    std::set<uint64_t> ads, types;
    for (uint32_t r = 0; r < b->size(); ++r) {
        ads.insert(b->row(r)[YsbGen::kAdCol]);
        types.insert(b->row(r)[YsbGen::kEventTypeCol]);
        EXPECT_LT(b->row(r)[YsbGen::kAdCol],
                  YsbGen::kCampaigns * YsbGen::kAdsPerCampaign);
    }
    EXPECT_EQ(types.size(), YsbGen::kEventTypes);
    EXPECT_GT(ads.size(), 500u) << "ad ids should cover most of the space";
}

TEST_F(GeneratorTest, YsbCampaignTableMapsAllAds)
{
    auto table = YsbGen::campaignTable();
    EXPECT_EQ(table->size(), YsbGen::kCampaigns * YsbGen::kAdsPerCampaign);
    for (uint64_t ad = 0; ad < 1000; ad += 97) {
        const uint64_t *camp = table->find(ad);
        ASSERT_NE(camp, nullptr);
        EXPECT_EQ(*camp, ad / YsbGen::kAdsPerCampaign);
        EXPECT_LT(*camp, YsbGen::kCampaigns);
    }
}

TEST_F(GeneratorTest, PowerGridPlugsBelongToHouses)
{
    PowerGridGen gen(5, /*houses=*/10, /*plugs_per_house=*/20);
    auto b = columnar::BundleHandle::adopt(
        columnar::Bundle::create(hm_, 4, 5000));
    gen.fill(*b, 5000, 0, 5000);
    for (uint32_t r = 0; r < b->size(); ++r) {
        const uint64_t plug = b->row(r)[PowerGridGen::kPlugCol];
        const uint64_t house = b->row(r)[PowerGridGen::kHouseCol];
        EXPECT_LT(plug, 200u);
        EXPECT_EQ(house, plug / 20);
    }
}

TEST_F(GeneratorTest, PowerGridLoadsAreStablePerPlug)
{
    // The same plug's load varies by at most the noise band (20), so
    // per-plug averages are meaningful.
    PowerGridGen gen(6, 5, 10);
    auto b = columnar::BundleHandle::adopt(
        columnar::Bundle::create(hm_, 4, 20000));
    gen.fill(*b, 20000, 0, 20000);
    std::map<uint64_t, std::pair<uint64_t, uint64_t>> minmax;
    for (uint32_t r = 0; r < b->size(); ++r) {
        const uint64_t plug = b->row(r)[PowerGridGen::kPlugCol];
        const uint64_t load = b->row(r)[PowerGridGen::kLoadCol];
        auto it = minmax.find(plug);
        if (it == minmax.end()) {
            minmax[plug] = {load, load};
        } else {
            it->second.first = std::min(it->second.first, load);
            it->second.second = std::max(it->second.second, load);
        }
    }
    for (const auto &[plug, mm] : minmax)
        EXPECT_LE(mm.second - mm.first, 20u);
}

TEST_F(GeneratorTest, EveryTimestampEqualsTheEvenSpacingFormula)
{
    // fill() steps a quotient and remainder; each row must still read
    // t0 + (t1 - t0) * i / n exactly, the formula with a division.
    const uint32_t kCounts[] = {1, 2, 3, 7, 2000, 50000};
    const EventTime kStarts[] = {0, EventTime{1} << 40};
    KvGen kv(1, 100, 1000, /*secondary_key=*/true);
    YsbGen ysb(2);
    PowerGridGen grid(3);
    Generator *const gens[] = {&kv, &ysb, &grid};
    for (const uint32_t n : kCounts) {
        const uint64_t spans[] = {0, 1, n - 1u, n, n + 1u, 1000000007};
        for (const uint64_t span : spans) {
            for (const EventTime t0 : kStarts) {
                for (Generator *gen : gens) {
                    auto b = columnar::BundleHandle::adopt(
                        columnar::Bundle::create(hm_, gen->cols(), n));
                    gen->fill(*b, n, t0, t0 + span);
                    ASSERT_EQ(b->size(), n);
                    for (uint32_t i = 0; i < n; ++i) {
                        ASSERT_EQ(b->row(i)[gen->tsCol()],
                                  t0 + span * i / n)
                            << "n " << n << " span " << span << " t0 "
                            << t0 << " row " << i;
                    }
                }
            }
        }
    }
}

TEST_F(GeneratorTest, SkipRecordsLeavesTheStateAFillWould)
{
    // Recovery fast-forwards a restored source with skipRecords(n).
    // The next fill(m) must then reproduce, column for column, the
    // last m rows of one fill(n + m) — timestamps aside, since every
    // fill spreads its own range. A wrong draw count would shift
    // every later record of a recovered session.
    constexpr uint32_t kSkip = 1'237, kTail = 503;
    auto check = [this](Generator &whole, Generator &skipped,
                        const char *what) {
        ASSERT_EQ(whole.cols(), skipped.cols()) << what;
        auto full = columnar::BundleHandle::adopt(
            columnar::Bundle::create(hm_, whole.cols(), kSkip + kTail));
        whole.fill(*full, kSkip + kTail, 0, kSkip + kTail);
        skipped.skipRecords(kSkip);
        auto tail = columnar::BundleHandle::adopt(
            columnar::Bundle::create(hm_, skipped.cols(), kTail));
        skipped.fill(*tail, kTail, 0, kTail);
        for (uint32_t r = 0; r < kTail; ++r) {
            for (uint32_t c = 0; c < whole.cols(); ++c) {
                if (c == whole.tsCol())
                    continue;
                ASSERT_EQ(tail->row(r)[c], full->row(kSkip + r)[c])
                    << what << " row " << r << " col " << c;
            }
        }
    };
    {
        KvGen whole(3, 100, 1000), skipped(3, 100, 1000);
        check(whole, skipped, "KvGen");
    }
    {
        KvGen whole(4, 100, 1000, /*secondary_key=*/true, 7);
        KvGen skipped(4, 100, 1000, /*secondary_key=*/true, 7);
        check(whole, skipped, "KvGen with a secondary key");
    }
    {
        YsbGen whole(5), skipped(5);
        check(whole, skipped, "YsbGen");
    }
    {
        PowerGridGen whole(6), skipped(6);
        check(whole, skipped, "PowerGridGen");
    }
}

} // namespace
} // namespace sbhbm::ingest
