/**
 * @file
 * Golden tests pinning the simulated cost of the grouping primitives.
 *
 * The host-side kernels behind sortKpa / partitionByRange / join were
 * rewritten for wall-clock speed; the figures of the paper are
 * computed from the *simulated* CostLog totals, so those totals must
 * not move. Every expected value below is the hand-computed charge of
 * the original (pre-rewrite) implementation; a failure here means a
 * kernel change silently altered the reproduced figures.
 */

#include "kpa/primitives.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "sim/machine_config.h"

namespace sbhbm::kpa {
namespace {

using mem::Tier;
using sim::CostLog;

class CostInvarianceTest : public ::testing::Test
{
  protected:
    sim::MachineConfig cfg_ = sim::MachineConfig::knl();
    mem::HybridMemory hm_{cfg_, sim::MemoryMode::kFlat};
    CostLog log_;
    Placement hbm_{Tier::kHbm, false};

    Ctx ctx() { return Ctx{hm_, log_}; }

    /** Bundle of (key, value, ts) rows with random keys. */
    BundleHandle
    makeKvBundle(uint32_t rows, uint64_t seed, uint64_t key_range = 50)
    {
        Rng rng(seed);
        BundleHandle b = BundleHandle::adopt(
            Bundle::create(hm_, 3, std::max<uint32_t>(rows, 1)));
        for (uint32_t r = 0; r < rows; ++r) {
            uint64_t *row = b->appendRaw();
            row[0] = rng.nextBounded(key_range);
            row[1] = rng.nextBounded(1000);
            row[2] = 1000 + r; // ts (increasing)
        }
        return b;
    }
};

TEST_F(CostInvarianceTest, SortChargesGoldenTotals)
{
    BundleHandle b = makeKvBundle(4096, 1);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    CostLog sort_log;
    sortKpa(Ctx{hm_, sort_log}, *k);
    // 4096 entries: (1 block pass + 6 merge levels) * 48 B/elem on HBM.
    EXPECT_EQ(sort_log.bytesOn(Tier::kHbm), 1376256u);
    EXPECT_EQ(sort_log.bytesOn(Tier::kDram), 0u);
    // 21 stages * 0.8 ns * 4096 + 2.5 ns * 4096 * 6 levels.
    EXPECT_NEAR(sort_log.totalCpuNs(), 130252.8, 0.01);
}

TEST_F(CostInvarianceTest, PartitionChargesGoldenTotals)
{
    BundleHandle b = makeKvBundle(900, 2);
    KpaPtr k = extract(ctx(), *b, 2, hbm_); // ts 1000..1899
    CostLog part_log;
    auto parts = partitionByRange(Ctx{hm_, part_log}, *k, 300, hbm_);
    // Width 300 over ts 1000..1899: ranges 3..6, sizes 200/300/300/100.
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0].range, 3u);
    EXPECT_EQ(parts[0].part->size(), 200u);
    EXPECT_EQ(parts[1].range, 4u);
    EXPECT_EQ(parts[1].part->size(), 300u);
    EXPECT_EQ(parts[2].range, 5u);
    EXPECT_EQ(parts[2].part->size(), 300u);
    EXPECT_EQ(parts[3].range, 6u);
    EXPECT_EQ(parts[3].part->size(), 100u);
    // Source scan 900 * 16 B + identical bytes across the partitions.
    EXPECT_EQ(part_log.bytesOn(Tier::kHbm), 28800u);
    EXPECT_EQ(part_log.bytesOn(Tier::kDram), 0u);
    // kPartitionNsPerRec (120) * 900 records.
    EXPECT_DOUBLE_EQ(part_log.totalCpuNs(), 108000.0);
}

TEST_F(CostInvarianceTest, PartitionPathsChargeIdentically)
{
    // Ascending ts must charge the same whether the sorted flag proves
    // the order or the order check finds it.
    BundleHandle b = makeKvBundle(900, 3);
    KpaPtr k = extract(ctx(), *b, 2, hbm_);
    CostLog unsorted_log;
    auto unsorted = partitionByRange(Ctx{hm_, unsorted_log}, *k, 300,
                                     hbm_);
    k->setSorted(true); // ts really is ascending
    CostLog sorted_log;
    auto sorted = partitionByRange(Ctx{hm_, sorted_log}, *k, 300, hbm_);
    EXPECT_EQ(unsorted_log.bytesOn(Tier::kHbm),
              sorted_log.bytesOn(Tier::kHbm));
    EXPECT_EQ(unsorted_log.bytesOn(Tier::kDram),
              sorted_log.bytesOn(Tier::kDram));
    EXPECT_DOUBLE_EQ(unsorted_log.totalCpuNs(), sorted_log.totalCpuNs());
}

TEST_F(CostInvarianceTest, JoinChargesGoldenTotals)
{
    // Left keys 0..9, right keys 5..14, 3-column records: 5 matches.
    BundleHandle lb = BundleHandle::adopt(Bundle::create(hm_, 3, 10));
    BundleHandle rb = BundleHandle::adopt(Bundle::create(hm_, 3, 10));
    for (uint64_t i = 0; i < 10; ++i) {
        lb->append({i, 100 + i, 1});
        rb->append({i + 5, 200 + i + 5, 2});
    }
    KpaPtr lk = extract(ctx(), *lb, 0, hbm_);
    KpaPtr rk = extract(ctx(), *rb, 0, hbm_);
    sortKpa(ctx(), *lk);
    sortKpa(ctx(), *rk);
    CostLog join_log;
    BundleHandle out = join(Ctx{hm_, join_log}, *lk, *rk, {1}, {1});
    ASSERT_EQ(out->size(), 5u);
    // Both KPAs scanned sequentially on HBM: 2 * 10 * 16 B.
    EXPECT_EQ(join_log.bytesOn(Tier::kHbm), 320u);
    // DRAM: 5 matches * 64 B line * 2 sides random + 5 * 3 * 8 B out.
    EXPECT_EQ(join_log.bytesOn(Tier::kDram), 640u + 120u);
    // kMergeNsPerElem (2.5) * 20 scanned + kEmitNsPerRec (50) * 5.
    EXPECT_DOUBLE_EQ(join_log.totalCpuNs(), 300.0);
}

TEST_F(CostInvarianceTest, JoinEmitsMatchesInMergeOrder)
{
    // The streamed emit must keep the original x-outer / y-inner
    // match order of the buffered implementation.
    BundleHandle lb = BundleHandle::adopt(Bundle::create(hm_, 2, 3));
    BundleHandle rb = BundleHandle::adopt(Bundle::create(hm_, 2, 2));
    lb->append({7, 1});
    lb->append({7, 2});
    lb->append({8, 3});
    rb->append({7, 10});
    rb->append({7, 20});
    KpaPtr lk = extract(ctx(), *lb, 0, hbm_);
    KpaPtr rk = extract(ctx(), *rb, 0, hbm_);
    sortKpa(ctx(), *lk);
    sortKpa(ctx(), *rk);
    BundleHandle out = join(ctx(), *lk, *rk, {1}, {1});
    ASSERT_EQ(out->size(), 4u);
    const uint64_t expect[4][3] = {
        {7, 1, 10}, {7, 1, 20}, {7, 2, 10}, {7, 2, 20}};
    for (uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(out->row(i)[0], expect[i][0]) << i;
        EXPECT_EQ(out->row(i)[1], expect[i][1]) << i;
        EXPECT_EQ(out->row(i)[2], expect[i][2]) << i;
    }

    // A 17 x 17 run is longer than kPrefetchAhead on both sides, so
    // the in-run prefetches run too; the order stays x outer, y inner.
    constexpr uint32_t kRun = detail::kPrefetchAhead + 1;
    BundleHandle lw = BundleHandle::adopt(Bundle::create(hm_, 2, kRun));
    BundleHandle rw = BundleHandle::adopt(Bundle::create(hm_, 2, kRun));
    for (uint64_t v = 0; v < kRun; ++v) {
        lw->append({7, 100 + v});
        rw->append({7, 200 + v});
    }
    KpaPtr lwk = extract(ctx(), *lw, 0, hbm_);
    KpaPtr rwk = extract(ctx(), *rw, 0, hbm_);
    sortKpa(ctx(), *lwk);
    sortKpa(ctx(), *rwk);
    BundleHandle wide = join(ctx(), *lwk, *rwk, {1}, {1});
    ASSERT_EQ(wide->size(), kRun * kRun);
    for (uint32_t x = 0; x < kRun; ++x) {
        for (uint32_t y = 0; y < kRun; ++y) {
            const uint64_t *row = wide->row(x * kRun + y);
            EXPECT_EQ(row[0], 7u) << x << "," << y;
            EXPECT_EQ(row[1], 100 + x) << x << "," << y;
            EXPECT_EQ(row[2], 200 + y) << x << "," << y;
        }
    }
}

TEST_F(CostInvarianceTest, MaterializeChargesGoldenTotals)
{
    BundleHandle b = makeKvBundle(1000, 4);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    sortKpa(ctx(), *k);
    CostLog mat_log;
    BundleHandle out = materialize(Ctx{hm_, mat_log}, *k);
    ASSERT_EQ(out->size(), 1000u);
    // KPA scan: 1000 * 16 B on HBM.
    EXPECT_EQ(mat_log.bytesOn(Tier::kHbm), 16000u);
    // DRAM: 1000 random 64 B row touches + 1000 * 3 * 8 B written out.
    EXPECT_EQ(mat_log.bytesOn(Tier::kDram), 64000u + 24000u);
    // kSwapNsPerRec (120) * 1000.
    EXPECT_DOUBLE_EQ(mat_log.totalCpuNs(), 120000.0);
}

TEST_F(CostInvarianceTest, KeySwapChargesGoldenTotals)
{
    BundleHandle b = makeKvBundle(1000, 5);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    CostLog swap_log;
    keySwap(Ctx{hm_, swap_log}, *k, 1);
    // 1000 random 64 B row touches on DRAM; KPA rewritten on HBM.
    EXPECT_EQ(swap_log.bytesOn(Tier::kDram), 64000u);
    EXPECT_EQ(swap_log.bytesOn(Tier::kHbm), 16000u);
    // kSwapNsPerRec (120) * 1000.
    EXPECT_DOUBLE_EQ(swap_log.totalCpuNs(), 120000.0);
}

TEST_F(CostInvarianceTest, FusedWriteBackAndSwapMatchesTwoCalls)
{
    // writeBackKeys(col, swap_col) must leave rows, entries and KPA
    // flags as writeBackKeys(col) then keySwap(swap_col) leave them,
    // and charge every phase identically, flow by flow in order.
    struct Case
    {
        const char *what;
        uint32_t rows;
        ColumnId wb, swap;
        double group_scale;
    };
    const Case cases[] = {
        {"write back 1, swap 2", 500, 1, 2, 1.0},
        {"write back 2, swap 0", 500, 2, 0, 1.0},
        {"equal columns", 500, 1, 1, 1.0},
        {"empty KPA", 0, 1, 2, 1.0},
        {"one entry", 1, 1, 2, 1.0},
        {"grouping full records", 500, 1, 2, 3.0},
    };
    for (const Case &c : cases) {
        // Identical bundles and KPAs: extracted, key-sorted (so rows
        // are visited out of order), rewritten off every column and
        // flagged sorted, which a swap must clear.
        BundleHandle ba = makeKvBundle(c.rows, 9);
        BundleHandle bb = makeKvBundle(c.rows, 9);
        ASSERT_EQ(ba->size(), c.rows) << c.what;
        KpaPtr ka = extract(ctx(), *ba, 0, hbm_);
        KpaPtr kb = extract(ctx(), *bb, 0, hbm_);
        algo::HashTable<uint64_t> rewrite(50); // every key in [0, 50)
        for (uint64_t key = 0; key < 50; ++key)
            rewrite.findOrInsert(key) = key * 31 + 5;
        for (Kpa *k : {ka.get(), kb.get()}) {
            sortKpa(ctx(), *k);
            updateKeysViaTable(ctx(), *k, rewrite);
            k->setSorted(true);
        }

        CostLog two_log, fused_log;
        Ctx two{hm_, two_log};
        Ctx fused{hm_, fused_log};
        two.group_scale = fused.group_scale = c.group_scale;
        writeBackKeys(two, *ka, c.wb);
        keySwap(two, *ka, c.swap);
        writeBackKeys(fused, *kb, c.wb, c.swap);

        for (uint32_t r = 0; r < c.rows; ++r)
            for (uint32_t col = 0; col < 3; ++col)
                ASSERT_EQ(ba->row(r)[col], bb->row(r)[col])
                    << c.what << " row " << r << " col " << col;
        ASSERT_EQ(ka->size(), kb->size()) << c.what;
        for (uint32_t i = 0; i < ka->size(); ++i) {
            ASSERT_EQ(ka->at(i).key, kb->at(i).key) << c.what << " " << i;
            ASSERT_EQ(ka->at(i).row - ba->data(), kb->at(i).row - bb->data())
                << c.what << " " << i;
        }
        EXPECT_EQ(ka->residentColumn(), kb->residentColumn()) << c.what;
        EXPECT_EQ(ka->sorted(), kb->sorted()) << c.what;

        ASSERT_EQ(two_log.phases().size(), fused_log.phases().size())
            << c.what;
        for (size_t p = 0; p < two_log.phases().size(); ++p) {
            const sim::Phase &x = two_log.phases()[p];
            const sim::Phase &y = fused_log.phases()[p];
            EXPECT_EQ(x.cpu_ns, y.cpu_ns) << c.what << " phase " << p;
            EXPECT_EQ(x.cpu_vector_ns, y.cpu_vector_ns)
                << c.what << " phase " << p;
            ASSERT_EQ(x.flows.size(), y.flows.size())
                << c.what << " phase " << p;
            for (size_t f = 0; f < x.flows.size(); ++f) {
                EXPECT_EQ(x.flows[f].tier, y.flows[f].tier)
                    << c.what << " flow " << f;
                EXPECT_EQ(x.flows[f].pattern, y.flows[f].pattern)
                    << c.what << " flow " << f;
                EXPECT_EQ(x.flows[f].bytes, y.flows[f].bytes)
                    << c.what << " flow " << f;
            }
        }
        EXPECT_EQ(fused_log.totalBytes() > 0, c.rows > 0) << c.what;
    }
}

} // namespace
} // namespace sbhbm::kpa
