#include "kpa/primitives.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "ingest/generator.h"
#include "sim/machine_config.h"

namespace sbhbm::kpa {
namespace {

using mem::Tier;
using sim::CostLog;

class PrimitivesTest : public ::testing::Test
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
        BundleHandle b =
            BundleHandle::adopt(Bundle::create(hm_, 3, rows));
        for (uint32_t r = 0; r < rows; ++r) {
            uint64_t *row = b->appendRaw();
            row[0] = rng.nextBounded(key_range); // key
            row[1] = rng.nextBounded(1000);      // value
            row[2] = 1000 + r;                   // ts (increasing)
        }
        return b;
    }

    static void
    expectSamePartitions(const std::vector<RangePartition> &a,
                         const std::vector<RangePartition> &b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (size_t p = 0; p < a.size(); ++p) {
            EXPECT_EQ(a[p].range, b[p].range) << "partition " << p;
            ASSERT_EQ(a[p].part->size(), b[p].part->size())
                << "partition " << p;
            for (uint32_t i = 0; i < a[p].part->size(); ++i) {
                ASSERT_EQ(a[p].part->at(i).key, b[p].part->at(i).key)
                    << "partition " << p << " entry " << i;
                ASSERT_EQ(a[p].part->at(i).row, b[p].part->at(i).row)
                    << "partition " << p << " entry " << i;
            }
        }
    }
};

TEST_F(PrimitivesTest, ExtractCopiesKeysAndPointers)
{
    BundleHandle b = makeKvBundle(100, 1);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    ASSERT_EQ(k->size(), 100u);
    EXPECT_EQ(k->residentColumn(), 0u);
    EXPECT_EQ(k->tier(), Tier::kHbm);
    for (uint32_t i = 0; i < k->size(); ++i) {
        EXPECT_EQ(k->at(i).key, b->row(i)[0]);
        EXPECT_EQ(k->at(i).row, b->row(i));
    }
    // Source link registered.
    ASSERT_EQ(k->sources().size(), 1u);
    EXPECT_EQ(b->refcount(), 2u);
}

TEST_F(PrimitivesTest, ExtractChargesBundleReadAndKpaWrite)
{
    BundleHandle b = makeKvBundle(1000, 2);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    // Bundle: 1000 * 3 * 8 = 24000 B seq on DRAM; KPA: 16000 B on HBM.
    EXPECT_EQ(log_.bytesOn(sim::Tier::kDram), 24000u);
    EXPECT_EQ(log_.bytesOn(sim::Tier::kHbm), 16000u);
    EXPECT_GT(log_.totalCpuNs(), 0.0);
}

TEST_F(PrimitivesTest, KeySwapLoadsNonresidentColumn)
{
    BundleHandle b = makeKvBundle(50, 3);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    keySwap(ctx(), *k, 2);
    EXPECT_EQ(k->residentColumn(), 2u);
    for (uint32_t i = 0; i < k->size(); ++i)
        EXPECT_EQ(k->at(i).key, b->row(i)[2]);
    // Swapping to the same column is a no-op.
    CostLog before = log_;
    keySwap(ctx(), *k, 2);
    EXPECT_EQ(log_.totalBytes(), before.totalBytes());
}

TEST_F(PrimitivesTest, KeySwapChargesRandomRecordReads)
{
    BundleHandle b = makeKvBundle(100, 4);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    CostLog swap_log;
    keySwap(Ctx{hm_, swap_log}, *k, 1);
    // 100 random line touches on DRAM.
    uint64_t rand_bytes = 0;
    for (const auto &p : swap_log.phases())
        for (const auto &f : p.flows)
            if (f.pattern == sim::AccessPattern::kRandom)
                rand_bytes += f.bytes;
    EXPECT_EQ(rand_bytes, 100u * 64);
}

TEST_F(PrimitivesTest, SortOrdersByResidentKey)
{
    BundleHandle b = makeKvBundle(10000, 5);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    sortKpa(ctx(), *k);
    EXPECT_TRUE(k->sorted());
    EXPECT_TRUE(algo::isSortedByKey(k->entries(), k->size()));
    // Pointers still point at real records whose key column matches.
    for (uint32_t i = 0; i < k->size(); ++i)
        EXPECT_EQ(k->at(i).key, k->at(i).row[0]);
}

TEST_F(PrimitivesTest, SortOnSortedKpaIsFree)
{
    BundleHandle b = makeKvBundle(100, 6);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    sortKpa(ctx(), *k);
    CostLog second;
    sortKpa(Ctx{hm_, second}, *k);
    EXPECT_TRUE(second.empty());
}

TEST_F(PrimitivesTest, SortChargesOnePassPerMergeLevel)
{
    BundleHandle b = makeKvBundle(4096, 7);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    CostLog sort_log;
    sortKpa(Ctx{hm_, sort_log}, *k);
    // 4096 entries: 1 block pass + 6 merge levels, 48 B/elem each
    // (stream in + write-allocate out).
    const uint64_t expect =
        (1 + 6) * sim::cost::kSortBytesPerElemLevel * 4096ull;
    EXPECT_EQ(sort_log.bytesOn(sim::Tier::kHbm), expect);
}

TEST_F(PrimitivesTest, MergeCombinesSortedKpas)
{
    BundleHandle b1 = makeKvBundle(500, 8);
    BundleHandle b2 = makeKvBundle(700, 9);
    KpaPtr k1 = extract(ctx(), *b1, 0, hbm_);
    KpaPtr k2 = extract(ctx(), *b2, 0, hbm_);
    sortKpa(ctx(), *k1);
    sortKpa(ctx(), *k2);
    KpaPtr m = merge(ctx(), *k1, *k2, hbm_);
    ASSERT_EQ(m->size(), 1200u);
    EXPECT_TRUE(m->sorted());
    EXPECT_TRUE(algo::isSortedByKey(m->entries(), m->size()));
    EXPECT_EQ(m->residentColumn(), 0u);
    // Merged KPA references both source bundles.
    EXPECT_EQ(m->sources().size(), 2u);
}

TEST_F(PrimitivesTest, MergeRequiresSortedInputs)
{
    BundleHandle b1 = makeKvBundle(10, 10);
    BundleHandle b2 = makeKvBundle(10, 11);
    KpaPtr k1 = extract(ctx(), *b1, 0, hbm_);
    KpaPtr k2 = extract(ctx(), *b2, 0, hbm_);
    EXPECT_DEATH((void)merge(ctx(), *k1, *k2, hbm_), "sorted");
}

TEST_F(PrimitivesTest, MaterializeEmitsRecordsInKpaOrder)
{
    BundleHandle b = makeKvBundle(200, 12);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    sortKpa(ctx(), *k);
    BundleHandle out = materialize(ctx(), *k);
    ASSERT_EQ(out->size(), 200u);
    EXPECT_EQ(out->cols(), 3u);
    for (uint32_t i = 0; i < out->size(); ++i) {
        EXPECT_EQ(out->row(i)[0], k->at(i).key);
        // Full rows copied.
        EXPECT_EQ(out->row(i)[1], k->at(i).row[1]);
    }
}

TEST_F(PrimitivesTest, SelectFromBundleKeepsSurvivors)
{
    BundleHandle b = makeKvBundle(1000, 13);
    // Keep records with even keys.
    KpaPtr k = selectFromBundle(
        ctx(), *b, 0, [](const uint64_t *row) { return row[0] % 2 == 0; },
        hbm_);
    uint32_t expect = 0;
    for (uint32_t r = 0; r < b->size(); ++r)
        if (b->row(r)[0] % 2 == 0)
            ++expect;
    EXPECT_EQ(k->size(), expect);
    for (uint32_t i = 0; i < k->size(); ++i)
        EXPECT_EQ(k->at(i).key % 2, 0u);
}

TEST_F(PrimitivesTest, SelectFromBundleOnEmptyBundleYieldsUsableKpa)
{
    // A sealed-but-empty bundle must select into an empty KPA whose
    // capacity is clamped to 1 (harmonized with selectFromKpa).
    BundleHandle b = BundleHandle::adopt(Bundle::create(hm_, 3, 8));
    KpaPtr k = selectFromBundle(
        ctx(), *b, 0, [](const uint64_t *) { return true; }, hbm_);
    EXPECT_EQ(k->size(), 0u);
    EXPECT_GE(k->capacity(), 1u);
    EXPECT_TRUE(k->empty());
    // The clamped capacity keeps the KPA usable for later appends.
    uint64_t row[3] = {1, 2, 3};
    k->push(7, row);
    EXPECT_EQ(k->size(), 1u);
}

TEST_F(PrimitivesTest, SelectFromBundleMatchesBranchyReference)
{
    // The branch-free select must keep exactly what a branchy loop
    // keeps, entry by entry and in row order, with the same metadata.
    auto expectMatches = [this](Bundle &b, ColumnId key_col, auto pred,
                                const char *what) {
        std::vector<KpEntry> want;
        for (uint32_t r = 0; r < b.size(); ++r)
            if (pred(b.row(r)))
                want.push_back(KpEntry{b.row(r)[key_col], b.row(r)});
        KpaPtr k = selectFromBundle(ctx(), b, key_col, pred, hbm_);
        ASSERT_EQ(k->size(), want.size()) << what;
        EXPECT_GE(k->capacity(), 1u) << what;
        EXPECT_EQ(k->residentColumn(), key_col) << what;
        EXPECT_EQ(k->sorted(), want.size() <= 1) << what;
        ASSERT_EQ(k->sources().size(), 1u) << what;
        EXPECT_EQ(k->sources().front().get(), &b) << what;
        for (uint32_t i = 0; i < k->size(); ++i) {
            ASSERT_EQ(k->at(i).key, want[i].key) << what << " entry " << i;
            ASSERT_EQ(k->at(i).row, want[i].row) << what << " entry " << i;
        }
    };

    // Rows (key, keep flag, ts); the predicate keeps flag 1.
    auto flagged = [this](const std::vector<uint64_t> &keep) {
        const auto rows = static_cast<uint32_t>(keep.size());
        BundleHandle b =
            BundleHandle::adopt(Bundle::create(hm_, 3, rows + 1));
        for (uint32_t r = 0; r < rows; ++r)
            b->append({uint64_t{r} * 7 + 3, keep[r], 1000 + uint64_t{r}});
        return b;
    };
    auto kept = [](const uint64_t *row) { return row[1] == 1; };

    std::vector<uint64_t> mixed(33);
    Rng rng(29);
    for (uint64_t &f : mixed)
        f = rng.nextBounded(2);
    std::vector<uint64_t> alternating(64);
    for (size_t r = 0; r < alternating.size(); ++r)
        alternating[r] = r % 2;
    std::vector<uint64_t> last_kept = mixed, last_dropped = mixed;
    last_kept.back() = 1;
    last_dropped.back() = 0;

    const struct
    {
        const char *what;
        std::vector<uint64_t> keep;
    } cases[] = {
        {"empty", {}},
        {"one row kept", {1}},
        {"one row dropped", {0}},
        {"all kept", std::vector<uint64_t>(100, 1)},
        {"none kept", std::vector<uint64_t>(100, 0)},
        {"alternating", alternating},
        {"last kept", last_kept},
        {"last dropped", last_dropped},
    };
    for (const auto &c : cases) {
        BundleHandle b = flagged(c.keep);
        expectMatches(*b, 0, kept, c.what);
    }

    // A YSB bundle filtered on view events, keyed on the ad column.
    using ingest::YsbGen;
    constexpr uint32_t kRows = 50'000;
    BundleHandle ysb = BundleHandle::adopt(Bundle::create(hm_, 7, kRows));
    YsbGen gen(7);
    gen.fill(*ysb, kRows, 0, kNsPerSec);
    expectMatches(
        *ysb, YsbGen::kAdCol,
        [](const uint64_t *row) {
            return row[YsbGen::kEventTypeCol] == YsbGen::kViewEvent;
        },
        "ysb views");
}

TEST_F(PrimitivesTest, SelectFromKpaOnEmptyKpaYieldsUsableKpa)
{
    BundleHandle b = BundleHandle::adopt(Bundle::create(hm_, 3, 8));
    KpaPtr empty = selectFromBundle(
        ctx(), *b, 0, [](const uint64_t *) { return false; }, hbm_);
    ASSERT_EQ(empty->size(), 0u);
    KpaPtr k = selectFromKpa(
        ctx(), *empty, [](uint64_t) { return true; }, hbm_);
    EXPECT_EQ(k->size(), 0u);
    EXPECT_GE(k->capacity(), 1u);
}

TEST_F(PrimitivesTest, SelectFromKpaFiltersOnResidentKey)
{
    BundleHandle b = makeKvBundle(1000, 14);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    KpaPtr f = selectFromKpa(
        ctx(), *k, [](uint64_t key) { return key < 10; }, hbm_);
    for (uint32_t i = 0; i < f->size(); ++i)
        EXPECT_LT(f->at(i).key, 10u);
    EXPECT_EQ(f->sources().size(), 1u);
}

TEST_F(PrimitivesTest, PartitionByRangeSplitsWindows)
{
    BundleHandle b = makeKvBundle(900, 15);
    // ts column runs 1000..1899; partition by width 300 => ranges 3,4,5,6.
    KpaPtr k = extract(ctx(), *b, 2, hbm_);
    auto parts = partitionByRange(ctx(), *k, 300, hbm_);
    ASSERT_EQ(parts.size(), 4u);
    uint32_t total = 0;
    for (const auto &rp : parts) {
        for (uint32_t i = 0; i < rp.part->size(); ++i)
            EXPECT_EQ(rp.part->at(i).key / 300, rp.range);
        total += rp.part->size();
        EXPECT_EQ(rp.part->sources().size(), 1u);
    }
    EXPECT_EQ(total, 900u);
}

TEST_F(PrimitivesTest, JoinMatchesKeysAcrossKpas)
{
    // Left: keys 0..9 with value 100+key; right: keys 5..14, value
    // 200+key. Expect matches on 5..9.
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
    BundleHandle out = join(ctx(), *lk, *rk, {1}, {1});
    ASSERT_EQ(out->size(), 5u);
    EXPECT_EQ(out->cols(), 3u);
    std::set<uint64_t> keys;
    for (uint32_t i = 0; i < out->size(); ++i) {
        const uint64_t *row = out->row(i);
        keys.insert(row[0]);
        EXPECT_EQ(row[1], 100 + row[0]); // left payload
        EXPECT_EQ(row[2], 200 + row[0]); // right payload
    }
    EXPECT_EQ(keys, (std::set<uint64_t>{5, 6, 7, 8, 9}));
}

TEST_F(PrimitivesTest, JoinProducesCrossProductOnDuplicates)
{
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
    EXPECT_EQ(out->size(), 4u); // 2 x 2 on key 7
}

TEST_F(PrimitivesTest, JoinHandlesNonContiguousPayloadColumns)
{
    // Payload columns out of order / with gaps exercise the
    // per-column emit path (the memcpy fast path needs a c, c+1 run).
    BundleHandle lb = BundleHandle::adopt(Bundle::create(hm_, 4, 4));
    BundleHandle rb = BundleHandle::adopt(Bundle::create(hm_, 4, 4));
    for (uint64_t i = 0; i < 4; ++i) {
        lb->append({i, 10 + i, 20 + i, 30 + i});
        rb->append({i, 40 + i, 50 + i, 60 + i});
    }
    KpaPtr lk = extract(ctx(), *lb, 0, hbm_);
    KpaPtr rk = extract(ctx(), *rb, 0, hbm_);
    sortKpa(ctx(), *lk);
    sortKpa(ctx(), *rk);
    // Left: cols {3, 1} (descending, non-contiguous); right: {1, 2}.
    BundleHandle out = join(ctx(), *lk, *rk, {3, 1}, {1, 2});
    ASSERT_EQ(out->size(), 4u);
    ASSERT_EQ(out->cols(), 5u);
    for (uint32_t i = 0; i < out->size(); ++i) {
        const uint64_t *row = out->row(i);
        const uint64_t key = row[0];
        EXPECT_EQ(row[1], 30 + key); // left col 3
        EXPECT_EQ(row[2], 10 + key); // left col 1
        EXPECT_EQ(row[3], 40 + key); // right col 1
        EXPECT_EQ(row[4], 50 + key); // right col 2
    }
}

TEST_F(PrimitivesTest, JoinMatchesNestedLoopReference)
{
    // The reference visits left entries in sorted order and, for each,
    // every right entry with its key: key runs ascending, x outer and y
    // inner, which is the order join emits. Payloads are random, so a
    // row read through the wrong entry cannot match by accident.
    constexpr uint32_t kCols = 8;
    Rng rng(29);
    auto sorted_kpa = [&](const std::vector<uint64_t> &keys) {
        BundleHandle b = BundleHandle::adopt(Bundle::create(
            hm_, kCols, std::max<uint32_t>(keys.size(), 1)));
        for (const uint64_t key : keys) {
            uint64_t *row = b->appendRaw();
            row[0] = key;
            for (uint32_t c = 1; c < kCols; ++c)
                row[c] = rng.next();
        }
        KpaPtr k = extract(ctx(), *b, 0, hbm_);
        sortKpa(ctx(), *k);
        return k;
    };
    auto check = [&](const char *what, const std::vector<uint64_t> &lkeys,
                     const std::vector<uint64_t> &rkeys,
                     const std::vector<ColumnId> &lc,
                     const std::vector<ColumnId> &rc) {
        SCOPED_TRACE(what);
        const KpaPtr l = sorted_kpa(lkeys);
        const KpaPtr r = sorted_kpa(rkeys);
        const auto out_cols =
            static_cast<uint32_t>(1 + lc.size() + rc.size());
        std::vector<uint64_t> want;
        const KpEntry *le = l->entries();
        const KpEntry *re = r->entries();
        for (uint32_t x = 0; x < l->size(); ++x) {
            for (uint32_t y = 0; y < r->size(); ++y) {
                if (le[x].key != re[y].key)
                    continue;
                want.push_back(le[x].key);
                for (const ColumnId c : lc)
                    want.push_back(le[x].row[c]);
                for (const ColumnId c : rc)
                    want.push_back(re[y].row[c]);
            }
        }
        const BundleHandle out = join(ctx(), *l, *r, lc, rc);
        ASSERT_EQ(out->cols(), out_cols);
        ASSERT_EQ(uint64_t{out->size()} * out_cols, want.size());
        EXPECT_EQ(out->capacity(), std::max<uint32_t>(out->size(), 1));
        for (uint32_t i = 0; i < out->size(); ++i)
            for (uint32_t c = 0; c < out_cols; ++c)
                ASSERT_EQ(out->row(i)[c], want[uint64_t{i} * out_cols + c])
                    << "row " << i << " col " << c;
    };
    auto random_keys = [&](uint32_t n, uint64_t range) {
        std::vector<uint64_t> keys(n);
        for (uint64_t &k : keys)
            k = rng.nextBounded(range);
        return keys;
    };
    auto with_run = [&](std::vector<uint64_t> keys, uint64_t key,
                        uint32_t len) {
        keys.insert(keys.end(), len, key);
        return keys;
    };
    std::vector<uint64_t> evens, odds, low, high;
    for (uint64_t k = 0; k < 200; ++k) {
        evens.push_back(2 * k);
        odds.push_back(2 * k + 1);
        low.push_back(k);
        high.push_back(1000 + k);
    }
    const uint32_t kLong = detail::kPrefetchAhead + 9;
    const std::vector<ColumnId> one{1};

    check("both empty", {}, {}, one, one);
    check("left empty", {}, random_keys(50, 10), one, one);
    check("right empty", random_keys(50, 10), {}, one, one);
    check("disjoint ranges", low, high, one, one);
    check("interleaved disjoint keys", evens, odds, one, one);
    check("all keys equal", std::vector<uint64_t>(30, 5),
          std::vector<uint64_t>(40, 5), one, one);
    check("1:1", random_keys(2000, 3000), random_keys(2000, 3000), one,
          one);
    check("1:100", random_keys(50, 5000), random_keys(5000, 5000), one,
          one);
    check("100:1", random_keys(5000, 5000), random_keys(50, 5000), one,
          one);
    check("long left run", with_run(random_keys(200, 100), 42, kLong),
          with_run(random_keys(200, 100), 42, 3), one, one);
    check("long right run", with_run(random_keys(200, 100), 42, 3),
          with_run(random_keys(200, 100), 42, kLong), one, one);
    check("long runs both sides",
          with_run(random_keys(200, 100), 42, kLong),
          with_run(random_keys(200, 100), 42, kLong), one, one);
    check("extreme keys", {0, 0, 1, UINT64_MAX - 1, UINT64_MAX, UINT64_MAX},
          {0, 2, UINT64_MAX, UINT64_MAX}, one, one);
    check("10 keys", random_keys(500, 10), random_keys(700, 10), one, one);
    check("10 k keys", random_keys(3000, 10000), random_keys(4000, 10000),
          one, one);
    check("1 M keys", random_keys(5000, 1000000),
          random_keys(5000, 1000000), one, one);

    // Payload shapes, on duplicate-heavy keys with runs on both sides
    // longer than kPrefetchAhead.
    const std::vector<uint64_t> dl = random_keys(300, 10);
    const std::vector<uint64_t> dr = random_keys(400, 10);
    check("left cols empty", dl, dr, {}, {2});
    check("right cols empty", dl, dr, {3}, {});
    check("both cols empty", dl, dr, {}, {});
    check("non-contiguous cols", dl, dr, {5, 2, 7}, {3, 1});
    check("contiguous 1 col", dl, dr, {4}, {7});
    check("contiguous 2 cols", dl, dr, {1, 2}, {6, 7});
    check("contiguous 3 cols", dl, dr, {1, 2, 3}, {5, 6, 7});
    check("contiguous 6 cols", dl, dr, {1, 2, 3, 4, 5, 6},
          {2, 3, 4, 5, 6, 7});
}

TEST_F(PrimitivesTest, PartitionSortedAndUnsortedPathsAgree)
{
    // Ascending ts partitions the same whether the sorted flag proves
    // the order or the order check finds it.
    BundleHandle b = makeKvBundle(900, 21);
    KpaPtr unsorted = extract(ctx(), *b, 2, hbm_); // ts ascending
    ASSERT_FALSE(unsorted->sorted());
    auto via_check = partitionByRange(ctx(), *unsorted, 300, hbm_);
    unsorted->setSorted(true); // ts really is ascending
    auto via_flag = partitionByRange(ctx(), *unsorted, 300, hbm_);
    expectSamePartitions(via_check, via_flag);
}

TEST_F(PrimitivesTest, PartitionPreservesArrivalOrderWithinRanges)
{
    // Keys out of order within each range, ranges never decreasing:
    // the order check must accept the input, and each partition keeps
    // its entries' input order (downstream sort relies on determinism).
    BundleHandle b = BundleHandle::adopt(Bundle::create(hm_, 3, 9));
    const uint64_t keys[9] = {5, 3, 9, 1, 17, 11, 25, 28, 22};
    for (uint64_t k : keys)
        b->append({k, 0, 0});
    KpaPtr kpa = extract(ctx(), *b, 0, hbm_);
    ASSERT_FALSE(kpa->sorted());
    auto parts = partitionByRange(ctx(), *kpa, 10, hbm_);
    ASSERT_EQ(parts.size(), 3u);
    const std::vector<std::vector<uint64_t>> expect = {
        {5, 3, 9, 1}, {17, 11}, {25, 28, 22}};
    uint32_t row = 0;
    for (size_t p = 0; p < parts.size(); ++p) {
        EXPECT_EQ(parts[p].range, p);
        ASSERT_EQ(parts[p].part->size(), expect[p].size());
        for (uint32_t i = 0; i < parts[p].part->size(); ++i, ++row) {
            EXPECT_EQ(parts[p].part->at(i).key, expect[p][i]);
            EXPECT_EQ(parts[p].part->at(i).row, b->row(row));
        }
    }
}

TEST_F(PrimitivesTest, PartitionRejectsRangesThatStepBack)
{
    // One late entry mid-KPA steps back from range 4 to range 3: the
    // order check must abort rather than emit a split range.
    BundleHandle late = makeKvBundle(900, 21);
    late->row(450)[2] = 1050; // ts 1450 (range 4) -> range 3
    KpaPtr k = extract(ctx(), *late, 2, hbm_);
    ASSERT_FALSE(k->sorted());
    EXPECT_DEATH((void)partitionByRange(ctx(), *k, 300, hbm_),
                 "never decrease");

    // A step back out of the key space's top, partial range: with
    // width 10 that range's keys end at UINT64_MAX, six keys in, so
    // key 3 lies below it even though key - lower bound wraps to
    // less than the width.
    constexpr uint64_t kMax = ~uint64_t{0};
    BundleHandle top = BundleHandle::adopt(Bundle::create(hm_, 3, 2));
    top->append({kMax - 5, 0, 0});
    top->append({3, 0, 0});
    KpaPtr kt = extract(ctx(), *top, 0, hbm_);
    EXPECT_DEATH((void)partitionByRange(ctx(), *kt, 10, hbm_),
                 "never decrease");
}

TEST_F(PrimitivesTest, PartitionHandlesFullKeyspaceExtremes)
{
    // Keys 0 and UINT64_MAX with width 1: the ranges cover the whole
    // 64-bit space, and each key still gets its own partition.
    BundleHandle b = BundleHandle::adopt(Bundle::create(hm_, 3, 3));
    b->append({0, 1, 2});
    b->append({5, 6, 7});
    b->append({~uint64_t{0}, 3, 4});
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    auto parts = partitionByRange(ctx(), *k, 1, hbm_);
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0].range, 0u);
    EXPECT_EQ(parts[1].range, 5u);
    EXPECT_EQ(parts[2].range, ~uint64_t{0});
    for (const auto &rp : parts)
        EXPECT_EQ(rp.part->size(), 1u);

    // Width 10: the top range, UINT64_MAX / 10, holds only six keys,
    // and its last key (range * 10 + 9) would overflow 64 bits. Its
    // keys come out of order, after one key of the range below it.
    constexpr uint64_t kMax = ~uint64_t{0};
    const uint64_t keys[] = {3, kMax - 6, kMax - 5, kMax, kMax - 2};
    BundleHandle top = BundleHandle::adopt(Bundle::create(hm_, 3, 5));
    for (uint64_t key : keys)
        top->append({key, 0, 0});
    KpaPtr kt = extract(ctx(), *top, 0, hbm_);
    ASSERT_FALSE(kt->sorted());
    auto tparts = partitionByRange(ctx(), *kt, 10, hbm_);
    ASSERT_EQ(tparts.size(), 3u);
    EXPECT_EQ(tparts[0].range, 0u);
    EXPECT_EQ(tparts[1].range, kMax / 10 - 1);
    EXPECT_EQ(tparts[2].range, kMax / 10);
    const std::vector<std::vector<uint64_t>> expect = {
        {3}, {kMax - 6}, {kMax - 5, kMax, kMax - 2}};
    for (size_t p = 0; p < tparts.size(); ++p) {
        ASSERT_EQ(tparts[p].part->size(), expect[p].size());
        for (uint32_t i = 0; i < tparts[p].part->size(); ++i)
            EXPECT_EQ(tparts[p].part->at(i).key, expect[p][i]);
    }
}

TEST_F(PrimitivesTest, SortKpaChargesUnchangedOnPresortedEntries)
{
    // sortKpa skips the host sort of entries already ordered (sorted
    // flag unset) but must charge exactly what a real sort would:
    // simulated figures never depend on the host path taken.
    BundleHandle b = makeKvBundle(4096, 23);
    KpaPtr k = extract(ctx(), *b, 2, hbm_); // ts ascending, flag unset
    ASSERT_FALSE(k->sorted());
    CostLog sort_log;
    sortKpa(Ctx{hm_, sort_log}, *k);
    EXPECT_TRUE(k->sorted());
    const uint64_t expect =
        (1 + 6) * sim::cost::kSortBytesPerElemLevel * 4096ull;
    EXPECT_EQ(sort_log.bytesOn(sim::Tier::kHbm), expect);
}

TEST_F(PrimitivesTest, UpdateKeysViaTableAndWriteBack)
{
    BundleHandle b = makeKvBundle(100, 16);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    // Keys 0..49 map to key + 1000, except the odd keys below 10,
    // which the table lacks and so keep.
    algo::HashTable<uint64_t> table(50);
    for (uint64_t key = 0; key < 50; ++key)
        if (key >= 10 || key % 2 == 0)
            table.findOrInsert(key) = key + 1000;
    updateKeysViaTable(ctx(), *k, table);
    EXPECT_EQ(k->residentColumn(), columnar::kNoColumn);
    for (uint32_t i = 0; i < k->size(); ++i) {
        const uint64_t key = k->at(i).row[0];
        EXPECT_EQ(k->at(i).key,
                  key >= 10 || key % 2 == 0 ? key + 1000 : key);
    }

    // Write back into column 1 (clobbering values).
    writeBackKeys(ctx(), *k, 1);
    EXPECT_EQ(k->residentColumn(), 1u);
    for (uint32_t i = 0; i < k->size(); ++i)
        EXPECT_EQ(k->at(i).row[1], k->at(i).key);
}

TEST_F(PrimitivesTest, ForEachKeyRunVisitsSortedGroups)
{
    BundleHandle b = makeKvBundle(5000, 17, /*key_range=*/20);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    sortKpa(ctx(), *k);

    std::map<uint64_t, uint64_t> counts;
    forEachKeyRun(*k, [&](uint64_t key, const KpEntry *run, size_t len) {
        counts[key] += len;
        for (size_t i = 0; i < len; ++i)
            EXPECT_EQ(run[i].key, key);
    });
    // Reference counts straight from the bundle.
    std::map<uint64_t, uint64_t> ref;
    for (uint32_t r = 0; r < b->size(); ++r)
        ++ref[b->row(r)[0]];
    EXPECT_EQ(counts, ref);
}

TEST_F(PrimitivesTest, ChargeKeyedReduceAccountsAllStreams)
{
    BundleHandle b = makeKvBundle(1000, 18);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    sortKpa(ctx(), *k);
    CostLog red;
    chargeKeyedReduce(Ctx{hm_, red}, *k, k->size(), k->size(), 50, 2);
    // KPA scan (HBM) + random values (DRAM) + output (DRAM).
    EXPECT_EQ(red.bytesOn(sim::Tier::kHbm), 16000u);
    EXPECT_EQ(red.bytesOn(sim::Tier::kDram), 1000u * 64 + 50u * 2 * 8);
}

TEST_F(PrimitivesTest, GroupingNeverTouchesFullRecordsInFlatMode)
{
    // Sort + merge on extracted KPAs must charge zero DRAM traffic:
    // the whole point of KPA (paper §4.1).
    BundleHandle b1 = makeKvBundle(2000, 19);
    BundleHandle b2 = makeKvBundle(2000, 20);
    KpaPtr k1 = extract(ctx(), *b1, 0, hbm_);
    KpaPtr k2 = extract(ctx(), *b2, 0, hbm_);
    CostLog group_log;
    Ctx gctx{hm_, group_log};
    sortKpa(gctx, *k1);
    sortKpa(gctx, *k2);
    KpaPtr m = merge(gctx, *k1, *k2, hbm_);
    EXPECT_EQ(group_log.bytesOn(sim::Tier::kDram), 0u);
    EXPECT_GT(group_log.bytesOn(sim::Tier::kHbm), 0u);
}

} // namespace
} // namespace sbhbm::kpa
