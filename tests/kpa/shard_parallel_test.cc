/**
 * @file
 * keySwap, sortKpa, merge and join shard their host work across the
 * pool at or above detail::kShardParallelMin entries. At every thread
 * count they must match the serial path exactly: the same entries with
 * the same row pointers, the same emitted rows in the same order, the
 * same HybridMemory allocations, and the same CostLog charges (scalar
 * cpu, vector cpu, and bytes per tier).
 */

#include "kpa/primitives.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/worker_pool.h"
#include "sim/machine_config.h"

namespace sbhbm::kpa {
namespace {

using mem::Tier;
using sim::CostLog;

constexpr uint32_t kMin = detail::kShardParallelMin;

/** Pool sizes each kernel runs with, against the pool-less serial run. */
constexpr unsigned kThreadCounts[] = {1, 2, 3, 8};

/** What one kernel call left behind and charged. */
struct Outcome
{
    std::vector<KpEntry> entries; //!< the KPA swapped, sorted or merged
    bool sorted = false;
    std::vector<uint64_t> rows; //!< join output, row-major
    uint32_t out_rows = 0;
    uint32_t out_capacity = 0;
    double cpu_ns = 0;
    double cpu_vector_ns = 0;
    uint64_t hbm_bytes = 0;
    uint64_t dram_bytes = 0;
    uint64_t allocs = 0;   //!< blocks the kernel allocated
    uint64_t hbm_peak = 0; //!< HBM reserved at once, at most
    uint64_t dram_peak = 0;
};

void
expectSame(const Outcome &serial, const Outcome &par,
           const std::string &what)
{
    ASSERT_EQ(serial.entries.size(), par.entries.size()) << what;
    for (size_t i = 0; i < serial.entries.size(); ++i) {
        ASSERT_EQ(serial.entries[i].key, par.entries[i].key)
            << what << " entry " << i;
        ASSERT_EQ(serial.entries[i].row, par.entries[i].row)
            << what << " entry " << i;
    }
    EXPECT_EQ(serial.sorted, par.sorted) << what;
    ASSERT_EQ(serial.out_rows, par.out_rows) << what;
    EXPECT_EQ(serial.out_capacity, par.out_capacity) << what;
    ASSERT_EQ(serial.rows.size(), par.rows.size()) << what;
    for (size_t i = 0; i < serial.rows.size(); ++i)
        ASSERT_EQ(serial.rows[i], par.rows[i]) << what << " row word " << i;
    EXPECT_EQ(serial.cpu_ns, par.cpu_ns) << what;
    EXPECT_EQ(serial.cpu_vector_ns, par.cpu_vector_ns) << what;
    EXPECT_EQ(serial.hbm_bytes, par.hbm_bytes) << what;
    EXPECT_EQ(serial.dram_bytes, par.dram_bytes) << what;
    EXPECT_EQ(serial.allocs, par.allocs) << what;
    EXPECT_EQ(serial.hbm_peak, par.hbm_peak) << what;
    EXPECT_EQ(serial.dram_peak, par.dram_peak) << what;
}

class ShardParallelTest : public ::testing::Test
{
  protected:
    static constexpr uint32_t kCols = 3; //!< key, payload, alt key
    static constexpr ColumnId kAltCol = 2;

    sim::MachineConfig cfg_ = sim::MachineConfig::knl();
    mem::HybridMemory hm_{cfg_, sim::MemoryMode::kFlat};
    std::vector<BundleHandle> bundles_;

    /**
     * A bundle with one row per key: column 0 holds @p keys[r],
     * column 1 a payload unique to the row and column 2 the key's
     * complement, so a swap to it changes every key.
     */
    Bundle &
    makeBundle(const std::vector<uint64_t> &keys)
    {
        const auto n = static_cast<uint32_t>(keys.size());
        bundles_.push_back(BundleHandle::adopt(
            Bundle::create(hm_, kCols, std::max<uint32_t>(n, 1))));
        Bundle &b = *bundles_.back();
        uint64_t *row = b.appendBlockRaw(n);
        for (uint32_t r = 0; r < n; ++r, row += kCols) {
            row[0] = keys[r];
            row[1] = (uint64_t{bundles_.size()} << 32) | r;
            row[2] = ~keys[r];
        }
        return b;
    }

    /** Entries {row[0], row} for @p b's rows, in row order. */
    static std::vector<KpEntry>
    entriesOf(Bundle &b)
    {
        std::vector<KpEntry> es(b.size());
        for (uint32_t r = 0; r < b.size(); ++r)
            es[r] = KpEntry{b.data()[uint64_t{r} * kCols], b.row(r)};
        return es;
    }

    /** A KPA holding @p es, keyed on column @p col, sourced from @p b. */
    KpaPtr
    makeKpa(Bundle &b, const std::vector<KpEntry> &es, ColumnId col,
            bool sorted)
    {
        const auto n = static_cast<uint32_t>(es.size());
        KpaPtr k = Kpa::create(hm_, std::max<uint32_t>(n, 1),
                               Placement{Tier::kHbm, false});
        std::copy(es.begin(), es.end(), k->appendCursor());
        k->commitAppend(n);
        k->setResidentColumn(col);
        k->setSorted(sorted);
        k->addSource(&b);
        return k;
    }

    /**
     * Run @p kernel with a context on a fresh HybridMemory (so its
     * allocations can be counted) and @p threads pool threads (0 = no
     * pool: the serial path), and record its charges.
     */
    template <typename Kernel>
    Outcome
    run(unsigned threads, Kernel &&kernel)
    {
        mem::HybridMemory hm(cfg_, sim::MemoryMode::kFlat);
        CostLog log;
        Ctx ctx{hm, log};
        std::unique_ptr<WorkerPool> pool;
        if (threads > 0) {
            pool = std::make_unique<WorkerPool>(threads);
            ctx.pool = pool.get();
        }
        Outcome o;
        kernel(ctx, o);
        for (const Tier t : {Tier::kHbm, Tier::kDram})
            o.allocs += hm.slab(t).fresh() + hm.slab(t).recycled();
        o.hbm_peak = hm.gauge(Tier::kHbm).highWater();
        o.dram_peak = hm.gauge(Tier::kDram).highWater();
        for (const sim::Phase &p : log.phases()) {
            o.cpu_ns += p.cpu_ns;
            o.cpu_vector_ns += p.cpu_vector_ns;
        }
        o.hbm_bytes = log.bytesOn(Tier::kHbm);
        o.dram_bytes = log.bytesOn(Tier::kDram);
        return o;
    }

    static void
    keep(Outcome &o, const Kpa &k)
    {
        o.entries.assign(k.entries(), k.entries() + k.size());
        o.sorted = k.sorted();
    }

    /** keySwap to kAltCol of a KPA keyed on column 0 (rows shuffled). */
    Outcome
    runKeySwap(Bundle &b, const std::vector<KpEntry> &es, unsigned threads)
    {
        return run(threads, [&](Ctx ctx, Outcome &o) {
            KpaPtr k = makeKpa(b, es, 0, false);
            keySwap(ctx, *k, kAltCol);
            keep(o, *k);
        });
    }

    Outcome
    runSort(Bundle &b, const std::vector<KpEntry> &es, unsigned threads)
    {
        return run(threads, [&](Ctx ctx, Outcome &o) {
            KpaPtr k = makeKpa(b, es, 0, false);
            sortKpa(ctx, *k);
            keep(o, *k);
        });
    }

    Outcome
    runMerge(const Kpa &a, const Kpa &b, unsigned threads)
    {
        return run(threads, [&](Ctx ctx, Outcome &o) {
            KpaPtr out = merge(ctx, a, b, Placement{Tier::kHbm, false});
            keep(o, *out);
        });
    }

    Outcome
    runJoin(const Kpa &l, const Kpa &r, unsigned threads)
    {
        return run(threads, [&](Ctx ctx, Outcome &o) {
            BundleHandle out = join(ctx, l, r, {1}, {1, 2});
            o.out_rows = out->size();
            o.out_capacity = out->capacity();
            o.rows.assign(out->data(),
                          out->data() + uint64_t{out->size()} * out->cols());
        });
    }

    /** Sorted merge or join input over @p keys. */
    KpaPtr
    sortedSide(std::vector<uint64_t> keys)
    {
        std::sort(keys.begin(), keys.end());
        Bundle &b = makeBundle(keys);
        return makeKpa(b, entriesOf(b), 0, true);
    }

    /** Every pool size gives the serial keySwap and sortKpa. */
    void
    checkSwapAndSort(const std::vector<uint64_t> &keys, const char *what)
    {
        // Shuffle the rows behind the entries, so equal keys keep an
        // order that a stable sort must reproduce and the swap chases
        // scattered pointers.
        Bundle &b = makeBundle(keys);
        std::vector<KpEntry> es = entriesOf(b);
        Rng rng(keys.size());
        for (size_t i = es.size(); i > 1; --i)
            std::swap(es[i - 1], es[rng.nextBounded(i)]);
        const Outcome swap_serial = runKeySwap(b, es, 0);
        const Outcome sort_serial = runSort(b, es, 0);
        ASSERT_TRUE(sort_serial.sorted);
        for (unsigned t : kThreadCounts) {
            const std::string at =
                std::string(what) + " @" + std::to_string(t) + " threads";
            expectSame(swap_serial, runKeySwap(b, es, t), "keySwap " + at);
            expectSame(sort_serial, runSort(b, es, t), "sortKpa " + at);
        }
    }

    /** Every pool size gives the serial merge of @p a and @p b. */
    void
    checkMerge(std::vector<uint64_t> a, std::vector<uint64_t> b,
               const char *what)
    {
        const KpaPtr ak = sortedSide(std::move(a));
        const KpaPtr bk = sortedSide(std::move(b));
        const Outcome serial = runMerge(*ak, *bk, 0);
        ASSERT_TRUE(serial.sorted);
        for (unsigned t : kThreadCounts) {
            expectSame(serial, runMerge(*ak, *bk, t),
                       std::string("merge ") + what + " @"
                           + std::to_string(t) + " threads");
        }
    }

    /** Every pool size gives the serial join of @p l and @p r. */
    void
    checkJoin(std::vector<uint64_t> l, std::vector<uint64_t> r,
              const char *what)
    {
        const KpaPtr lk = sortedSide(std::move(l));
        const KpaPtr rk = sortedSide(std::move(r));
        const Outcome serial = runJoin(*lk, *rk, 0);
        for (unsigned t : kThreadCounts) {
            expectSame(serial, runJoin(*lk, *rk, t),
                       std::string("join ") + what + " @"
                           + std::to_string(t) + " threads");
        }
    }
};

std::vector<uint64_t>
randomKeys(uint32_t n, uint64_t range, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint64_t> keys(n);
    for (uint64_t &k : keys)
        k = range == 0 ? rng.next() : rng.nextBounded(range);
    return keys;
}

TEST_F(ShardParallelTest, SwapAndSortAtThresholdEdgesAndOddSizes)
{
    // 20-bit keys, the join workload's: each half of the pooled sort
    // takes the two 10-bit radix passes the serial sort takes.
    for (const uint32_t n :
         {kMin - 1, kMin, kMin + 1, uint32_t{50'000}, 3 * kMin + 7}) {
        checkSwapAndSort(randomKeys(n, 1u << 20, n),
                         ("20-bit keys, n=" + std::to_string(n)).c_str());
    }
}

TEST_F(ShardParallelTest, SortKeepsDuplicateOrderAcrossTheHalves)
{
    // 16 distinct keys over 2 * kMin + 1 entries: every key has runs in
    // both halves, so the merge's tie rule decides their order.
    checkSwapAndSort(randomKeys(2 * kMin + 1, 16, 3), "16 keys");
}

TEST_F(ShardParallelTest, SwapAndSortWithAllKeysEqual)
{
    checkSwapAndSort(std::vector<uint64_t>(kMin + 5, 42), "all equal");
}

TEST_F(ShardParallelTest, SwapAndSortWithExtremeKeys)
{
    std::vector<uint64_t> keys = randomKeys(kMin + 3, 0, 9);
    for (size_t i = 0; i < keys.size(); i += 97)
        keys[i] = i % 2 == 0 ? 0 : UINT64_MAX;
    checkSwapAndSort(keys, "keys 0 and UINT64_MAX");
}

TEST_F(ShardParallelTest, PresortedSortKeepsItsEarlyOut)
{
    std::vector<uint64_t> keys = randomKeys(2 * kMin, 1u << 20, 4);
    std::sort(keys.begin(), keys.end());
    Bundle &b = makeBundle(keys);
    const std::vector<KpEntry> es = entriesOf(b);
    for (unsigned t : {0u, 1u, 2u, 8u}) {
        const Outcome o = runSort(b, es, t);
        EXPECT_EQ(o.allocs, 0u) << t << " threads: no scratch block";
        EXPECT_TRUE(o.sorted);
        ASSERT_EQ(o.entries.size(), es.size());
        for (size_t i = 0; i < es.size(); ++i)
            ASSERT_EQ(o.entries[i].row, es[i].row) << t << " threads, " << i;
    }
}

TEST_F(ShardParallelTest, SortAllocatesOneScratchBlock)
{
    Bundle &b = makeBundle(randomKeys(2 * kMin, 1u << 20, 5));
    std::vector<KpEntry> es = entriesOf(b);
    std::reverse(es.begin(), es.end());
    for (unsigned t : {0u, 2u, 8u}) {
        const Outcome o = runSort(b, es, t);
        EXPECT_EQ(o.allocs, 1u) << t << " threads";
        EXPECT_EQ(o.hbm_peak, mem::SlabAllocator::classSize(
                                  uint64_t{2 * kMin} * sizeof(KpEntry)))
            << t << " threads";
    }
}

TEST_F(ShardParallelTest, MergeAtThresholdEdge)
{
    // a + b at kMin - 1 entries (serial) and kMin (one merge-path
    // segment per pool thread). 1000 keys over both sides: equal keys
    // straddle the segment cuts, so the tie rule decides their order.
    for (const uint32_t total : {kMin - 1, kMin}) {
        const uint32_t na = total / 3;
        checkMerge(randomKeys(na, 1000, na),
                   randomKeys(total - na, 1000, total),
                   ("a + b = " + std::to_string(total)).c_str());
    }
}

TEST_F(ShardParallelTest, JoinAtThresholdEdgesAndOddSizes)
{
    // ln + rn at kMin - 1 (serial), kMin, and odd splits above it, on
    // 60,000 keys; then 20-bit keys, the join workload's, at kMin and
    // 50,000 a side.
    struct Sides
    {
        uint32_t ln, rn;
        uint64_t range;
    };
    const Sides sizes[] = {{kMin / 3, kMin - 1 - kMin / 3, 60'000},
                           {kMin / 3, kMin - kMin / 3, 60'000},
                           {12'345, 54'321, 60'000},
                           {43'001, 126'003, 60'000},
                           {kMin, kMin, 1u << 20},
                           {50'000, 50'000, 1u << 20}};
    for (const Sides &s : sizes) {
        checkJoin(randomKeys(s.ln, s.range, s.ln),
                  randomKeys(s.rn, s.range, s.rn + 1),
                  (std::to_string(s.ln) + " x " + std::to_string(s.rn)
                   + " keys < " + std::to_string(s.range))
                      .c_str());
    }
}

TEST_F(ShardParallelTest, JoinWithAllKeysEqual)
{
    // Every pivot is the one key: all shards but the last are empty.
    // rn < threads as well.
    checkJoin(std::vector<uint64_t>(kMin, 7), std::vector<uint64_t>(5, 7),
              "all equal");
}

TEST_F(ShardParallelTest, JoinWithADuplicateRunStraddlingEveryPivot)
{
    // Key 500 fills the middle of both sides, so every diagonal lands
    // inside its run; distinct keys on either side of it still join.
    std::vector<uint64_t> l, r;
    for (uint64_t k = 0; k < 300; ++k) {
        l.push_back(k * 3);
        r.push_back(k * 2);
        l.push_back(1000 + k * 3);
        r.push_back(1000 + k * 2);
    }
    l.insert(l.end(), 40'000, 500);
    r.insert(r.end(), 3, 500);
    checkJoin(l, r, "straddling run");
}

TEST_F(ShardParallelTest, JoinWithASideSmallerThanTheThreadCount)
{
    std::vector<uint64_t> big = randomKeys(kMin + 11, 5'000, 12);
    checkJoin({big[3], big[70]}, big, "ln = 2");
    checkJoin(big, {big[9]}, "rn = 1");
}

TEST_F(ShardParallelTest, JoinWithOneSideEmpty)
{
    std::vector<uint64_t> big = randomKeys(kMin + 1, 5'000, 13);
    checkJoin({}, big, "empty left");
    checkJoin(big, {}, "empty right");
}

TEST_F(ShardParallelTest, JoinWithExtremeKeysAndNoMatches)
{
    std::vector<uint64_t> l = randomKeys(kMin, 0, 14);
    std::vector<uint64_t> r = randomKeys(kMin, 0, 15);
    for (int c = 0; c < 9; ++c) {
        l.push_back(0);
        l.push_back(UINT64_MAX);
        r.push_back(c % 3 == 0 ? 0 : UINT64_MAX);
    }
    checkJoin(l, r, "keys 0 and UINT64_MAX");

    // Even keys against odd keys: nothing matches, and the bundle still
    // holds one (empty) row's worth of capacity.
    std::vector<uint64_t> even(kMin), odd(kMin);
    for (uint32_t i = 0; i < kMin; ++i) {
        even[i] = 2 * uint64_t{i};
        odd[i] = 2 * uint64_t{i} + 1;
    }
    checkJoin(even, odd, "no matches");
}

} // namespace
} // namespace sbhbm::kpa
