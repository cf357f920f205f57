/**
 * @file
 * partitionByRange's parallel count/fill passes must be bit-identical
 * to the serial passes at every thread count: same partitions in the
 * same order, every entry at the same position, and the same CostLog
 * charges — the host pool is a wall-clock knob, never a semantics
 * knob.
 */

#include "kpa/primitives.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "common/worker_pool.h"
#include "sim/machine_config.h"

namespace sbhbm::kpa {
namespace {

using mem::Tier;
using sim::CostLog;

class PartitionParallelTest : public ::testing::Test
{
  protected:
    sim::MachineConfig cfg_ = sim::MachineConfig::knl();
    mem::HybridMemory hm_{cfg_, sim::MemoryMode::kFlat};

    /** Unsorted KPA of n entries with keys in [0, key_range). */
    KpaPtr
    makeKpa(uint32_t n, uint64_t key_range, uint64_t seed,
            CostLog &log)
    {
        Rng rng(seed);
        BundleHandle b = BundleHandle::adopt(
            columnar::Bundle::create(hm_, 2, n));
        for (uint32_t r = 0; r < n; ++r) {
            uint64_t *row = b->appendRaw();
            row[0] = rng.nextBounded(key_range);
            row[1] = r;
        }
        Ctx ctx{hm_, log};
        KpaPtr k = extract(ctx, *b, 0, Placement{Tier::kHbm, false});
        k->setSorted(false); // force the unsorted count/fill path
        return k;
    }

    struct Result
    {
        std::vector<uint64_t> ranges;
        std::vector<std::vector<KpEntry>> entries;
        double cpu_ns = 0;
        uint64_t hbm_bytes = 0;
        uint64_t dram_bytes = 0;
    };

    Result
    runPartition(const Kpa &src, uint64_t width, WorkerPool *pool)
    {
        CostLog log;
        Ctx ctx{hm_, log};
        ctx.pool = pool;
        auto parts =
            partitionByRange(ctx, src, width, Placement{Tier::kHbm, false});
        Result r;
        for (const auto &rp : parts) {
            r.ranges.push_back(rp.range);
            std::vector<KpEntry> es(rp.part->entries(),
                                    rp.part->entries() + rp.part->size());
            r.entries.push_back(std::move(es));
        }
        r.cpu_ns = log.totalCpuNs();
        r.hbm_bytes = log.bytesOn(sim::Tier::kHbm);
        r.dram_bytes = log.bytesOn(sim::Tier::kDram);
        return r;
    }

    static void
    expectIdentical(const Result &serial, const Result &parallel,
                    const char *what)
    {
        ASSERT_EQ(serial.ranges, parallel.ranges) << what;
        ASSERT_EQ(serial.entries.size(), parallel.entries.size()) << what;
        for (size_t p = 0; p < serial.entries.size(); ++p) {
            ASSERT_EQ(serial.entries[p].size(),
                      parallel.entries[p].size())
                << what << " partition " << p;
            for (size_t i = 0; i < serial.entries[p].size(); ++i) {
                ASSERT_EQ(serial.entries[p][i].key,
                          parallel.entries[p][i].key)
                    << what << " partition " << p << " entry " << i;
                ASSERT_EQ(serial.entries[p][i].row,
                          parallel.entries[p][i].row)
                    << what << " partition " << p << " entry " << i;
            }
        }
        EXPECT_DOUBLE_EQ(serial.cpu_ns, parallel.cpu_ns) << what;
        EXPECT_EQ(serial.hbm_bytes, parallel.hbm_bytes) << what;
        EXPECT_EQ(serial.dram_bytes, parallel.dram_bytes) << what;
    }
};

TEST_F(PartitionParallelTest, DensePathBitIdenticalAcrossThreadCounts)
{
    // Above the parallel threshold, dense span (64 ranges).
    constexpr uint32_t kN = 200'000;
    CostLog setup;
    KpaPtr k = makeKpa(kN, 64 * 1000, 3, setup);
    const Result serial = runPartition(*k, 1000, nullptr);
    ASSERT_EQ(serial.ranges.size(), 64u);

    for (unsigned threads : {2u, 3u, 8u}) {
        WorkerPool pool(threads);
        const Result par = runPartition(*k, 1000, &pool);
        expectIdentical(serial, par,
                        (std::to_string(threads) + " threads").c_str());
    }
}

TEST_F(PartitionParallelTest, SingleRangeAndRaggedShardsStayIdentical)
{
    // n chosen so n / threads does not divide evenly, plus a width
    // that puts everything in one partition (degenerate span).
    constexpr uint32_t kN = (1u << 16) + 4099;
    CostLog setup;
    KpaPtr k = makeKpa(kN, 777, 11, setup);

    WorkerPool pool(5);
    const Result serial = runPartition(*k, 1u << 20, nullptr);
    ASSERT_EQ(serial.ranges.size(), 1u);
    expectIdentical(serial, runPartition(*k, 1u << 20, &pool),
                    "single range");

    // And a many-small-ranges split of the same ragged input.
    const Result serial_many = runPartition(*k, 13, nullptr);
    expectIdentical(serial_many, runPartition(*k, 13, &pool),
                    "many ranges");
}

TEST_F(PartitionParallelTest, BelowThresholdTakesSerialPath)
{
    constexpr uint32_t kN = 10'000; // < kPartitionParallelMin
    CostLog setup;
    KpaPtr k = makeKpa(kN, 4000, 5, setup);
    WorkerPool pool(8);
    expectIdentical(runPartition(*k, 100, nullptr),
                    runPartition(*k, 100, &pool), "small input");
}

TEST_F(PartitionParallelTest, SpanPathChecksOrderAcrossShardBoundaries)
{
    // Ascending keys take the span path at every thread count. The
    // second input is ascending within each half but steps back at
    // n / 2, a shard boundary at 2 and 8 threads (and inside a shard
    // at 3): only the check across shard boundaries can see it, and
    // then every thread count must fall back to the dense path.
    constexpr uint32_t kN = 200'000;
    for (const bool step_back : {false, true}) {
        BundleHandle b = BundleHandle::adopt(
            columnar::Bundle::create(hm_, 2, kN));
        for (uint32_t r = 0; r < kN; ++r) {
            uint64_t *row = b->appendRaw();
            row[0] = step_back && r >= kN / 2 ? r - kN / 4 : r;
            row[1] = r;
        }
        CostLog xlog;
        Ctx xctx{hm_, xlog};
        KpaPtr k = extract(xctx, *b, 0, Placement{Tier::kHbm, false});
        const Result serial = runPartition(*k, 1000, nullptr);
        // Stepping back 50 ranges folds ranges 50..99 of both halves.
        ASSERT_EQ(serial.ranges.size(), step_back ? 150u : 200u);
        ASSERT_EQ(serial.entries[50].size(), step_back ? 2000u : 1000u);
        for (unsigned threads : {2u, 3u, 8u}) {
            WorkerPool pool(threads);
            expectIdentical(
                serial, runPartition(*k, 1000, &pool),
                (std::string(step_back ? "step back" : "ascending")
                 + " @" + std::to_string(threads))
                    .c_str());
        }
    }
}

TEST_F(PartitionParallelTest, SparseRangesUnaffectedByPool)
{
    // Keys spread so wide that distinct ranges outnumber entries:
    // the sparse hash path runs serially either way; the pool must
    // not change its output.
    constexpr uint32_t kN = 100'000;
    CostLog setup;
    Rng rng(17);
    BundleHandle b =
        BundleHandle::adopt(columnar::Bundle::create(hm_, 2, kN));
    for (uint32_t r = 0; r < kN; ++r) {
        uint64_t *row = b->appendRaw();
        row[0] = rng.next() % (uint64_t{1} << 60);
        row[1] = r;
    }
    CostLog xlog;
    Ctx xctx{hm_, xlog};
    KpaPtr k = extract(xctx, *b, 0, Placement{Tier::kHbm, false});
    k->setSorted(false);

    WorkerPool pool(8);
    expectIdentical(runPartition(*k, 3, nullptr),
                    runPartition(*k, 3, &pool), "sparse ranges");
}

} // namespace
} // namespace sbhbm::kpa
