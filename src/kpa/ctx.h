/**
 * @file
 * The context every KPA kernel charges against, and the one rule by
 * which a kernel shards its host work across the pool.
 *
 * Every kernel "performs each step in parallel with all available
 * threads" (paper §4.2) by the same rule: hostShards(ctx, n) grants
 * one shard per pool thread once the kernel's input reaches
 * kShardParallelMin entries, and forEachShard runs the shards. The
 * shards cut the host work only; the simulated charges depend on
 * sizes alone, so the thread count never changes a reported number.
 */

#ifndef SBHBM_KPA_CTX_H
#define SBHBM_KPA_CTX_H

#include <algorithm>
#include <cstdint>

#include "common/worker_pool.h"
#include "kpa/kpa.h"
#include "mem/hybrid_memory.h"
#include "sim/cost_model.h"
#include "sim/traffic.h"

namespace sbhbm::kpa {

namespace cost = sim::cost;
using sim::AccessPattern;

/** Execution context every primitive charges against. */
struct Ctx
{
    mem::HybridMemory &hm;
    sim::CostLog &log;

    /**
     * Traffic multiplier applied to KPA-side bytes in grouping
     * primitives. 1.0 for real KPAs (16-byte pairs). The NoKPA
     * ablation (paper §7.3, "StreamBox-HBM Caching NoKPA") groups
     * full records instead: every sort/merge pass moves whole rows,
     * so the engine sets this to record_bytes / 16.
     */
    double group_scale = 1.0;

    /**
     * Host fork-join pool for the wall-clock of keySwap, sortKpa,
     * merge and join at or above detail::kShardParallelMin entries.
     * Optional: nullptr (or a 1-thread pool) runs the serial code
     * paths. Parallel and serial paths produce bit-identical entries
     * and rows, make the same HybridMemory allocations and identical
     * charges, so this never changes simulated results.
     */
    WorkerPool *pool = nullptr;

    /** Scale KPA-side traffic by group_scale. */
    uint64_t
    scaled(uint64_t kpa_bytes) const
    {
        return static_cast<uint64_t>(static_cast<double>(kpa_bytes)
                                     * group_scale);
    }

    /**
     * Charge grouping-kernel time: vectorized on 16-byte pairs; when
     * grouping full records (NoKPA) the kernels degrade to scalar
     * tuple moves, slower by the tuple width and the generic-tuple
     * factor.
     */
    void
    kernel(double vector_ns) const
    {
        if (group_scale == 1.0) {
            log.cpuVector(vector_ns);
        } else {
            log.cpu(vector_ns * group_scale
                    * cost::kGenericTupleFactor);
        }
    }

    /** Propagate the grouping-state scale into a placement. */
    Placement
    place(Placement p) const
    {
        p.entry_scale = group_scale;
        return p;
    }
};

/** Bytes a random access to one full record touches (>= one line). */
inline uint64_t
rowTouchBytes(uint32_t cols)
{
    return std::max<uint64_t>(cost::kLineBytes,
                              uint64_t{cols} * sizeof(uint64_t));
}

namespace detail {

/**
 * Entries the batched random-dereference loops look ahead (Cimple-style
 * software pipelining): far enough to overlap several DRAM round trips,
 * close enough that the prefetched lines survive in L1/L2.
 */
constexpr uint32_t kPrefetchAhead = 16;

/**
 * Input entries below which every kernel stays serial: forking the
 * host pool costs more than the shards save.
 */
constexpr uint32_t kShardParallelMin = 1u << 15;

/**
 * Host shards for a kernel over @p n entries: the pool's thread count
 * when it has more than one thread and @p n reaches kShardParallelMin,
 * else 1.
 */
inline uint32_t
hostShards(const Ctx &ctx, uint64_t n)
{
    return ctx.pool != nullptr && ctx.pool->threads() > 1
                   && n >= kShardParallelMin
               ? ctx.pool->threads()
               : 1;
}

/** First index of shard @p s when [0, n) is cut into @p shards slices. */
inline uint64_t
shardLo(uint64_t n, uint32_t s, uint32_t shards)
{
    return n * s / shards;
}

/**
 * Run fn(s) for every s in [0, @p shards): across Ctx::pool when
 * hostShards granted more than one, else inline on the caller.
 */
template <typename Fn>
inline void
forEachShard(const Ctx &ctx, uint32_t shards, Fn &&fn)
{
    if (shards > 1)
        ctx.pool->parallelFor(shards, fn);
    else
        fn(0);
}

/** Prefetch hint for a row about to be dereferenced (no-op elsewhere). */
inline void
prefetchRow(const uint64_t *row)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(row);
#else
    (void)row;
#endif
}

/** Prefetch hint for a row about to be written (no-op elsewhere). */
inline void
prefetchRowForWrite(uint64_t *row)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(row, 1);
#else
    (void)row;
#endif
}

} // namespace detail
} // namespace sbhbm::kpa

#endif // SBHBM_KPA_CTX_H
