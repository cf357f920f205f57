/**
 * @file
 * The KPA primitives that rewrite resident keys (Table 2 KeySwap,
 * plus the external key update and the key write-back of paper §4.3).
 */

#ifndef SBHBM_KPA_KEY_UPDATE_H
#define SBHBM_KPA_KEY_UPDATE_H

#include <cstdint>

#include "algo/hash_table.h"
#include "kpa/ctx.h"
#include "kpa/kpa.h"

namespace sbhbm::kpa {

/**
 * KeySwap (Table 2): replace the resident keys with nonresident
 * column @p new_col, dereferencing each record pointer (random). Each
 * of hostShards' shards swaps one contiguous index range.
 */
inline void
keySwap(Ctx ctx, Kpa &k, ColumnId new_col)
{
    if (k.residentColumn() == new_col)
        return;
    KpEntry *e = k.entries();
    const uint32_t n = k.size();
    // Batched pointer chasing: issue the random row loads well ahead
    // of their use so several DRAM misses are in flight at once.
    const uint32_t shards = detail::hostShards(ctx, n);
    detail::forEachShard(ctx, shards, [&](uint32_t s) {
        const uint64_t hi = detail::shardLo(n, s + 1, shards);
        for (uint64_t i = detail::shardLo(n, s, shards); i < hi; ++i) {
            if (i + detail::kPrefetchAhead < hi)
                detail::prefetchRow(e[i + detail::kPrefetchAhead].row
                                    + new_col);
            e[i].key = e[i].row[new_col];
        }
    });
    k.setResidentColumn(new_col);
    k.setSorted(k.size() <= 1);

    const uint32_t cols = k.empty() ? 0 : k.recordCols();
    ctx.hm.charge(ctx.log, mem::Tier::kDram, AccessPattern::kRandom,
                  uint64_t{k.size()} * rowTouchBytes(cols));
    ctx.hm.charge(ctx.log, k.tier(), AccessPattern::kSequential,
                  ctx.scaled(k.bytes()));
    ctx.kernel(cost::kSwapNsPerRec * k.size());
}

/**
 * Rewrite resident keys in place through an external key-value table
 * (the external join of YSB maps ad_id -> campaign_id without touching
 * full records): every resident key is replaced by table[key], or kept
 * when absent. Each key is one HashTable::find; the table stays
 * cache-resident (YSB's campaign table is 34 KiB).
 */
inline void
updateKeysViaTable(Ctx ctx, Kpa &k, algo::HashTable<uint64_t> &table)
{
    KpEntry *e = k.entries();
    const uint32_t n = k.size();
    for (uint32_t i = 0; i < n; ++i) {
        if (const uint64_t *v = table.find(e[i].key))
            e[i].key = *v;
    }
    k.setResidentColumn(columnar::kNoColumn); // keys no longer mirror a column
    k.setSorted(k.size() <= 1);
    ctx.hm.charge(ctx.log, k.tier(), AccessPattern::kSequential,
                  ctx.scaled(k.bytes()));
    ctx.kernel(cost::kSwapNsPerRec * k.size());
}

/**
 * Write the (possibly dirty) resident keys back to record column
 * @p col (paper §4.3 optimization 2), then swap in column
 * @p swap_col as the resident keys, in one pass over the entries:
 * each row is written and read while its line is in cache, with the
 * row kPrefetchAhead entries ahead prefetched for write.
 *
 * The simulated machine is charged exactly what writeBackKeys(col)
 * followed by keySwap(swap_col) charges, call by call in that order.
 * When @p swap_col equals @p col, keySwap would return early, so only
 * the write-back is charged and the keys are left as they are.
 */
inline void
writeBackKeys(Ctx ctx, Kpa &k, ColumnId col, ColumnId swap_col)
{
    KpEntry *e = k.entries();
    const uint32_t n = k.size();
    for (uint32_t i = 0; i < n; ++i) {
        if (i + detail::kPrefetchAhead < n)
            detail::prefetchRowForWrite(e[i + detail::kPrefetchAhead].row
                                        + col);
        uint64_t *row = e[i].row;
        row[col] = e[i].key;
        e[i].key = row[swap_col];
    }
    k.setResidentColumn(swap_col);
    if (swap_col != col)
        k.setSorted(n <= 1);

    // writeBackKeys(col)'s charges, then keySwap(swap_col)'s: each
    // makes these three calls.
    const uint32_t cols = k.empty() ? 0 : k.recordCols();
    const int passes = swap_col == col ? 1 : 2;
    for (int p = 0; p < passes; ++p) {
        ctx.hm.charge(ctx.log, mem::Tier::kDram, AccessPattern::kRandom,
                      uint64_t{n} * rowTouchBytes(cols));
        ctx.hm.charge(ctx.log, k.tier(), AccessPattern::kSequential,
                      ctx.scaled(k.bytes()));
        ctx.kernel(cost::kSwapNsPerRec * n);
    }
}

/** writeBackKeys without a key swap: the keys stay resident. */
inline void
writeBackKeys(Ctx ctx, Kpa &k, ColumnId col)
{
    writeBackKeys(ctx, k, col, col);
}

} // namespace sbhbm::kpa

#endif // SBHBM_KPA_KEY_UPDATE_H
