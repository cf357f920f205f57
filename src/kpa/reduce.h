/**
 * @file
 * The reduction primitives of Table 2: the key-run walk and the cuts
 * that keyed reductions shard on, and the charges of keyed and unkeyed
 * reductions.
 */

#ifndef SBHBM_KPA_REDUCE_H
#define SBHBM_KPA_REDUCE_H

#include <cstdint>
#include <vector>

#include "columnar/bundle.h"
#include "common/logging.h"
#include "kpa/ctx.h"
#include "kpa/kpa.h"

namespace sbhbm::kpa {

/**
 * Iterate contiguous key runs of a sorted KPA:
 * fn(key, first_entry, run_length). Functional part of keyed
 * reduction; pair with chargeKeyedReduce.
 */
template <typename Fn>
inline void
forEachKeyRun(const Kpa &k, Fn &&fn)
{
    sbhbm_assert(k.sorted(), "keyed reduction requires a sorted KPA");
    const KpEntry *e = k.entries();
    const uint32_t n = k.size();
    uint32_t i = 0;
    while (i < n) {
        uint32_t j = i + 1;
        while (j < n && e[j].key == e[i].key)
            ++j;
        fn(e[i].key, &e[i], j - i);
        i = j;
    }
}

/**
 * Split [0, size) into at most @p want ranges whose boundaries fall
 * on key-run boundaries, so per-key reductions can run as parallel
 * shards (paper Fig 4a: "the implementation performs each step in
 * parallel with all available threads"). Returns the cut points,
 * starting with 0 and ending with size.
 */
inline std::vector<uint32_t>
keyRunCuts(const Kpa &k, uint32_t want)
{
    sbhbm_assert(k.sorted(), "cuts need a sorted KPA");
    sbhbm_assert(want >= 1, "need at least one shard");
    const KpEntry *e = k.entries();
    const uint32_t n = k.size();
    std::vector<uint32_t> cuts{0};
    for (uint32_t s = 1; s < want; ++s) {
        uint32_t pos = static_cast<uint32_t>(uint64_t{n} * s / want);
        while (pos < n && pos > 0 && e[pos].key == e[pos - 1].key)
            ++pos;
        if (pos > cuts.back() && pos < n)
            cuts.push_back(pos);
    }
    cuts.push_back(n);
    return cuts;
}

/**
 * Charge a keyed reduction (Table 2 "Keyed"): sequential scan of
 * @p scanned KPA entries, random dereference of value columns, and
 * output emission.
 *
 * @param scanned entries of @p k the reduction reads (its size, or one
 *        shard's key-run range).
 * @param values_touched number of nonresident column dereferences
 *        (usually @p scanned; 0 when the reduction needs keys only).
 * @param out_records / out_cols shape of the emitted bundle.
 */
inline void
chargeKeyedReduce(Ctx ctx, const Kpa &k, uint64_t scanned,
                  uint64_t values_touched, uint64_t out_records,
                  uint32_t out_cols)
{
    ctx.hm.charge(ctx.log, k.tier(), AccessPattern::kSequential,
                  ctx.scaled(scanned * sizeof(KpEntry)));
    if (values_touched > 0) {
        const uint32_t cols = k.recordCols();
        ctx.hm.charge(ctx.log, mem::Tier::kDram, AccessPattern::kRandom,
                      values_touched * rowTouchBytes(cols));
    }
    if (out_records > 0) {
        ctx.hm.charge(ctx.log, mem::Tier::kDram,
                      AccessPattern::kSequential,
                      out_records * out_cols * sizeof(uint64_t));
    }
    ctx.log.cpu(cost::kReduceNsPerRec * static_cast<double>(scanned)
                + cost::kEmitNsPerRec * static_cast<double>(out_records));
}

/**
 * Charge an unkeyed reduction over a full bundle (Table 2
 * "Unkeyed"): one sequential pass over the record data.
 */
inline void
chargeUnkeyedReduce(Ctx ctx, const Bundle &b)
{
    ctx.hm.charge(ctx.log, b.tier(), AccessPattern::kSequential,
                  b.dataBytes());
    ctx.log.cpu(cost::kReduceNsPerRec * b.size());
}

} // namespace sbhbm::kpa

#endif // SBHBM_KPA_REDUCE_H
