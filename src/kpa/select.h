/**
 * @file
 * The KPA primitives that move between bundles and KPAs (Table 2):
 * Extract and Select build a KPA from a bundle's rows, Select also
 * filters an existing KPA, and Materialize emits a KPA's records as a
 * bundle.
 */

#ifndef SBHBM_KPA_SELECT_H
#define SBHBM_KPA_SELECT_H

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "columnar/bundle.h"
#include "common/logging.h"
#include "kpa/ctx.h"
#include "kpa/kpa.h"

namespace sbhbm::kpa {

/**
 * Extract (Table 2): create a new KPA from a record bundle, copying
 * column @p key_col and synthesizing record pointers.
 */
inline KpaPtr
extract(Ctx ctx, Bundle &src, ColumnId key_col, Placement place)
{
    sbhbm_assert(key_col < src.cols(), "key column %u out of %u", key_col,
                 src.cols());
    const uint32_t n = src.size();
    const uint32_t cols = src.cols();
    KpaPtr out = Kpa::create(ctx.hm, n, ctx.place(place));
    // Single streaming pass: walk the row-major data directly instead
    // of paying row()'s bounds check and push()'s overflow branch per
    // record.
    KpEntry *dst = out->appendCursor();
    uint64_t *row = src.data();
    for (uint32_t r = 0; r < n; ++r, row += cols)
        dst[r] = KpEntry{row[key_col], row};
    out->commitAppend(n);
    out->setResidentColumn(key_col);
    out->setSorted(src.size() <= 1);
    out->addSource(&src);

    ctx.hm.charge(ctx.log, src.tier(), AccessPattern::kSequential,
                  src.dataBytes());
    ctx.hm.charge(ctx.log, out->tier(), AccessPattern::kSequential,
                  ctx.scaled(out->bytes()));
    ctx.kernel(cost::kExtractNsPerRec * src.size());
    return out;
}

/**
 * Materialize (Table 2): emit a bundle of full records in KPA order.
 */
inline BundleHandle
materialize(Ctx ctx, const Kpa &k)
{
    sbhbm_assert(!k.empty(), "materializing an empty KPA");
    const uint32_t cols = k.recordCols();
    const uint32_t n = k.size();
    Bundle *out = Bundle::create(ctx.hm, cols, n);
    const KpEntry *e = k.entries();
    // Bulk-reserve the output once, then copy whole rows with the
    // random source reads prefetched a batch ahead.
    const uint64_t row_bytes = uint64_t{cols} * sizeof(uint64_t);
    uint64_t *dst = out->appendBlockRaw(n);
    for (uint32_t i = 0; i < n; ++i, dst += cols) {
        if (i + detail::kPrefetchAhead < n)
            detail::prefetchRow(e[i + detail::kPrefetchAhead].row);
        std::memcpy(dst, e[i].row, row_bytes);
    }

    ctx.hm.charge(ctx.log, k.tier(), AccessPattern::kSequential,
                  k.bytes());
    ctx.hm.charge(ctx.log, mem::Tier::kDram, AccessPattern::kRandom,
                  uint64_t{k.size()} * rowTouchBytes(cols));
    ctx.hm.charge(ctx.log, out->tier(), AccessPattern::kSequential,
                  out->dataBytes());
    ctx.kernel(cost::kSwapNsPerRec * k.size());
    return BundleHandle::adopt(out);
}

/**
 * Select (Table 2): subset a bundle as a KPA with surviving
 * key/pointer pairs, evaluating @p pred over full record rows.
 *
 * Branch-free: every row's pair is stored at the write cursor, and
 * the cursor advances by pred's 0/1, so a survivor stays and a reject
 * is overwritten by the next row. A selective predicate (YSB keeps
 * one record in three) then costs no mispredicted branches. Row r
 * stores at index <= r < n, inside the KPA's capacity of max(n, 1).
 */
template <typename Pred>
inline KpaPtr
selectFromBundle(Ctx ctx, Bundle &src, ColumnId key_col, Pred &&pred,
                 Placement place)
{
    // Capacity clamps to 1 on empty bundles (matching selectFromKpa)
    // so the output KPA is always usable for later appends.
    const uint32_t n = src.size();
    const uint32_t cols = src.cols();
    KpaPtr out = Kpa::create(ctx.hm, std::max<uint32_t>(n, 1),
                             ctx.place(place));
    KpEntry *dst = out->appendCursor();
    uint32_t kept = 0;
    uint64_t *row = src.data();
    for (uint32_t r = 0; r < n; ++r, row += cols) {
        dst[kept] = KpEntry{row[key_col], row};
        kept += pred(row) ? 1u : 0u;
    }
    out->commitAppend(kept);
    out->setResidentColumn(key_col);
    out->setSorted(out->size() <= 1);
    out->addSource(&src);

    ctx.hm.charge(ctx.log, src.tier(), AccessPattern::kSequential,
                  src.dataBytes());
    ctx.hm.charge(ctx.log, out->tier(), AccessPattern::kSequential,
                  ctx.scaled(out->bytes()));
    ctx.kernel(cost::kSelectNsPerRec * src.size());
    return out;
}

/** Select over an existing KPA, filtering on the resident key. */
template <typename Pred>
inline KpaPtr
selectFromKpa(Ctx ctx, const Kpa &src, Pred &&pred, Placement place)
{
    const uint32_t n = src.size();
    KpaPtr out = Kpa::create(ctx.hm, std::max<uint32_t>(n, 1),
                             ctx.place(place));
    const KpEntry *e = src.entries();
    KpEntry *dst = out->appendCursor();
    uint32_t kept = 0;
    for (uint32_t i = 0; i < n; ++i)
        if (pred(e[i].key))
            dst[kept++] = e[i];
    out->commitAppend(kept);
    out->setResidentColumn(src.residentColumn());
    out->setSorted(src.sorted());
    out->adoptSourcesFrom(src);

    ctx.hm.charge(ctx.log, src.tier(), AccessPattern::kSequential,
                  ctx.scaled(src.bytes()));
    ctx.hm.charge(ctx.log, out->tier(), AccessPattern::kSequential,
                  ctx.scaled(out->bytes()));
    ctx.kernel(cost::kSelectNsPerRec * src.size());
    return out;
}

} // namespace sbhbm::kpa

#endif // SBHBM_KPA_SELECT_H
