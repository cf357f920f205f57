/**
 * @file
 * The grouping primitives Sort and Merge of Table 2, on the host
 * kernels of algo/sort.h: a stable radix sort whose passes cover only
 * the key bits that vary, in digits of up to 11 bits (two passes for
 * the 20-bit keys of a 1 M-key join), and a branch-free merge.
 */

#ifndef SBHBM_KPA_SORT_MERGE_H
#define SBHBM_KPA_SORT_MERGE_H

#include <cstddef>
#include <cstdint>

#include "algo/sort.h"
#include "common/logging.h"
#include "kpa/ctx.h"
#include "kpa/kpa.h"

namespace sbhbm::kpa {

/**
 * Sort (Table 2): sort the KPA by resident key in place. The
 * simulated machine is charged for the paper's sort, a bitonic block
 * sort plus bottom-up merge passes, all sequential; the host runs
 * algo::sortRun's radix sort, so equal keys keep their input order.
 *
 * When hostShards grants more than one shard, two host threads each
 * radix-sort one half of the entries into that half of the scratch
 * block (algo::sortRunInto), and one mergeRunsParallel merges the two
 * sorted halves back into the KPA. A stable sort has only one
 * possible output, so this is the serial sort's, entry for entry.
 */
inline void
sortKpa(Ctx ctx, Kpa &k)
{
    if (k.sorted())
        return;
    const size_t n = k.size();
    if (n > 1) {
        // Skip the scratch allocation and the host sort when the
        // entries are already ordered (timestamp-extracted KPAs from
        // in-order streams). The simulated machine still sorts — the
        // charges below depend only on n, never on the host path.
        KpEntry *e = k.entries();
        if (!algo::isSortedByKey(e, n)) {
            // Scratch lives on the same tier while the sort runs.
            mem::Block scratch =
                ctx.hm.alloc(n * sizeof(KpEntry), k.tier());
            auto *tmp = static_cast<KpEntry *>(scratch.ptr);
            if (detail::hostShards(ctx, n) > 1) {
                const size_t h = n / 2;
                ctx.pool->parallelFor(2, [&](uint32_t s) {
                    const size_t lo = s == 0 ? 0 : h;
                    algo::sortRunInto(e + lo, s == 0 ? h : n - h,
                                      tmp + lo);
                });
                algo::mergeRunsParallel(tmp, h, tmp + h, n - h, e,
                                        *ctx.pool);
            } else {
                algo::sortRun(e, n, tmp, /*precheck=*/false);
            }
            ctx.hm.free(scratch);
        }

        const int levels = algo::mergeLevels(n);
        // One block-sort pass plus one pass per merge level, each
        // streaming the KPA in and out (write-allocate included).
        ctx.hm.charge(ctx.log, k.tier(), AccessPattern::kSequential,
                      ctx.scaled(uint64_t(1 + levels)
                                 * cost::kSortBytesPerElemLevel * n));
        ctx.kernel(cost::kBitonicStages * cost::kBitonicNsPerElemStage
                       * static_cast<double>(n)
                   + cost::kMergeNsPerElem * static_cast<double>(n)
                         * levels);
    }
    k.setSorted(true);
}

/**
 * Merge (Table 2): merge two sorted KPAs into a new sorted KPA. When
 * hostShards grants more than one shard, mergeRunsParallel cuts the
 * output into one merge-path segment per pool thread.
 */
inline KpaPtr
merge(Ctx ctx, const Kpa &a, const Kpa &b, Placement place)
{
    sbhbm_assert(a.sorted() && b.sorted(), "merge requires sorted inputs");
    KpaPtr out = Kpa::create(ctx.hm, a.size() + b.size(),
                             ctx.place(place));
    if (detail::hostShards(ctx, uint64_t{a.size()} + b.size()) > 1) {
        algo::mergeRunsParallel(a.entries(), a.size(), b.entries(),
                                b.size(), out->entries(), *ctx.pool);
    } else {
        algo::mergeRuns(a.entries(), a.size(), b.entries(), b.size(),
                        out->entries());
    }
    out->setSizeUnsafe(a.size() + b.size());
    out->setSorted(true);
    out->setResidentColumn(a.residentColumn() == b.residentColumn()
                               ? a.residentColumn()
                               : columnar::kNoColumn);
    out->adoptSourcesFrom(a);
    out->adoptSourcesFrom(b);

    ctx.hm.charge(ctx.log, a.tier(), AccessPattern::kSequential,
                  ctx.scaled(a.bytes()));
    ctx.hm.charge(ctx.log, b.tier(), AccessPattern::kSequential,
                  ctx.scaled(b.bytes()));
    // Output pays write-allocate: RFO read + writeback.
    ctx.hm.charge(ctx.log, out->tier(), AccessPattern::kSequential,
                  ctx.scaled(2 * out->bytes()));
    ctx.kernel(cost::kMergeNsPerElem
               * static_cast<double>(a.size() + b.size()));
    return out;
}

} // namespace sbhbm::kpa

#endif // SBHBM_KPA_SORT_MERGE_H
