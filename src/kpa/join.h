/**
 * @file
 * The Join primitive of Table 2: a sort-merge join of two sorted KPAs
 * that emits full output rows.
 */

#ifndef SBHBM_KPA_JOIN_H
#define SBHBM_KPA_JOIN_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "algo/sort.h"
#include "columnar/bundle.h"
#include "common/logging.h"
#include "kpa/ctx.h"
#include "kpa/kpa.h"

namespace sbhbm::kpa {

namespace detail {

/**
 * @return true when @p cols is a run c, c+1, c+2, ... of 3 or more
 * columns. gatherCols copies such a payload with one memcpy; a shorter
 * or scattered one is cheaper stored column by column than with a
 * libc call per 8-byte column.
 */
inline bool
isWideRun(const std::vector<ColumnId> &cols)
{
    for (size_t i = 1; i < cols.size(); ++i)
        if (cols[i] != cols[i - 1] + 1)
            return false;
    return cols.size() >= 3;
}

/** Copy columns @p cols[0, n) of @p row to @p dst (see isWideRun). */
inline void
gatherCols(uint64_t *dst, const uint64_t *row, const ColumnId *cols,
           size_t n, bool wide)
{
    if (wide) {
        std::memcpy(dst, row + cols[0], n * sizeof(uint64_t));
        return;
    }
    for (size_t c = 0; c < n; ++c)
        dst[c] = row[cols[c]];
}

} // namespace detail

/**
 * Join (Table 2): sort-merge join two sorted KPAs by resident key.
 * Emits one record per key match: {key, l payload cols, r payload
 * cols}, reading payloads through the record pointers (random).
 *
 * One merge scan steps both cursors on comparison results instead of
 * branching on which key is smaller, and records each matching key
 * run as {i, i_end, j, j_end} while it sums the match count, so the
 * output bundle is sized exactly. Each run takes at least one entry a
 * side, so min(ln, rn) bounds the run list. The emit step then reads
 * rows for the matching runs only (about 3% of the entries on the
 * temporal join), in key order with x outer and y inner. It prefetches
 * up to 4 rows a side of the run kPrefetchAhead runs ahead, and keeps
 * a rolling batch inside runs longer than kPrefetchAhead.
 *
 * With hostShards(ctx, ln + rn) shards, the input is split at
 * shards - 1 pivot keys, taken at evenly spaced algo::mergePathSplit
 * diagonals and lower_bound on both sides, so no key run crosses a
 * shard. Each shard scans into its own slice of the run list and sums
 * its own match count; after the one bundle is allocated, each emits
 * at its prefix offset. Shard runs in shard order are the serial run
 * list, so every row lands where the serial scan puts it.
 */
inline BundleHandle
join(Ctx ctx, const Kpa &l, const Kpa &r,
     const std::vector<ColumnId> &l_cols,
     const std::vector<ColumnId> &r_cols)
{
    sbhbm_assert(l.sorted() && r.sorted(), "join requires sorted inputs");
    const uint32_t out_cols =
        1 + static_cast<uint32_t>(l_cols.size() + r_cols.size());
    const KpEntry *le = l.entries();
    const KpEntry *re = r.entries();
    const uint32_t ln = l.size();
    const uint32_t rn = r.size();

    struct KeyRun
    {
        uint32_t i, i_end, j, j_end;
    };
    /** Entries [i0, i1) x [j0, j1), and where its runs go. */
    struct Shard
    {
        uint32_t i0, i1, j0, j1;
        size_t run0 = 0;   //!< first slot of its run-list slice
        size_t n_runs = 0; //!< key runs the scan found
        uint64_t m = 0;    //!< rows those runs emit
        uint64_t row0 = 0; //!< output row of its first match
    };
    const uint32_t n_shards = detail::hostShards(ctx, uint64_t{ln} + rn);
    std::vector<Shard> shards(n_shards);
    uint32_t cut_i = 0, cut_j = 0;
    size_t run_slots = 0;
    for (uint32_t s = 0; s < n_shards; ++s) {
        Shard &sh = shards[s];
        sh.i0 = cut_i;
        sh.j0 = cut_j;
        if (s + 1 < n_shards) {
            // The merge's entry at this diagonal is the pivot: every
            // entry below it goes left, every copy of it right.
            size_t ai = 0, bi = 0;
            algo::mergePathSplit(
                le, ln, re, rn,
                detail::shardLo(uint64_t{ln} + rn, s + 1, n_shards), &ai,
                &bi);
            const uint64_t pivot =
                bi == rn || (ai < ln && le[ai].key <= re[bi].key)
                    ? le[ai].key
                    : re[bi].key;
            auto key_below = [](const KpEntry &x, uint64_t key) {
                return x.key < key;
            };
            cut_i = static_cast<uint32_t>(
                std::lower_bound(le + cut_i, le + ln, pivot, key_below)
                - le);
            cut_j = static_cast<uint32_t>(
                std::lower_bound(re + cut_j, re + rn, pivot, key_below)
                - re);
        } else {
            cut_i = ln;
            cut_j = rn;
        }
        sh.i1 = cut_i;
        sh.j1 = cut_j;
        // Each run takes at least one entry a side.
        sh.run0 = run_slots;
        run_slots += std::min(sh.i1 - sh.i0, sh.j1 - sh.j0);
    }
    const auto runs = std::make_unique_for_overwrite<KeyRun[]>(run_slots);

    detail::forEachShard(ctx, n_shards, [&](uint32_t s) {
        Shard &sh = shards[s];
        KeyRun *out_runs = runs.get() + sh.run0;
        const uint32_t i1 = sh.i1, j1 = sh.j1;
        size_t n_runs = 0;
        uint64_t m_wide = 0;
        for (uint32_t i = sh.i0, j = sh.j0; i < i1 && j < j1;) {
            const uint64_t a = le[i].key;
            const uint64_t b = re[j].key;
            if (a == b) {
                uint32_t i_end = i + 1;
                while (i_end < i1 && le[i_end].key == a)
                    ++i_end;
                uint32_t j_end = j + 1;
                while (j_end < j1 && re[j_end].key == a)
                    ++j_end;
                out_runs[n_runs++] = {i, i_end, j, j_end};
                m_wide += uint64_t{i_end - i} * (j_end - j);
                i = i_end;
                j = j_end;
            }
            i += a < b;
            j += b < a;
        }
        sh.n_runs = n_runs;
        sh.m = m_wide;
    });
    // Each shard's rows follow the rows of the shards before it.
    uint64_t m_wide = 0;
    for (Shard &sh : shards) {
        sh.row0 = m_wide;
        m_wide += sh.m;
    }
    sbhbm_assert(m_wide <= UINT32_MAX, "join output overflows a bundle");
    const auto m = static_cast<uint32_t>(m_wide);

    Bundle *out = Bundle::create(ctx.hm, out_cols,
                                 std::max<uint32_t>(m, 1));
    if (m > 0) {
        constexpr uint32_t kRunPrefetchRows = 4;
        const size_t nl = l_cols.size();
        const size_t nr = r_cols.size();
        const ColumnId *lc = l_cols.data();
        const ColumnId *rc = r_cols.data();
        const bool l_wide = detail::isWideRun(l_cols);
        const bool r_wide = detail::isWideRun(r_cols);
        auto prefetch_run = [&](const KeyRun &run) {
            const uint32_t nx =
                nl == 0 ? 0 : std::min(run.i_end - run.i, kRunPrefetchRows);
            const uint32_t ny =
                nr == 0 ? 0 : std::min(run.j_end - run.j, kRunPrefetchRows);
            for (uint32_t x = 0; x < nx; ++x)
                detail::prefetchRow(le[run.i + x].row);
            for (uint32_t y = 0; y < ny; ++y)
                detail::prefetchRow(re[run.j + y].row);
        };
        uint64_t *const dst0 = out->appendBlockRaw(m);
        detail::forEachShard(ctx, n_shards, [&](uint32_t s) {
            const KeyRun *sh_runs = runs.get() + shards[s].run0;
            const size_t n_runs = shards[s].n_runs;
            for (size_t k = 0; k < n_runs && k < detail::kPrefetchAhead;
                 ++k)
                prefetch_run(sh_runs[k]);
            uint64_t *dst = dst0 + shards[s].row0 * out_cols;
            for (size_t k = 0; k < n_runs; ++k) {
                if (k + detail::kPrefetchAhead < n_runs)
                    prefetch_run(sh_runs[k + detail::kPrefetchAhead]);
                const KeyRun run = sh_runs[k];
                const uint64_t key = le[run.i].key;
                for (uint32_t x = run.i; x < run.i_end; ++x) {
                    if (nl != 0 && x + detail::kPrefetchAhead < run.i_end)
                        detail::prefetchRow(
                            le[x + detail::kPrefetchAhead].row);
                    const uint64_t *lrow = le[x].row;
                    for (uint32_t y = run.j; y < run.j_end; ++y) {
                        // The first sweep over a long right run fetches
                        // its rows a batch ahead; later sweeps hit the
                        // cache.
                        if (x == run.i && nr != 0
                            && y + detail::kPrefetchAhead < run.j_end)
                            detail::prefetchRow(
                                re[y + detail::kPrefetchAhead].row);
                        dst[0] = key;
                        detail::gatherCols(dst + 1, lrow, lc, nl, l_wide);
                        detail::gatherCols(dst + 1 + nl, re[y].row, rc,
                                           nr, r_wide);
                        dst += out_cols;
                    }
                }
            }
        });
    }

    ctx.hm.charge(ctx.log, l.tier(), AccessPattern::kSequential,
                  ctx.scaled(l.bytes()));
    ctx.hm.charge(ctx.log, r.tier(), AccessPattern::kSequential,
                  ctx.scaled(r.bytes()));
    if (m > 0) {
        const uint32_t lrec = l_cols.empty() ? 0 : l.recordCols();
        const uint32_t rrec = r_cols.empty() ? 0 : r.recordCols();
        uint64_t touch = 0;
        if (!l_cols.empty())
            touch += uint64_t{m} * rowTouchBytes(lrec);
        if (!r_cols.empty())
            touch += uint64_t{m} * rowTouchBytes(rrec);
        ctx.hm.charge(ctx.log, mem::Tier::kDram, AccessPattern::kRandom,
                      touch);
        ctx.hm.charge(ctx.log, out->tier(), AccessPattern::kSequential,
                      out->dataBytes());
    }
    ctx.log.cpuVector(cost::kMergeNsPerElem
                      * static_cast<double>(l.size() + r.size()));
    ctx.log.cpu(cost::kEmitNsPerRec * m);
    return BundleHandle::adopt(out);
}

} // namespace sbhbm::kpa

#endif // SBHBM_KPA_JOIN_H
