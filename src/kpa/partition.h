/**
 * @file
 * The Partition primitive of Table 2: split a KPA by ranges of
 * resident keys. It runs serially: its input is one bundle's KPA,
 * below the size at which kernels shard across the host pool.
 */

#ifndef SBHBM_KPA_PARTITION_H
#define SBHBM_KPA_PARTITION_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "algo/hash_table.h"
#include "common/fast_divide.h"
#include "common/logging.h"
#include "kpa/ctx.h"
#include "kpa/kpa.h"

namespace sbhbm::kpa {

/** One output partition of partitionByRange. */
struct RangePartition
{
    uint64_t range = 0; //!< key / range_width
    KpaPtr part;
};

/**
 * Partition (Table 2): split a KPA by ranges of resident keys
 * (windowing uses the timestamp column as key and the window length
 * as range width). Outputs inherit the input's source links.
 *
 * The host takes one of three paths, chosen by the input's order and
 * extent. All three emit the same partitions in ascending range
 * order, each keeping its entries' input order, and every charge
 * depends on sizes alone:
 *
 *  - span: the ranges never decrease along the input, so every range
 *    is one contiguous span, copied with one memcpy. A sorted flag
 *    proves this up front; otherwise one pass checks it before any
 *    range is memoized. Generators stamp ascending timestamps, so
 *    windowing a time-ordered KPA lands here.
 *  - dense: the ranges span at most n + 1023 ids, so a count pass and
 *    a scatter pass go through direct-indexed cursor arrays.
 *  - sparse: a hash pass assigns dense ids to the distinct ranges.
 */
inline std::vector<RangePartition>
partitionByRange(Ctx ctx, const Kpa &src, uint64_t range_width,
                 Placement place)
{
    sbhbm_assert(range_width > 0, "zero partition width");
    const KpEntry *e = src.entries();
    const uint32_t n = src.size();
    std::vector<RangePartition> out;

    auto makePartition = [&](uint64_t rg, uint32_t len) {
        RangePartition rp;
        rp.range = rg;
        rp.part = Kpa::create(ctx.hm, len, ctx.place(place));
        rp.part->setResidentColumn(src.residentColumn());
        rp.part->adoptSourcesFrom(src);
        out.push_back(std::move(rp));
        return out.back().part.get();
    };

    // A runtime 64-bit division is a per-element hot cost, so every
    // path divides by the invariant width via multiply-high.
    const FastDivider by_width(range_width);

    // Span path: binary-search each range's end, then bulk-copy the
    // span. Needs ranges that never decrease along the input.
    auto copySpans = [&] {
        uint32_t i = 0;
        while (i < n) {
            const uint64_t rg = by_width.divide(e[i].key);
            const KpEntry *end = std::upper_bound(
                e + i, e + n, rg,
                [&by_width](uint64_t range, const KpEntry &x) {
                    return range < by_width.divide(x.key);
                });
            const auto len = static_cast<uint32_t>(end - (e + i));
            Kpa *part = makePartition(rg, len);
            std::memcpy(part->appendCursor(), e + i,
                        uint64_t{len} * sizeof(KpEntry));
            part->commitAppend(len);
            i += len;
        }
    };

    // Order check: do the ranges never decrease? It stops at the
    // first step back, so unordered input pays little for it.
    bool ordered = true;
    if (!src.sorted()) {
        uint64_t prev_rg = 0;
        for (uint32_t i = 0; i < n && ordered; ++i) {
            const uint64_t rg = by_width.divide(e[i].key);
            ordered = rg >= prev_rg;
            prev_rg = rg;
        }
    }

    if (ordered) {
        copySpans();
    } else {
        // Unordered input: compute every entry's range once more and
        // memo its low 32 bits: when the dense gate below passes,
        // rg - min_rg < 2^32, so uint32 wrap-around arithmetic on the
        // low bits reproduces the exact span offset at half the memo
        // traffic of full ranges. The same pass finds the extremes.
        const auto rg_lo = std::make_unique_for_overwrite<uint32_t[]>(n);
        uint64_t min_rg = ~uint64_t{0}, max_rg = 0;
        for (uint32_t i = 0; i < n; ++i) {
            const uint64_t rg = by_width.divide(e[i].key);
            rg_lo[i] = static_cast<uint32_t>(rg);
            min_rg = std::min(min_rg, rg);
            max_rg = std::max(max_rg, rg);
        }
        const uint64_t extent = max_rg - min_rg;
        if (extent <= uint64_t{n} + 1023 && extent < UINT32_MAX) {
            // Dense ranges: count and scatter through direct-indexed
            // cursor arrays — no hashing. The gate takes extent =
            // span - 1 so the full-keyspace case (max - min ==
            // 2^64 - 1) cannot wrap span to 0, and requires it to fit
            // 32 bits: the memo only holds low bits, so distinct
            // ranges 2^32 apart would alias onto one partition.
            const uint64_t span = extent + 1;
            const auto min_lo = static_cast<uint32_t>(min_rg);
            std::vector<uint32_t> count_by_rg(span, 0);
            for (uint32_t j = 0; j < n; ++j)
                ++count_by_rg[rg_lo[j] - min_lo];
            std::vector<KpEntry *> cursor(span, nullptr);
            for (uint64_t s = 0; s < span; ++s) {
                if (count_by_rg[s] == 0)
                    continue; // absent range: no partition
                Kpa *part = makePartition(
                    min_rg + s, count_by_rg[s]); // ascending ranges
                cursor[s] = part->appendCursor();
            }
            for (uint32_t j = 0; j < n; ++j)
                *cursor[rg_lo[j] - min_lo]++ = e[j];
            for (auto &rp : out)
                rp.part->commitAppend(count_by_rg[rp.range - min_rg]);
        } else {
            // Sparse ranges (rare: more distinct ranges than entries
            // plus slack): one hash pass for per-range counts,
            // overwriting the memo with each entry's dense id (< n,
            // so it fits) to spare the fill pass a divide + probe...
            algo::HashTable<uint32_t> index(n);
            std::vector<std::pair<uint64_t, uint32_t>> counts;
            for (uint32_t j = 0; j < n; ++j) {
                const uint64_t rg = by_width.divide(e[j].key);
                const size_t known = index.size();
                uint32_t &d = index.findOrInsert(rg);
                if (index.size() != known) { // first appearance
                    d = static_cast<uint32_t>(counts.size());
                    counts.emplace_back(rg, 0);
                }
                ++counts[d].second;
                rg_lo[j] = d;
            }
            // ...partitions in ascending range order, exactly sized...
            std::vector<uint32_t> order(counts.size());
            for (uint32_t d = 0; d < order.size(); ++d)
                order[d] = d;
            std::sort(order.begin(), order.end(),
                      [&counts](uint32_t a, uint32_t b) {
                          return counts[a].first < counts[b].first;
                      });
            std::vector<KpEntry *> cursor(counts.size());
            out.reserve(counts.size());
            for (uint32_t d : order) {
                Kpa *part =
                    makePartition(counts[d].first, counts[d].second);
                cursor[d] = part->appendCursor();
            }
            // ...then one dense-id-memoized fill pass (stable per
            // range).
            for (uint32_t j = 0; j < n; ++j)
                *cursor[rg_lo[j]]++ = e[j];
            for (size_t k = 0; k < out.size(); ++k)
                out[k].part->commitAppend(counts[order[k]].second);
        }
    }
    for (auto &rp : out)
        rp.part->setSorted(src.sorted());

    ctx.hm.charge(ctx.log, src.tier(), AccessPattern::kSequential,
                  ctx.scaled(src.bytes()));
    for (const auto &rp : out)
        ctx.hm.charge(ctx.log, rp.part->tier(), AccessPattern::kSequential,
                      ctx.scaled(rp.part->bytes()));
    ctx.kernel(cost::kPartitionNsPerRec * src.size());
    return out;
}

} // namespace sbhbm::kpa

#endif // SBHBM_KPA_PARTITION_H
