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
#include <utility>
#include <vector>

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
 * The ranges must never decrease along the input. Sources stamp
 * timestamps in arrival order, so windowing a time-ordered KPA meets
 * this, and every range is one contiguous span. A sorted flag proves
 * the order up front; otherwise one pass checks it and aborts on the
 * first step back. Each range's end is then binary-searched by key
 * and its span copied with one memcpy: partitions come out in
 * ascending range order, each keeping its entries' input order, and
 * every charge depends on sizes alone. Both passes divide once per
 * range, not once per entry.
 */
inline std::vector<RangePartition>
partitionByRange(Ctx ctx, const Kpa &src, uint64_t range_width,
                 Placement place)
{
    sbhbm_assert(range_width > 0, "zero partition width");
    const KpEntry *e = src.entries();
    const uint32_t n = src.size();

    // Order check: compare each key with the current range, dividing
    // only where a new range starts. Keys may come in any order within
    // a range; a key below the range's lower bound steps back to an
    // earlier one. One unsigned compare per entry tests both ends: a
    // key below lo wraps past span, which the key space's top, partial
    // range cuts short at UINT64_MAX.
    if (!src.sorted()) {
        uint64_t lo = 0;                 // current range * range_width
        uint64_t span = range_width - 1; // its last key - lo
        for (const KpEntry *p = e; p != e + n; ++p) {
            if (p->key - lo > span) {
                sbhbm_assert(p->key >= lo,
                             "partition ranges must never decrease: "
                             "entry %td steps back below key %llu",
                             p - e, (unsigned long long)lo);
                lo = p->key - p->key % range_width;
                span = std::min(range_width - 1, UINT64_MAX - lo);
            }
        }
    }

    std::vector<RangePartition> out;
    uint32_t i = 0;
    while (i < n) {
        const uint64_t rg = e[i].key / range_width;
        // The range's last key, rg * width + width - 1, saturating:
        // the top range of the key space may be partial.
        const uint64_t lo = rg * range_width;
        const uint64_t last = lo + std::min(range_width - 1, UINT64_MAX - lo);
        const KpEntry *end = std::upper_bound(
            e + i, e + n, last, [](uint64_t key, const KpEntry &x) {
                return key < x.key;
            });
        const auto len = static_cast<uint32_t>(end - (e + i));
        RangePartition rp;
        rp.range = rg;
        rp.part = Kpa::create(ctx.hm, len, ctx.place(place));
        rp.part->setResidentColumn(src.residentColumn());
        rp.part->adoptSourcesFrom(src);
        std::memcpy(rp.part->appendCursor(), e + i,
                    uint64_t{len} * sizeof(KpEntry));
        rp.part->commitAppend(len);
        out.push_back(std::move(rp));
        i += len;
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
