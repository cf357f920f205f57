/**
 * @file
 * Sort and merge kernels on key/pointer pairs (paper §4.2,
 * "Primitive Implementation").
 *
 * The paper's Sort bitonic-sorts blocks of 64 pairs, then merges them
 * bottom-up. kpa::sortKpa charges the simulated machine for exactly
 * that algorithm (kSortBlock, mergeLevels). The host runs a stable
 * radix sort instead: sortRun plans its digits over the key bits that
 * vary, the fewest counting-sort passes with digits of at most
 * kRadixDigitMaxBits bits, so once a run has a few thousand entries
 * the narrow keys of streaming windows (ids, bounded ranges) sort in
 * one or two sequential passes. Equal keys keep their input order.
 *
 * The merge kernels serve kpa::merge and the merge slices of
 * SortedRunsOp. mergeRuns is a stable merge: equal keys keep every
 * entry of the first run before every entry of the second, which is
 * the tie rule mergePathSplit and the merge tree rely on. It runs
 * branch-free from both ends at once: the front emits the smallest
 * remaining entry and the back the largest, each selecting its
 * source with a mask instead of a mispredicting branch.
 * mergeRunsSegment merges one slice of the output between two
 * binary-searched merge-path boundaries (paper §4.2: "the threads
 * slice chunks at key boundaries"); each merge slice of SortedRunsOp
 * is one segment. mergeRunsParallel cuts one merge into a segment per
 * thread of a host WorkerPool; its output is bit-for-bit mergeRuns'
 * at every thread count.
 *
 * kpa::merge and kpa::sortKpa take the pooled paths when
 * kpa::detail::hostShards grants their input more than one shard.
 * kpa::sortKpa then sorts the KPA as two halves at once, each with
 * sortRunInto into its half of the scratch block, and merges the
 * halves back with one mergeRunsParallel. A stable sort has only one
 * output, so this equals sortRun's. The radix passes themselves stay
 * serial: sharding each pass's count and scatter across threads lost
 * to the serial sort on 48 k entries.
 * Simulated timing is charged by the callers via the cost model, so
 * neither the host algorithm nor the host thread count ever affects
 * reported numbers.
 */

#ifndef SBHBM_ALGO_SORT_H
#define SBHBM_ALGO_SORT_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "columnar/record.h"
#include "common/logging.h"
#include "common/worker_pool.h"

namespace sbhbm::algo {

using columnar::KpEntry;

/**
 * Block size of the paper's bitonic kernel (64 pairs, §4.2); the cost
 * model charges the sort as blocks of this size plus merge levels.
 */
constexpr size_t kSortBlock = 64;

/** Entries below which sortRun insertion-sorts instead of radix. */
constexpr size_t kRadixSortMin = 64;

/**
 * Widest radix digit: a pass over 2^11 buckets. A digit wider than 8
 * bits is used only while its bucket count is at most the entry
 * count, since the histogram's clear and prefix sum grow with the
 * bucket count and outweigh the pass they save on short runs.
 */
constexpr unsigned kRadixDigitMaxBits = 11;

/** Stable insertion sort: sortRun's kernel below kRadixSortMin. */
inline void
insertionSort(KpEntry *e, size_t n)
{
    for (size_t i = 1; i < n; ++i) {
        const KpEntry v = e[i];
        size_t j = i;
        while (j > 0 && v.key < e[j - 1].key) {
            e[j] = e[j - 1];
            --j;
        }
        e[j] = v;
    }
}

/** @return @p take_x ? @p x : @p y, chosen by a mask, not a branch. */
inline const KpEntry *
selectEntry(bool take_x, const KpEntry *x, const KpEntry *y)
{
    const uintptr_t m = uintptr_t{0} - uintptr_t{take_x};
    return reinterpret_cast<const KpEntry *>(
        (reinterpret_cast<uintptr_t>(x) & m)
        | (reinterpret_cast<uintptr_t>(y) & ~m));
}

/**
 * Stable merge of two sorted runs into @p out: equal keys keep every
 * @p a entry before every @p b entry, as std::merge does.
 *
 * Branch-free from both ends. On random keys the classic loop's
 * "which side is smaller" branch is a coin flip, so each step selects
 * the source pointer with a mask instead. For min(na, nb) steps — at
 * most half the output, so the two ends never meet — the front emits
 * the smallest remaining entry (equal keys take @p a first) and the
 * back emits the largest (equal keys take @p b last): two independent
 * dependency chains per iteration, and neither end can run off its
 * inputs, so the loop needs no bounds checks. A branch-free one-ended
 * loop then merges whatever is left between them, and the side that
 * outlasts the other is copied.
 */
inline void
mergeRuns(const KpEntry *a, size_t na, const KpEntry *b, size_t nb,
          KpEntry *out)
{
    const KpEntry *ha = a, *hb = b;           // front heads
    const KpEntry *ta = a + na, *tb = b + nb; // back ends (exclusive)
    KpEntry *lo = out, *hi = out + na + nb;
    for (size_t s = std::min(na, nb); s > 0; --s) {
        const bool b_first = hb->key < ha->key;
        *lo++ = *selectEntry(b_first, hb, ha);
        hb += b_first;
        ha += !b_first;
        const bool a_last = tb[-1].key < ta[-1].key;
        *--hi = *selectEntry(a_last, ta - 1, tb - 1);
        ta -= a_last;
        tb -= !a_last;
    }
    while (ha != ta && hb != tb) {
        const bool b_first = hb->key < ha->key;
        *lo++ = *selectEntry(b_first, hb, ha);
        hb += b_first;
        ha += !b_first;
    }
    lo = std::copy(ha, ta, lo);
    std::copy(hb, tb, lo);
}

/**
 * Number of merge levels the paper's sort performs above its block
 * sort: the pass count the cost model charges for @p n entries.
 */
inline int
mergeLevels(size_t n)
{
    int levels = 0;
    for (size_t width = kSortBlock; width < n; width <<= 1)
        ++levels;
    return levels;
}

/** @return true when entries are nondecreasing by key. */
inline bool
isSortedByKey(const KpEntry *e, size_t n)
{
    for (size_t i = 1; i < n; ++i)
        if (e[i].key < e[i - 1].key)
            return false;
    return true;
}

namespace detail {

/**
 * The digits of one radix sort: @p passes counting-sort passes, pass
 * p on the digit (key >> shift[p]) & (2^width - 1). A digit is at
 * least one bit wide, so no cover of a 64-bit key has more than 64.
 */
struct DigitPlan
{
    unsigned width = 0;
    int passes = 0;
    unsigned shift[64] = {};
};

/**
 * Digits of @p width bits covering every bit set in @p varying,
 * greedily from the lowest: each digit starts at the lowest varying
 * bit the digits before it left uncovered, so bits that never vary
 * (below, between or above the varying ones) get no pass. Greedy
 * covering takes the fewest digits of that width.
 */
inline DigitPlan
coverBits(uint64_t varying, unsigned width)
{
    DigitPlan plan;
    plan.width = width;
    while (varying != 0) {
        const auto s = static_cast<unsigned>(std::countr_zero(varying));
        plan.shift[plan.passes++] = s;
        varying = s + width >= 64 ? 0 : varying >> (s + width) << (s + width);
    }
    return plan;
}

/**
 * The digit plan radixSort runs for @p n entries whose keys differ
 * from each other in the bits of @p varying (nonzero): the fewest
 * passes with digits at most 8 bits wide, or wider up to
 * kRadixDigitMaxBits while 2^width <= n, and of those the narrowest
 * digits that still make that many passes, for the smallest
 * histograms. 20-bit keys take two 10-bit passes from 1,024 entries
 * up, 64-bit keys six 11-bit passes from 2,048 up, and below 512
 * entries the passes are never more than one per varying byte.
 *
 * Narrowing pays on the runs streaming windows sort: against digits
 * of the cap's width, two 7-bit passes over 14-bit keys took 0.77-0.89
 * of the time at 1,024-50,000 entries, and one 7-bit pass 0.86-0.94 at
 * 1,024-4,096 (GCC 12, -O2, 4-vCPU VM). On 20-bit keys two 10-bit
 * passes took 0.93-1.05 of two 11-bit ones up to 50,000 entries. Only
 * runs of about a million entries, far longer than the bundles
 * pipelines sort, favour the cap's width: 14-bit keys took 1.25-1.45
 * times as long narrowed.
 */
inline DigitPlan
planDigits(uint64_t varying, size_t n)
{
    unsigned cap = 8;
    while (cap < kRadixDigitMaxBits && (size_t{2} << cap) <= n)
        ++cap;
    const int passes = coverBits(varying, cap).passes;
    // No digit covers more than width varying bits, so narrower digits
    // than popcount / passes cannot make that few passes.
    auto width = static_cast<unsigned>(
        (std::popcount(varying) + passes - 1) / passes);
    DigitPlan plan = coverBits(varying, width);
    while (plan.passes > passes)
        plan = coverBits(varying, ++width);
    return plan;
}

/**
 * The body of sortRun and sortRunInto: sorts @p data's @p n entries
 * and returns the buffer that holds them sorted. That is @p scratch
 * when the radix passes ran and @p to_scratch asks for it, else
 * @p data.
 */
inline KpEntry *
radixSort(KpEntry *data, size_t n, KpEntry *scratch, bool precheck,
          bool to_scratch)
{
    if (n <= 1)
        return data;
    if (n < kRadixSortMin) {
        insertionSort(data, n);
        return data;
    }
    const uint64_t first = data[0].key;
    uint64_t varying = 0;
    bool sorted = true;
    for (size_t i = 1; i < n; ++i) {
        varying |= data[i].key ^ first;
        sorted &= data[i - 1].key <= data[i].key;
    }
    if (precheck && sorted)
        return data;
    if (varying == 0)
        return data; // all keys equal
    sbhbm_assert(n <= UINT32_MAX, "radix bucket counts are 32-bit");
    const DigitPlan plan = planDigits(varying, n);
    const size_t buckets = size_t{1} << plan.width;
    const uint64_t mask = buckets - 1;

    // The passes alternate buffers, so the parity of the pass count
    // and the buffer wanted decide whether the first histogram scan
    // copies the input into scratch to start from there.
    const bool copy = (plan.passes % 2 == 1) != to_scratch;
    uint32_t hist[2][size_t{1} << kRadixDigitMaxBits];
    uint32_t *count = hist[0], *next = hist[1];
    std::memset(count, 0, buckets * sizeof(uint32_t));
    for (size_t i = 0; i < n; ++i) {
        ++count[(data[i].key >> plan.shift[0]) & mask];
        if (copy)
            scratch[i] = data[i];
    }
    KpEntry *src = copy ? scratch : data;
    KpEntry *dst = copy ? data : scratch;
    for (int p = 0; p < plan.passes; ++p) {
        uint32_t sum = 0;
        for (size_t d = 0; d < buckets; ++d) {
            const uint32_t digits = count[d];
            count[d] = sum;
            sum += digits;
        }
        const unsigned s = plan.shift[p];
        const bool more = p + 1 < plan.passes;
        const unsigned ns = more ? plan.shift[p + 1] : 0;
        if (more)
            std::memset(next, 0, buckets * sizeof(uint32_t));
        for (size_t i = 0; i < n; ++i) {
            const KpEntry e = src[i];
            if (more)
                ++next[(e.key >> ns) & mask];
            dst[count[(e.key >> s) & mask]++] = e;
        }
        std::swap(count, next);
        std::swap(src, dst);
    }
    return src; // the parity was fixed up front
}

} // namespace detail

/**
 * Stable sort of @p n entries by key in place, using @p scratch (at
 * least n entries): an LSD radix sort on the digits of
 * detail::planDigits.
 *
 * One scan ORs every key's difference from the first key, so only
 * the bits that vary get a pass; with @p precheck it also tests
 * whether the input is already sorted and then returns. Streaming
 * pipelines extract KPAs from time-ordered bundles, so sorting on the
 * timestamp column routinely sees fully sorted runs. Callers that
 * have already proven the input unsorted pass @p precheck false.
 *
 * Each pass scatters through per-digit cursors (32-bit, so n is at
 * most 2^32 - 1) and counts the next pass's digits on the way. The
 * passes ping-pong between @p data and @p scratch; with an odd pass
 * count the first histogram scan also copies the input into scratch,
 * so the last pass always writes into @p data and no copy-back pass
 * is needed.
 */
inline void
sortRun(KpEntry *data, size_t n, KpEntry *scratch, bool precheck = true)
{
    detail::radixSort(data, n, scratch, precheck, /*to_scratch=*/false);
}

/**
 * sortRun that leaves the sorted entries in @p scratch and @p data's
 * contents unspecified. The radix passes pick their starting buffer
 * so the last one writes into scratch: an odd pass count needs no
 * copy at all, where sortRun copies the input once. Inputs the passes
 * skip (short, sorted, all keys equal) are copied.
 */
inline void
sortRunInto(KpEntry *data, size_t n, KpEntry *scratch)
{
    if (detail::radixSort(data, n, scratch, /*precheck=*/true,
                          /*to_scratch=*/true)
        == data)
        std::copy(data, data + n, scratch);
}

/**
 * Merge-path split: find (ai, bi) with ai + bi == diag such that
 * merging a[0..ai) and b[0..bi) yields the first diag outputs of the
 * full merge. Used to slice one large merge across threads at key
 * boundaries (paper §4.2: "the threads slice chunks at key boundaries
 * to parallelize the task of merging fewer, but larger chunks").
 */
inline void
mergePathSplit(const KpEntry *a, size_t na, const KpEntry *b, size_t nb,
               size_t diag, size_t *ai, size_t *bi)
{
    sbhbm_assert(diag <= na + nb, "diagonal out of range");
    size_t lo = diag > nb ? diag - nb : 0;
    size_t hi = std::min(diag, na);
    while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        // a[mid] vs b[diag - mid - 1]: is a[mid] on the output side?
        if (b[diag - mid - 1].key < a[mid].key)
            hi = mid;
        else
            lo = mid + 1;
    }
    *ai = lo;
    *bi = diag - lo;
}

/**
 * Compute outputs [d0, d1) of mergeRuns(a, na, b, nb, out) without
 * touching the rest: both diagonals are merge-path-split, then the
 * enclosed sub-runs are merged. Writes exactly the bytes the full
 * merge would, so disjoint segments may run concurrently.
 *
 * @return the entries the segment took from @p a and from @p b.
 */
inline std::pair<size_t, size_t>
mergeRunsSegment(const KpEntry *a, size_t na, const KpEntry *b, size_t nb,
                 KpEntry *out, size_t d0, size_t d1)
{
    size_t ai0, bi0, ai1, bi1;
    mergePathSplit(a, na, b, nb, d0, &ai0, &bi0);
    mergePathSplit(a, na, b, nb, d1, &ai1, &bi1);
    mergeRuns(a + ai0, ai1 - ai0, b + bi0, bi1 - bi0, out + d0);
    return {ai1 - ai0, bi1 - bi0};
}

/**
 * mergeRuns with the output cut into one merge-path segment per
 * thread of @p pool. Bit-identical to mergeRuns at every thread count
 * (merge-path segments partition the output exactly; ties resolve
 * a-first on every path); a segment may be empty.
 */
inline void
mergeRunsParallel(const KpEntry *a, size_t na, const KpEntry *b,
                  size_t nb, KpEntry *out, WorkerPool &pool)
{
    const size_t total = na + nb;
    const uint32_t segs = pool.threads();
    pool.parallelFor(segs, [=](uint32_t s) {
        mergeRunsSegment(a, na, b, nb, out, total * s / segs,
                         total * (s + 1) / segs);
    });
}

} // namespace sbhbm::algo

#endif // SBHBM_ALGO_SORT_H
