#include "algo/sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/worker_pool.h"

namespace sbhbm::algo {
namespace {

std::vector<KpEntry>
randomEntries(size_t n, uint64_t seed, uint64_t key_range = ~0ull)
{
    Rng rng(seed);
    std::vector<KpEntry> v(n);
    for (size_t i = 0; i < n; ++i) {
        v[i].key = key_range == ~0ull ? rng.next()
                                      : rng.nextBounded(key_range);
        // Row pointers double as identity tags for permutation checks.
        v[i].row = reinterpret_cast<uint64_t *>(i + 1);
    }
    return v;
}

/** Check out is a sorted permutation of in (keys AND attached rows). */
void
expectSortedPermutation(const std::vector<KpEntry> &in,
                        const std::vector<KpEntry> &out)
{
    ASSERT_EQ(in.size(), out.size());
    EXPECT_TRUE(isSortedByKey(out.data(), out.size()));
    // Every (key, row) pair must survive exactly once.
    std::map<std::pair<uint64_t, uint64_t *>, int> bag;
    for (const auto &e : in)
        ++bag[{e.key, e.row}];
    for (const auto &e : out)
        --bag[{e.key, e.row}];
    for (const auto &[k, v] : bag)
        ASSERT_EQ(v, 0) << "multiset mismatch";
}

TEST(MergeRuns, MergesTwoSortedRuns)
{
    auto a = randomEntries(100, 1);
    auto b = randomEntries(57, 2);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<KpEntry> out(157);
    mergeRuns(a.data(), a.size(), b.data(), b.size(), out.data());
    EXPECT_TRUE(isSortedByKey(out.data(), out.size()));
}

TEST(MergeRuns, EmptySideIsACopy)
{
    auto a = randomEntries(10, 3);
    std::sort(a.begin(), a.end());
    std::vector<KpEntry> out(10);
    mergeRuns(a.data(), a.size(), nullptr, 0, out.data());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(out[i].key, a[i].key);
}

TEST(MergeRuns, MatchesStableMergeEntryForEntry)
{
    // std::merge is the stable reference: equal keys keep every a
    // entry before every b entry. mergePathSplit and the merge tree
    // rely on that tie order, so compare rows, not just keys. Sizes
    // cover empty sides, single entries, lopsided runs (the two-ended
    // loop stops after min(na, nb) steps) and near-equal runs (it
    // meets in the middle).
    struct Keys
    {
        const char *name;
        uint64_t range; // 0: all equal; 1: {0, UINT64_MAX}
    };
    const Keys key_sets[] = {{"all equal", 0},
                             {"{0, UINT64_MAX}", 1},
                             {"100 values", 100},
                             {"10k values", 10'000},
                             {"1M values", 1'000'000}};
    const std::pair<size_t, size_t> shapes[] = {
        {0, 1000}, {1000, 0},   {1, 1},      {1, 1000},
        {1000, 1}, {5, 1000},   {999, 1000}, {1000, 1000}};
    uint64_t seed = 500;
    for (const Keys &ks : key_sets) {
        for (const auto &[na, nb] : shapes) {
            SCOPED_TRACE(testing::Message()
                         << ks.name << " " << na << "+" << nb);
            Rng rng(++seed);
            auto draw = [&](size_t n, uintptr_t tag) {
                std::vector<KpEntry> v(n);
                for (size_t i = 0; i < n; ++i) {
                    const uint64_t key =
                        ks.range == 0   ? 42
                        : ks.range == 1 ? (rng.nextBounded(2) != 0
                                               ? UINT64_MAX
                                               : 0)
                                        : rng.nextBounded(ks.range);
                    v[i] = KpEntry{key,
                                   reinterpret_cast<uint64_t *>(tag + i)};
                }
                std::stable_sort(v.begin(), v.end(),
                                 [](const KpEntry &x, const KpEntry &y) {
                                     return x.key < y.key;
                                 });
                return v;
            };
            const auto a = draw(na, 1);
            const auto b = draw(nb, 1 << 20);
            std::vector<KpEntry> expect(na + nb), out(na + nb);
            std::merge(a.begin(), a.end(), b.begin(), b.end(),
                       expect.begin(),
                       [](const KpEntry &x, const KpEntry &y) {
                           return x.key < y.key;
                       });
            mergeRuns(a.data(), na, b.data(), nb, out.data());
            for (size_t i = 0; i < na + nb; ++i) {
                ASSERT_EQ(out[i].key, expect[i].key) << "at " << i;
                ASSERT_EQ(out[i].row, expect[i].row) << "at " << i;
            }
        }
    }
}

class SortRunTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(SortRunTest, SortsArbitrarySizes)
{
    const size_t n = GetParam();
    auto v = randomEntries(n, 1000 + n);
    auto orig = v;
    std::vector<KpEntry> scratch(n);
    sortRun(v.data(), n, scratch.data());
    expectSortedPermutation(orig, v);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortRunTest,
                         ::testing::Values(0, 1, 2, 63, 64, 65, 127, 128,
                                           129, 1000, 4096, 8191, 10000,
                                           65536, 100001));

TEST(SortRun, ResultLandsInDataForBothMergeParities)
{
    // The ping-pong parity is fixed up front so no copy-back pass
    // runs: verify `data` holds the sorted result for an odd (one
    // varying byte: one pass) and an even (two varying bytes, the one
    // between them skipped: two passes) radix pass count.
    for (const uint64_t mask : {uint64_t{0xff}, uint64_t{0xff00ff}}) {
        for (const size_t n : {kRadixSortMin, size_t{1000}, size_t{8193}}) {
            SCOPED_TRACE(testing::Message() << "mask " << mask << " n " << n);
            auto v = randomEntries(n, 7000 + n);
            for (KpEntry &e : v)
                e.key &= mask;
            auto orig = v;
            std::vector<KpEntry> scratch(n);
            sortRun(v.data(), n, scratch.data());
            expectSortedPermutation(orig, v);
        }
    }
}

/** @return entries drawn from a small pool of keys base | (r & mask). */
std::vector<KpEntry>
pooledEntries(size_t n, uint64_t seed, uint64_t base, uint64_t mask,
              bool with_extremes)
{
    Rng rng(seed);
    std::vector<uint64_t> pool;
    if (with_extremes)
        pool = {0, UINT64_MAX};
    while (pool.size() < 40)
        pool.push_back(base | (rng.next() & mask));
    std::vector<KpEntry> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = KpEntry{pool[rng.nextBounded(pool.size())],
                       reinterpret_cast<uint64_t *>(i + 1)};
    return v;
}

TEST(SortRun, IsStable)
{
    // Every entry must land where std::stable_sort puts it, row
    // pointer included: equal keys keep their input order. The pools
    // repeat keys heavily, and each key set varies a different set of
    // bytes, so the passes run, skip and reorder every way they can.
    struct KeySet
    {
        const char *name;
        uint64_t base, mask;
        bool with_extremes;
    };
    const KeySet sets[] = {
        {"byte 0 only", 0x0123456789abcd00ull, 0xffull, false},
        {"byte 7 only", 0x00abcdef01234567ull, 0xff00000000000000ull,
         false},
        {"1 byte", 0, 0xffull, false},
        {"2 bytes", 0, 0xffffull, false},
        {"3 bytes", 0, 0xffffffull, false},
        {"all 8 bytes", 0, UINT64_MAX, true},
    };
    for (const KeySet &ks : sets) {
        for (const size_t n : {size_t{2}, kRadixSortMin - 1, kRadixSortMin,
                               kRadixSortMin + 1, size_t{1000},
                               size_t{50000}}) {
            SCOPED_TRACE(testing::Message() << ks.name << " n " << n);
            auto v = pooledEntries(n, 31 * n + ks.mask % 97, ks.base,
                                   ks.mask, ks.with_extremes);
            auto expect = v;
            std::stable_sort(expect.begin(), expect.end(),
                             [](const KpEntry &a, const KpEntry &b) {
                                 return a.key < b.key;
                             });
            std::vector<KpEntry> scratch(n);
            sortRun(v.data(), n, scratch.data());
            for (size_t i = 0; i < n; ++i) {
                ASSERT_EQ(v[i].key, expect[i].key) << "at " << i;
                ASSERT_EQ(v[i].row, expect[i].row) << "at " << i;
            }
        }
    }
}

TEST(SortRunInto, LandsInScratchAsSortRunLandsInData)
{
    // Odd and even pass counts (1, 2 and 3 varying bytes make 1, 2
    // and 3 passes), plus the inputs the passes skip: too short,
    // presorted and all keys equal.
    for (const uint64_t mask : {uint64_t{0xff}, uint64_t{0xff00ff},
                                uint64_t{0xffffff}, uint64_t{0}}) {
        for (const size_t n : {size_t{0}, size_t{1}, kRadixSortMin - 1,
                               kRadixSortMin, size_t{8193}}) {
            for (const bool presorted : {false, true}) {
                SCOPED_TRACE(testing::Message() << "mask " << mask << " n "
                                                << n << " presorted "
                                                << presorted);
                auto v = pooledEntries(n, 5 * n + mask % 89, 0, mask, false);
                if (presorted)
                    std::stable_sort(v.begin(), v.end(),
                                     [](const KpEntry &a, const KpEntry &b) {
                                         return a.key < b.key;
                                     });
                auto expect = v;
                std::vector<KpEntry> scratch(n);
                sortRun(expect.data(), n, scratch.data());
                std::vector<KpEntry> into(n);
                sortRunInto(v.data(), n, into.data());
                for (size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(into[i].key, expect[i].key) << "at " << i;
                    ASSERT_EQ(into[i].row, expect[i].row) << "at " << i;
                }
            }
        }
    }
}

/** The widest digit planDigits may use for @p n entries. */
unsigned
digitCap(size_t n)
{
    return n >= 2048 ? 11 : n >= 1024 ? 10 : n >= 512 ? 9 : 8;
}

TEST(SortRun, PlansTheFewestDigitsOverTheVaryingBits)
{
    struct Case
    {
        uint64_t varying;
        size_t n;
        int passes;
        unsigned width;
    };
    const Case cases[] = {
        {0x7f, 1 << 20, 1, 7},          // YSB campaign ids
        {0xfffff, 1 << 20, 2, 10},      // the join's 20-bit keys
        {0xfffff, 4 * kRadixSortMin, 3, 7},
        {0xfffff, 1023, 3, 7},          // 10-bit digits start at 1,024
        {0xfffff, 1024, 2, 10},
        {0x3fffff, 2047, 3, 8},         // 11-bit digits start at 2,048
        {0x3fffff, 2048, 2, 11},
        {0x1ff, 511, 2, 5},             // 9-bit digits start at 512
        {0x1ff, 512, 1, 9},
        {uint64_t{0xfffff} << 13, 1 << 20, 2, 10}, // low 13 bits fixed
        {0xff00ff, 100, 2, 8},          // the byte between gets no pass
        {~uint64_t{0}, 1 << 20, 6, 11},
        {~uint64_t{0}, 100, 8, 8},      // never more than one per byte
        {uint64_t{1} << 63, 100, 1, 1},
        // Sparse masks: the narrower widths the search tries first
        // need 9 to 16 digits.
        {0x1111111111111111, 100, 8, 5},
        {0x1111111111111111, 4096, 6, 9},
        {0x8181818181818181, 100, 8, 8},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message() << std::hex << "varying 0x"
                                        << c.varying << std::dec << " n "
                                        << c.n);
        const detail::DigitPlan plan = detail::planDigits(c.varying, c.n);
        EXPECT_EQ(plan.passes, c.passes);
        EXPECT_EQ(plan.width, c.width);
        // The digits cover every varying bit, lowest first.
        uint64_t covered = 0;
        for (int p = 0; p < plan.passes; ++p) {
            if (p > 0) {
                EXPECT_GE(plan.shift[p], plan.shift[p - 1] + plan.width);
            }
            covered |= ((uint64_t{1} << plan.width) - 1) << plan.shift[p];
        }
        EXPECT_EQ(c.varying & ~covered, 0u);
        EXPECT_EQ(plan.shift[0],
                  static_cast<unsigned>(std::countr_zero(c.varying)));
    }
}

/**
 * @return @p n entries whose keys vary in exactly the bits of @p mask,
 * every other bit fixed to one pattern, drawn from a pool of about
 * n / 8 keys so equal keys repeat.
 */
std::vector<KpEntry>
maskedEntries(size_t n, uint64_t mask, uint64_t seed)
{
    const uint64_t fixed = 0xa5a5a5a5a5a5a5a5ull & ~mask;
    Rng rng(seed);
    std::vector<uint64_t> pool = {fixed, fixed | mask}; // both extremes
    while (pool.size() < std::max<size_t>(n / 8, 3))
        pool.push_back(fixed | (rng.next() & mask));
    std::vector<KpEntry> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = KpEntry{pool[i < 2 ? i : rng.nextBounded(pool.size())],
                       reinterpret_cast<uint64_t *>(i + 1)};
    std::swap(v[0], v[n / 2]);
    return v;
}

/** Both sortRun and sortRunInto give std::stable_sort's order of @p v. */
void
expectStableSortOrder(const std::vector<KpEntry> &v)
{
    const size_t n = v.size();
    auto expect = v;
    std::stable_sort(expect.begin(), expect.end(),
                     [](const KpEntry &a, const KpEntry &b) {
                         return a.key < b.key;
                     });
    auto in_place = v;
    std::vector<KpEntry> scratch(n);
    sortRun(in_place.data(), n, scratch.data());
    auto from = v;
    std::vector<KpEntry> into(n);
    sortRunInto(from.data(), n, into.data());
    for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(in_place[i].key, expect[i].key) << "at " << i;
        ASSERT_EQ(in_place[i].row, expect[i].row) << "at " << i;
        ASSERT_EQ(into[i].key, expect[i].key) << "at " << i;
        ASSERT_EQ(into[i].row, expect[i].row) << "at " << i;
    }
}

TEST(SortRun, EveryDigitPlanMatchesStableSort)
{
    // Spans, most not byte-aligned, starting at bit 0 and above a run
    // of fixed low bits, at sizes just below and at each widening of
    // the digit cap. Contiguous spans make plans of one to six
    // passes, and both sortRun and sortRunInto must give
    // std::stable_sort's order, row pointers included.
    for (const unsigned bits : {1u, 7u, 11u, 12u, 20u, 22u, 23u, 33u, 44u,
                                55u, 64u}) {
        for (const unsigned lo : {0u, 13u}) {
            if (bits + lo > 64)
                continue;
            const uint64_t span =
                (bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1) << lo;
            for (const size_t n :
                 {kRadixSortMin, size_t{511}, size_t{512}, size_t{1023},
                  size_t{1024}, size_t{2047}, size_t{2048},
                  size_t{50'000}}) {
                SCOPED_TRACE(testing::Message() << bits << " bits from bit "
                                                << lo << ", n " << n);
                EXPECT_EQ(detail::planDigits(span, n).passes,
                          static_cast<int>((bits + digitCap(n) - 1)
                                           / digitCap(n)));
                expectStableSortOrder(
                    maskedEntries(n, span, 97 * n + bits + lo));
            }
        }
    }
    // Sparse masks, whose narrower trial digits need more passes than
    // a plan may keep.
    for (const uint64_t mask : {uint64_t{0x1111111111111111},
                                uint64_t{0x8181818181818181}}) {
        for (const size_t n : {kRadixSortMin, size_t{100}, size_t{2048},
                               size_t{4096}}) {
            SCOPED_TRACE(testing::Message() << std::hex << "mask 0x" << mask
                                            << std::dec << ", n " << n);
            expectStableSortOrder(maskedEntries(n, mask, 89 * n + mask % 83));
        }
    }
}

TEST(SortRun, AlreadySortedStaysSorted)
{
    auto v = randomEntries(5000, 5);
    std::vector<KpEntry> scratch(v.size());
    sortRun(v.data(), v.size(), scratch.data());
    auto copy = v;
    sortRun(v.data(), v.size(), scratch.data());
    for (size_t i = 0; i < v.size(); ++i)
        EXPECT_EQ(v[i].key, copy[i].key);
}

TEST(SortRun, HeavilySkewedKeysSortCorrectly)
{
    // Paper §6: "our grouping primitives, e.g. sort and merge, are
    // insensitive to key skewness" — at least they must be correct.
    auto v = randomEntries(10000, 6, /*key_range=*/3);
    auto orig = v;
    std::vector<KpEntry> scratch(v.size());
    sortRun(v.data(), v.size(), scratch.data());
    expectSortedPermutation(orig, v);
}

TEST(MergeLevels, CountsPassesAboveBlockSort)
{
    EXPECT_EQ(mergeLevels(64), 0);
    EXPECT_EQ(mergeLevels(65), 1);
    EXPECT_EQ(mergeLevels(128), 1);
    EXPECT_EQ(mergeLevels(129), 2);
    EXPECT_EQ(mergeLevels(64 * 1024), 10);
}

TEST(MergePathSplit, SplitsProduceValidPrefixes)
{
    auto a = randomEntries(1000, 11);
    auto b = randomEntries(800, 12);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());

    // Reference: full merge.
    std::vector<KpEntry> full(1800);
    mergeRuns(a.data(), a.size(), b.data(), b.size(), full.data());

    for (size_t diag : {0ul, 1ul, 500ul, 900ul, 1799ul, 1800ul}) {
        size_t ai = 0, bi = 0;
        mergePathSplit(a.data(), a.size(), b.data(), b.size(), diag, &ai,
                       &bi);
        ASSERT_EQ(ai + bi, diag);
        // Merging the two prefixes yields exactly the first diag outputs
        // of the full merge (by key; ties may permute).
        std::vector<KpEntry> part(diag);
        mergeRuns(a.data(), ai, b.data(), bi, part.data());
        for (size_t i = 0; i < diag; ++i)
            ASSERT_EQ(part[i].key, full[i].key) << "diag=" << diag;
    }
}

TEST(MergePathSplit, ParallelMergeViaSplitsEqualsSequentialMerge)
{
    auto a = randomEntries(4096, 21);
    auto b = randomEntries(4000, 22);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    const size_t total = a.size() + b.size();

    std::vector<KpEntry> expect(total);
    mergeRuns(a.data(), a.size(), b.data(), b.size(), expect.data());

    // Simulate 8 threads each merging one slice; each slice reports
    // the entries it took from either side, as its splits bound them.
    std::vector<KpEntry> out(total);
    const size_t threads = 8;
    for (size_t t = 0; t < threads; ++t) {
        const size_t d0 = total * t / threads;
        const size_t d1 = total * (t + 1) / threads;
        size_t a0, b0, a1, b1;
        mergePathSplit(a.data(), a.size(), b.data(), b.size(), d0, &a0,
                       &b0);
        mergePathSplit(a.data(), a.size(), b.data(), b.size(), d1, &a1,
                       &b1);
        const auto [from_a, from_b] = mergeRunsSegment(
            a.data(), a.size(), b.data(), b.size(), out.data(), d0, d1);
        EXPECT_EQ(from_a, a1 - a0) << "slice " << t;
        EXPECT_EQ(from_b, b1 - b0) << "slice " << t;
    }
    for (size_t i = 0; i < total; ++i)
        ASSERT_EQ(out[i].key, expect[i].key);
}

/**
 * Regression for sortRun's presorted early-out: nearly-sorted input
 * (exactly one inversion) must abandon the early-out at the inversion
 * and still produce correct output, wherever the inversion sits.
 */
TEST(SortRun, NearlySortedOneInversionStillSortsCorrectly)
{
    const size_t n = 5000; // several merge levels above the blocks
    // Inversion positions: front, inside the first block, straddling
    // a block boundary, mid-array, and the very last pair.
    for (const size_t p :
         {size_t{0}, size_t{30}, kSortBlock - 1, n / 2, n - 2}) {
        std::vector<KpEntry> v(n), scratch(n);
        for (size_t i = 0; i < n; ++i)
            v[i] = KpEntry{i, reinterpret_cast<uint64_t *>(i + 1)};
        std::swap(v[p], v[p + 1]); // the one inversion
        ASSERT_FALSE(isSortedByKey(v.data(), n));
        sortRun(v.data(), n, scratch.data());
        // Distinct keys: the sorted arrangement is unique, so the
        // payloads must come back to exactly their original slots.
        for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(v[i].key, i) << "inversion at " << p;
            ASSERT_EQ(v[i].row, reinterpret_cast<uint64_t *>(i + 1))
                << "inversion at " << p;
        }
    }
}

/** Same regression with duplicate keys. */
TEST(SortRun, NearlySortedWithDuplicatesMatchesSerialAtAllThreads)
{
    const size_t n = (size_t{1} << 15) + 100;
    std::vector<KpEntry> base(n);
    for (size_t i = 0; i < n; ++i)
        base[i] =
            KpEntry{i / 8, reinterpret_cast<uint64_t *>(i + 1)};
    std::swap(base[n / 3], base[n / 3 + 9]); // one out-of-place span
    auto orig = base;
    std::vector<KpEntry> scratch(n);
    auto serial = base;
    sortRun(serial.data(), n, scratch.data());
    expectSortedPermutation(orig, serial);
}

/**
 * The host pool may only change mergeRunsParallel's wall clock: at
 * every thread count its output is byte for byte mergeRuns', row
 * pointers included, also when the pool has more threads than the
 * merge has entries and some segments are empty.
 */
TEST(ParallelSort, MergeRunsParallelMatchesSerial)
{
    for (const auto &[na, nb] :
         {std::pair<size_t, size_t>{1u << 16, 1u << 16},
          {1u << 16, 777},
          {777, 1u << 16},
          {1u << 16, 0},
          {0, 1u << 16},
          {2, 3},
          {5, 0},
          {0, 1},
          {0, 0}}) {
        auto a = randomEntries(na, 11, 512);
        auto b = randomEntries(nb, 12, 512);
        std::vector<KpEntry> sa(na), sb(nb);
        sortRun(a.data(), na, sa.data());
        sortRun(b.data(), nb, sb.data());
        std::vector<KpEntry> serial(na + nb);
        mergeRuns(a.data(), na, b.data(), nb, serial.data());
        for (const unsigned threads : {1u, 2u, 3u, 8u}) {
            WorkerPool pool(threads);
            std::vector<KpEntry> par(na + nb);
            mergeRunsParallel(a.data(), na, b.data(), nb, par.data(),
                              pool);
            EXPECT_TRUE(serial.empty()
                        || std::memcmp(serial.data(), par.data(),
                                       serial.size() * sizeof(KpEntry))
                               == 0)
                << na << "+" << nb << " @" << threads;
        }
    }
}

} // namespace
} // namespace sbhbm::algo
