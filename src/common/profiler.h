/**
 * @file
 * Cheap per-window input statistics for adaptive kernel selection.
 *
 * Estimators sample the data already flowing through the grouping
 * kernels — no extra passes over the full input:
 *
 *  - sortedness: fraction of sampled adjacent pairs in nondecreasing
 *    key order (inversion sampling). 1.0 means "no sampled inversion";
 *    a single sampled inversion *proves* the input unsorted, which
 *    lets kernels skip a full O(n) presort scan that cannot succeed.
 *  - duplicate factor / group cardinality: distinct keys among a
 *    fixed-size sample through a small open-addressing set.
 *
 * Everything here is a pure function of the input bytes — fixed
 * sample positions, no RNG, no clocks — so the same stream produces
 * the same statistics on every run, which is what keeps adaptive
 * decisions (and therefore CostLogs) deterministic per seed.
 *
 * KernelAdapt is the plain hook block kpa::Ctx carries when adaptive
 * execution is on: decision bits written by the runtime policy
 * (src/runtime/adaptive.h) and consumed by the kernels, plus
 * kernel-side observations flowing back. It lives here, not in
 * runtime/, so the kpa layer never depends on the runtime layer.
 */

#ifndef SBHBM_COMMON_PROFILER_H
#define SBHBM_COMMON_PROFILER_H

#include <cstdint>

namespace sbhbm {

/** Smoothing factor of every adaptive-execution EWMA. */
constexpr double kEwmaAlpha = 0.4;

/** Exponentially weighted moving average over window statistics. */
struct Ewma
{
    double v = 0;
    bool init = false;

    void
    add(double x)
    {
        v = init ? kEwmaAlpha * x + (1.0 - kEwmaAlpha) * v : x;
        init = true;
    }

    double value() const { return v; }
    bool initialized() const { return init; }
};

/** Statistics of one sampled run/window of keyed entries. */
struct WindowStats
{
    uint64_t rows = 0;
    /** Fraction of sampled adjacent pairs with no inversion (0..1). */
    double sortedness = 1.0;
    /** Sampled keys per distinct sampled key (>= 1). */
    double dup_factor = 1.0;
    /** Coarse distinct-group estimate (order of magnitude). */
    double est_groups = 0.0;
};

/** Adjacent pairs / keys inspected per run (fixed, deterministic). */
constexpr uint32_t kProfileSamples = 128;

/**
 * Sampled sortedness of @p n entries with a `.key` member: fraction
 * of kProfileSamples adjacent pairs, taken at a fixed stride, that
 * are in nondecreasing order. Returns 1.0 for n < 2. A result below
 * 1.0 proves the input unsorted; 1.0 only means no sampled pair
 * inverted (a lone inversion between sample points can hide).
 */
template <typename E>
inline double
sampleSortedness(const E *e, uint32_t n)
{
    if (n < 2)
        return 1.0;
    const uint32_t pairs = n - 1;
    const uint32_t samples =
        pairs < kProfileSamples ? pairs : kProfileSamples;
    const uint32_t stride = pairs / samples; // >= 1
    uint32_t ordered = 0;
    for (uint32_t s = 0; s < samples; ++s) {
        const uint32_t i = s * stride;
        ordered += e[i].key <= e[i + 1].key ? 1u : 0u;
    }
    return static_cast<double>(ordered) / static_cast<double>(samples);
}

/**
 * Sample sortedness, duplicate factor and group cardinality of one
 * run in a single pass over at most 2 * kProfileSamples entries.
 *
 * Cardinality estimation is deliberately coarse (the policy only
 * needs the dup regime, not an exact G): when most sampled keys
 * repeat, the sample saturates at the true distinct count and
 * est_groups is the sampled distinct count itself; when the sample is
 * mostly unique, distinct count scales up with n.
 */
template <typename E>
inline WindowStats
sampleRunStats(const E *e, uint32_t n)
{
    WindowStats st;
    st.rows = n;
    if (n == 0)
        return st;
    st.sortedness = sampleSortedness(e, n);

    // Distinct keys among up to kProfileSamples sampled keys, counted
    // through a fixed open-addressing set (load factor <= 1/4, so
    // linear probing always terminates).
    constexpr uint32_t kSlots = 4 * kProfileSamples; // power of two
    uint64_t keys[kSlots];
    bool used[kSlots] = {};
    const uint32_t samples = n < kProfileSamples ? n : kProfileSamples;
    const uint32_t stride = n / samples; // >= 1
    uint32_t distinct = 0;
    for (uint32_t s = 0; s < samples; ++s) {
        const uint64_t key = e[s * stride].key;
        uint32_t idx = static_cast<uint32_t>(
                           key * 0x9e3779b97f4a7c15ULL >> 32)
                       & (kSlots - 1);
        while (used[idx] && keys[idx] != key)
            idx = (idx + 1) & (kSlots - 1);
        if (!used[idx]) {
            used[idx] = true;
            keys[idx] = key;
            ++distinct;
        }
    }
    st.dup_factor = static_cast<double>(samples)
                    / static_cast<double>(distinct);
    // Saturated sample (heavy duplication): the distinct count IS the
    // group estimate. Mostly-unique sample: scale by the sampling
    // ratio.
    if (2 * distinct <= samples) {
        st.est_groups = distinct;
    } else {
        st.est_groups = static_cast<double>(n)
                        * static_cast<double>(distinct)
                        / static_cast<double>(samples);
    }
    return st;
}

/**
 * The adaptive hook block a kpa::Ctx points at (null = adaptation
 * off, kernels take their historical paths). Decision bits are
 * written by the per-operator policy between tasks; observation
 * fields are written by the kernels on the single-threaded control
 * path. Host-side only: nothing here is ever charged to a CostLog,
 * and none of these decisions changes simulated charges.
 */
struct KernelAdapt
{
    // --- decisions (policy-written, kernel-read) -------------------
    /** sortKpa: run the full O(n) presorted check before sorting. */
    bool sort_precheck = true;

    // --- observations (kernel-written, policy-read) ----------------
    Ewma sort_sortedness{}; //!< sampled sortedness at sort time

    // --- counters (telemetry) --------------------------------------
    uint64_t sorts = 0;
    uint64_t sorts_presorted = 0; //!< precheck hits (sort skipped)
};

} // namespace sbhbm

#endif // SBHBM_COMMON_PROFILER_H
