/**
 * @file
 * Adaptive query execution: per-operator, per-stream kernel-variant
 * selection from cheap window statistics (src/common/profiler.h).
 *
 * The tree carries pairs of strategies with workload-dependent
 * winners — presort check or not, scalar vs batched hash probing,
 * sort-merge vs hash-scatter grouping. Historically
 * each choice was frozen at build time or gated on a one-shot
 * sysconf guess. With EngineConfig::adaptive.enabled every Operator
 * owns an OpAdapt session: a VariantPolicy picks the grouping
 * variant for the *next* window from EWMA-smoothed stats of the
 * windows already seen, re-deciding as the stream drifts, with
 * hysteresis (a dead band plus consecutive-window confirmation) so
 * an oscillating stream cannot make it flap.
 *
 * Determinism contract. The grouping decision — the only one that
 * changes simulated charges — is a pure function of deterministically
 * sampled statistics: same seed => same stats => same decisions =>
 * CostLogs pinned. The sort-precheck bit changes host wall clock only
 * (charges depend only on sizes), and the probe prefetch/batch
 * autotune changes neither results nor charges, which is why it alone
 * may consult the host clock. With adaptation off
 * (the default) no hook is installed and every golden stays
 * bit-identical.
 */

#ifndef SBHBM_RUNTIME_ADAPTIVE_H
#define SBHBM_RUNTIME_ADAPTIVE_H

#include <chrono>
#include <cstdint>
#include <vector>

#include "algo/hash_table.h"
#include "common/profiler.h"

namespace sbhbm::runtime {

/** Grouping strategy for one window of a SortedRunsOp. */
enum class GroupVariant : uint8_t
{
    /** Sort each run, binary merge tree at close (the paper's path). */
    kSortMerge = 0,
    /** Keep runs unsorted; hash-scatter group at close (Hyrise-style
     *  AggregateHash). O(n + G log G): wins when G << n. */
    kHashScatter = 1,
};

inline const char *
variantName(GroupVariant v)
{
    return v == GroupVariant::kSortMerge ? "sort_merge" : "hash_scatter";
}

/** The adaptive plane's configuration (default: adaptation off). */
struct AdaptiveConfig
{
    /** Master switch. Off reproduces every historical golden bit for
     *  bit; operators then install no hooks at all. */
    bool enabled = false;
};

// Grouping-variant thresholds (dead band between the dup bounds).

/** Desire hash-scatter when the dup-factor EWMA is above this. */
constexpr double kDupHashMin = 8.0;
/** Desire sort-merge when the dup-factor EWMA is below this. */
constexpr double kDupSortMax = 3.0;
/** Desire sort-merge whenever sortedness is above this (sorted runs
 *  make the sort path nearly free, whatever the dup). */
constexpr double kSortedSortMin = 0.90;
/** Consecutive windows a new desire must persist before the policy
 *  actually switches (no-flap hysteresis). */
constexpr uint32_t kConfirmWindows = 2;

// Host-only sort precheck bit (hysteresis band).
constexpr double kPrecheckOn = 0.75;  //!< sort sortedness EWMA >= : precheck
constexpr double kPrecheckOff = 0.30; //!< <= : skip the presort scan

// Probe autotune (host wall clock; results/charges unaffected).
/** Measured ns/probe above which prefetching is enabled. */
constexpr double kProbePrefetchOnNs = 25.0;
/** Measured ns/probe below which prefetching is disabled. */
constexpr double kProbePrefetchOffNs = 12.0;

/** One grouping decision, as returned per window. */
struct GroupDecision
{
    GroupVariant variant = GroupVariant::kSortMerge;
    bool switched = false; //!< this decision changed the variant
};

/**
 * The deterministic decision core: EWMA window statistics in,
 * grouping variant (with hysteresis) out. No clocks, no RNG — a pure
 * fold over the observed stat stream, so a recorded decision log
 * replays bit-identically.
 */
class VariantPolicy
{
  public:
    /** Fold one run's sampled statistics into the EWMAs. */
    void
    observeRun(const WindowStats &s)
    {
        if (s.rows == 0)
            return;
        sortedness_.add(s.sortedness);
        dup_.add(s.dup_factor);
        groups_.add(s.est_groups);
    }

    /**
     * Pick the grouping variant for the next window. Called once per
     * window (first data seen); the desire must persist for
     * kConfirmWindows consecutive decisions before the variant
     * actually changes.
     */
    GroupDecision
    decideWindow()
    {
        ++decisions_;
        GroupVariant desired = current_;
        if (dup_.initialized()) {
            if (sortedness_.value() >= kSortedSortMin
                || dup_.value() <= kDupSortMax) {
                desired = GroupVariant::kSortMerge;
            } else if (dup_.value() >= kDupHashMin) {
                desired = GroupVariant::kHashScatter;
            }
            // else: inside the dead band — keep the current variant.
        }

        GroupDecision d;
        if (desired != current_) {
            pending_count_ =
                desired == pending_ ? pending_count_ + 1 : 1;
            pending_ = desired;
            if (pending_count_ >= kConfirmWindows) {
                current_ = desired;
                pending_count_ = 0;
                ++switches_;
                d.switched = true;
            }
        } else {
            pending_ = current_;
            pending_count_ = 0;
        }
        d.variant = current_;
        return d;
    }

    GroupVariant current() const { return current_; }
    uint64_t decisions() const { return decisions_; }
    uint64_t switches() const { return switches_; }
    const Ewma &sortednessEwma() const { return sortedness_; }
    const Ewma &dupEwma() const { return dup_; }
    const Ewma &groupsEwma() const { return groups_; }

  private:
    Ewma sortedness_{};
    Ewma dup_{};
    Ewma groups_{};
    GroupVariant current_ = GroupVariant::kSortMerge;
    GroupVariant pending_ = GroupVariant::kSortMerge;
    uint32_t pending_count_ = 0;
    uint64_t decisions_ = 0;
    uint64_t switches_ = 0;
};

/**
 * Hysteresis gate for batched hash probing, fed by *measured* probe
 * cost instead of the old one-shot sysconf LLC guess: a table that
 * probes fast is cache-resident (prefetch is pure overhead), one
 * that probes slow is missing to memory (prefetch pays). Wall-clock
 * driven — legal because the prefetch path is results- and
 * charge-identical to the scalar path by construction.
 */
class ProbeAutotuner
{
  public:
    /**
     * Feed one measurement; @return the prefetch decision given the
     * current setting (band between off/on thresholds keeps it).
     */
    bool
    observe(double ns_per_probe, bool current_prefetch)
    {
        ns_.add(ns_per_probe);
        ++measurements_;
        if (ns_.value() >= kProbePrefetchOnNs)
            return true;
        if (ns_.value() <= kProbePrefetchOffNs)
            return false;
        return current_prefetch;
    }

    double ewmaNs() const { return ns_.value(); }
    uint64_t measurements() const { return measurements_; }

  private:
    Ewma ns_{};
    uint64_t measurements_ = 0;
};

/**
 * Pick the probe batch width B for @p table by timing findBatch over
 * @p keys at each candidate width and keeping the fastest. Purely a
 * host-wall-clock tune: every width returns identical results.
 */
template <typename V>
inline uint32_t
autotuneProbeBatch(algo::HashTable<V> &table,
                   const uint64_t *keys, uint32_t n)
{
    const uint32_t candidates[] = {8, 16, 32};
    std::vector<V *> out(n);
    uint32_t best_b = table.probeBatch();
    double best_ns = -1;
    for (const uint32_t b : candidates) {
        table.setProbeBatch(b);
        const auto t0 = std::chrono::steady_clock::now();
        table.findBatch(keys, n, out.data());
        const auto t1 = std::chrono::steady_clock::now();
        const double ns = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1
                                                                 - t0)
                .count());
        if (best_ns < 0 || ns < best_ns) {
            best_ns = ns;
            best_b = b;
        }
    }
    table.setProbeBatch(best_b);
    return best_b;
}

/**
 * Per-operator adaptive session: the policy, the kernel hook block
 * installed through Operator::makeCtx, the per-window decision memo,
 * and the probe autotuner. Owned by pipeline::Operator when the
 * engine's AdaptiveConfig is enabled; all access happens on the
 * single-threaded simulation control path.
 */
class OpAdapt
{
  public:
    VariantPolicy &policy() { return policy_; }
    const VariantPolicy &policy() const { return policy_; }
    KernelAdapt &hooks() { return hooks_; }
    ProbeAutotuner &probeTuner() { return probe_; }

    /**
     * Re-derive the kernel decision bits from the kernel-observed
     * EWMAs (hysteresis bands). Called from makeCtx, i.e. before
     * every task body — cheap, branch-only.
     */
    void
    refreshHooks()
    {
        if (hooks_.sort_sortedness.initialized()) {
            const double v = hooks_.sort_sortedness.value();
            if (v >= kPrecheckOn)
                hooks_.sort_precheck = true;
            else if (v <= kPrecheckOff)
                hooks_.sort_precheck = false;
        }
    }

    /**
     * The grouping variant for window @p w: decided once at the
     * window's first data (from stats of *previous* windows), then
     * memoized so every run and the close of the window agree.
     * @param[out] switched true when this call changed the variant.
     */
    GroupVariant
    groupVariantFor(uint64_t w, bool *switched)
    {
        for (const auto &[win, var] : window_variant_) {
            if (win == w) {
                *switched = false;
                return var;
            }
        }
        const GroupDecision d = policy_.decideWindow();
        window_variant_.emplace_back(w, d.variant);
        if (d.variant == GroupVariant::kSortMerge)
            ++sort_merge_windows_;
        else
            ++hash_scatter_windows_;
        *switched = d.switched;
        return d.variant;
    }

    /** Drop the memo entry of a closed window. */
    void
    releaseWindow(uint64_t w)
    {
        for (auto it = window_variant_.begin();
             it != window_variant_.end(); ++it) {
            if (it->first == w) {
                window_variant_.erase(it);
                return;
            }
        }
    }

    uint64_t sortMergeWindows() const { return sort_merge_windows_; }
    uint64_t hashScatterWindows() const
    {
        return hash_scatter_windows_;
    }

    bool probeBatchTuned() const { return probe_batch_tuned_; }
    void markProbeBatchTuned() { probe_batch_tuned_ = true; }

  private:
    VariantPolicy policy_;
    KernelAdapt hooks_;
    ProbeAutotuner probe_;
    /** Open-window variant memo; a handful of entries, scanned. */
    std::vector<std::pair<uint64_t, GroupVariant>> window_variant_;
    uint64_t sort_merge_windows_ = 0;
    uint64_t hash_scatter_windows_ = 0;
    bool probe_batch_tuned_ = false;
};

} // namespace sbhbm::runtime

#endif // SBHBM_RUNTIME_ADAPTIVE_H
