/**
 * @file
 * The demand balance knob (paper §5, "Demand balance knob").
 *
 * A global vector {k_low, k_high}, each in [0,1]: the probability
 * that a Low / High tagged task's KPA is allocated on HBM. Urgent
 * tasks always allocate from the reserved HBM pool. The knob is
 * refreshed at every resource sample in increments of Delta = 0.05:
 * k_low moves first; k_high only moves when k_low is already at an
 * extreme and the pipeline's output delay has >= 10% headroom below
 * the target.
 */

#ifndef SBHBM_RUNTIME_BALANCE_KNOB_H
#define SBHBM_RUNTIME_BALANCE_KNOB_H

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "runtime/impact_tag.h"

namespace sbhbm::runtime {

/** The {k_low, k_high} placement-probability knob. */
class BalanceKnob
{
  public:
    /** Increment Delta per refresh (paper: 0.05). */
    static constexpr double kDelta = 0.05;

    /** HBM capacity fraction above which we shift load to DRAM. */
    static constexpr double kHbmHigh = 0.80;

    /** HBM capacity fraction below which we shift load back to HBM. */
    static constexpr double kHbmLow = 0.50;

    /** DRAM bandwidth fraction considered saturated. */
    static constexpr double kDramHigh = 0.85;

    /**
     * Output delay, as a fraction of the target, at or below which
     * k_high may move (paper: >= 10% headroom below the target).
     */
    static constexpr double kDelayHeadroomFrac = 0.9;

    double kLow() const { return k_low_; }
    double kHigh() const { return k_high_; }

    /**
     * Decide whether a new KPA for a task tagged @p tag goes to HBM.
     * Urgent always does (from the reserved pool, handled by the
     * caller passing urgent=true into the allocator).
     */
    bool
    preferHbm(ImpactTag tag, Rng &rng) const
    {
        switch (tag) {
          case ImpactTag::kUrgent:
            return true;
          case ImpactTag::kHigh:
            return rng.nextBool(k_high_);
          case ImpactTag::kLow:
            return rng.nextBool(k_low_);
        }
        return true;
    }

    /**
     * Refresh the knob from monitored resource usage (paper Fig 6).
     *
     * @param hbm_capacity_frac  used fraction of HBM capacity.
     * @param dram_bw_frac       used fraction of DRAM bandwidth.
     * @param delay_headroom_ok  output delay is >= 10% below target.
     */
    void
    update(double hbm_capacity_frac, double dram_bw_frac,
           bool delay_headroom_ok)
    {
        const bool hbm_pressured = hbm_capacity_frac > kHbmHigh;
        const bool dram_saturated = dram_bw_frac > kDramHigh;

        if (hbm_pressured && !dram_saturated) {
            // Zone 2: high demand for HBM capacity -> spill more KPAs
            // to DRAM, spending DRAM bandwidth to relieve capacity.
            lower(delay_headroom_ok);
        } else if (!hbm_pressured && dram_saturated) {
            // Zone 3: DRAM bandwidth is the bottleneck and HBM has
            // room -> pull allocations back onto HBM.
            raise(delay_headroom_ok);
        } else if (hbm_capacity_frac < kHbmLow && !dram_saturated
                   && (k_low_ < 1.0 || k_high_ < 1.0)) {
            // Comfortable on both axes: drift back to the default of
            // everything-on-HBM.
            raise(delay_headroom_ok);
        }
        // Zone 1 (both high or both low, balanced): hold steady; when
        // both saturate, ingestion back-pressure takes over.
    }

  private:
    /** Snap to an exact multiple of delta to avoid drift. */
    static double
    quantize(double k)
    {
        const double steps = std::round(k / kDelta);
        return std::clamp(steps * kDelta, 0.0, 1.0);
    }

    /** Shift placement toward DRAM: k_low first, then k_high. */
    void
    lower(bool delay_headroom_ok)
    {
        if (k_low_ > 0.0)
            k_low_ = quantize(k_low_ - kDelta);
        else if (delay_headroom_ok && k_high_ > 0.0)
            k_high_ = quantize(k_high_ - kDelta);
    }

    /**
     * Shift placement toward HBM. Mirrors lower(): the paper moves
     * k_low first and only touches k_high once k_low sits at an
     * extreme (here: 1) and the delay headroom allows it.
     */
    void
    raise(bool delay_headroom_ok)
    {
        if (k_low_ < 1.0)
            k_low_ = quantize(k_low_ + kDelta);
        else if (delay_headroom_ok && k_high_ < 1.0)
            k_high_ = quantize(k_high_ + kDelta);
    }

    double k_low_ = 1.0;  //!< paper: initial value 1
    double k_high_ = 1.0; //!< paper: initial value 1
};

} // namespace sbhbm::runtime

#endif // SBHBM_RUNTIME_BALANCE_KNOB_H
