/**
 * @file
 * KPA placement: the one decision of which tier a new KPA asks for.
 *
 * KnobPlacementPolicy makes the *decision* (which tier, may it dip
 * into the urgent reserve) while HybridMemory keeps the *mechanism*
 * (gauges, spill). It wraps the paper's demand balance knob and
 * urgent reserve. Each KPA is placed once, at allocation, and stays
 * on its tier until freed.
 */

#ifndef SBHBM_MEM_PLACEMENT_POLICY_H
#define SBHBM_MEM_PLACEMENT_POLICY_H

#include <cstdint>

#include "common/rng.h"
#include "mem/hybrid_memory.h"
#include "runtime/balance_knob.h"
#include "runtime/impact_tag.h"

namespace sbhbm::mem {

/**
 * The paper's "single control knob" (§1). Urgent tasks always get
 * HBM from the reserved pool; High/Low tasks flip the balance knob's
 * weighted coin and fall back to DRAM when HBM has no non-reserved
 * room.
 */
class KnobPlacementPolicy
{
  public:
    /** A placement decision: the tier to request and whether the
     *  allocation may dip into the HBM urgent reserve. */
    struct Decision
    {
        Tier tier = Tier::kDram;
        bool urgent = false;
    };

    /**
     * @param use_knob when false, non-urgent tasks always *want* HBM
     *        (the knob is bypassed, not the capacity spill).
     */
    KnobPlacementPolicy(const HybridMemory &hm,
                        const runtime::BalanceKnob &knob, Rng &rng,
                        bool use_knob)
        : hm_(hm), knob_(knob), rng_(rng), use_knob_(use_knob)
    {
    }

    /**
     * Decide the placement of a new KPA of ~@p bytes_hint bytes for a
     * task tagged @p tag. Called once per allocation; a knob coin flip
     * consumes RNG state.
     */
    Decision
    place(runtime::ImpactTag tag, uint64_t bytes_hint)
    {
        if (hm_.mode() != sim::MemoryMode::kFlat)
            return Decision{Tier::kDram, false};
        if (tag == runtime::ImpactTag::kUrgent)
            return Decision{Tier::kHbm, true};

        const bool want_hbm =
            use_knob_ ? knob_.preferHbm(tag, rng_) : true;
        if (want_hbm && hm_.hbmHasRoom(bytes_hint))
            return Decision{Tier::kHbm, false};
        return Decision{Tier::kDram, false};
    }

  private:
    const HybridMemory &hm_;
    const runtime::BalanceKnob &knob_;
    Rng &rng_;
    bool use_knob_;
};

} // namespace sbhbm::mem

#endif // SBHBM_MEM_PLACEMENT_POLICY_H
