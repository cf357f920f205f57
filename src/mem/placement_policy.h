/**
 * @file
 * KPA placement — the decision point of the memory control plane.
 *
 * Before this decision point existed, placement logic was scattered
 * across three layers that could not talk to each other: the balance
 * knob rolled a probability at alloc time, HybridMemory silently
 * spilled to DRAM, and the serving layer admitted on static
 * reservations. KnobPlacementPolicy centralizes the *decision*
 * (which tier, may it dip into the urgent reserve) while HybridMemory
 * keeps the *mechanism* (gauges, spill, migration). It wraps the
 * paper's demand balance knob and urgent reserve, reproducing the
 * pre-control-plane behavior bit-identically — same RNG draws in the
 * same order, same spill conditions.
 *
 * Per-stream placement classes let the serving layer bias a tenant:
 * an SLA-breaching tenant is demoted to kDramLean (its non-urgent
 * KPAs go to DRAM, relieving HBM for everyone else) until its
 * latencies recover.
 */

#ifndef SBHBM_MEM_PLACEMENT_POLICY_H
#define SBHBM_MEM_PLACEMENT_POLICY_H

#include <cstdint>
#include <map>

#include "common/rng.h"
#include "mem/hybrid_memory.h"
#include "runtime/balance_knob.h"
#include "runtime/impact_tag.h"

namespace sbhbm::mem {

/** Per-stream (tenant) placement bias. */
enum class PlacementClass : uint8_t {
    kNormal = 0,   //!< knob-driven placement
    kDramLean = 1, //!< non-urgent allocations forced to DRAM
};

/**
 * The paper's "single control knob" (§1). Urgent tasks always get
 * HBM from the reserved pool; High/Low tasks flip the balance knob's
 * weighted coin and fall back to DRAM when HBM has no non-reserved
 * room. A DRAM-leaning stream skips the coin and goes straight to
 * DRAM (urgent tasks are exempt: the critical path keeps its reserve
 * even while a tenant is demoted).
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
     * task tagged @p tag on @p stream. Called once per allocation; a
     * knob coin flip consumes RNG state.
     */
    Decision
    place(runtime::ImpactTag tag, uint64_t bytes_hint, uint32_t stream)
    {
        if (hm_.mode() != sim::MemoryMode::kFlat)
            return Decision{Tier::kDram, false};
        if (tag == runtime::ImpactTag::kUrgent)
            return Decision{Tier::kHbm, true};
        if (streamClass(stream) == PlacementClass::kDramLean)
            return Decision{Tier::kDram, false};

        const bool want_hbm =
            use_knob_ ? knob_.preferHbm(tag, rng_) : true;
        if (want_hbm && hm_.hbmHasRoom(bytes_hint))
            return Decision{Tier::kHbm, false};
        return Decision{Tier::kDram, false};
    }

    /** Bias @p stream's future placements (serving-layer demotion). */
    void
    setStreamClass(uint32_t stream, PlacementClass c)
    {
        if (c == PlacementClass::kNormal)
            classes_.erase(stream);
        else
            classes_[stream] = c;
    }

    /** Current bias of @p stream. */
    PlacementClass
    streamClass(uint32_t stream) const
    {
        auto it = classes_.find(stream);
        return it == classes_.end() ? PlacementClass::kNormal
                                    : it->second;
    }

  private:
    const HybridMemory &hm_;
    const runtime::BalanceKnob &knob_;
    Rng &rng_;
    bool use_knob_;
    std::map<uint32_t, PlacementClass> classes_;
};

} // namespace sbhbm::mem

#endif // SBHBM_MEM_PLACEMENT_POLICY_H
