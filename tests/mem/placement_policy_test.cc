/**
 * @file
 * KnobPlacementPolicy reproduces the original inline placement logic
 * of Engine::placeKpa bit for bit: same RNG draws in the same order,
 * same spill conditions.
 */

#include "mem/placement_policy.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/units.h"
#include "kpa/kpa.h"
#include "runtime/balance_knob.h"
#include "runtime/impact_tag.h"

namespace sbhbm::mem {
namespace {

using runtime::BalanceKnob;
using runtime::ImpactTag;

/** The original Engine::placeKpa logic, verbatim. */
kpa::Placement
legacyPlace(sim::MemoryMode mode, bool use_knob, BalanceKnob &knob,
            Rng &rng, HybridMemory &hm, ImpactTag tag,
            uint64_t bytes_hint)
{
    if (mode != sim::MemoryMode::kFlat)
        return kpa::Placement{Tier::kDram, false};
    if (tag == ImpactTag::kUrgent)
        return kpa::Placement{Tier::kHbm, true};
    const bool want_hbm = use_knob ? knob.preferHbm(tag, rng) : true;
    if (want_hbm && hm.hbmHasRoom(bytes_hint))
        return kpa::Placement{Tier::kHbm, false};
    return kpa::Placement{Tier::kDram, false};
}

TEST(PlacementPolicy, DefaultPolicyMatchesLegacyLogicBitForBit)
{
    // Drive the knob into mixed territory so both k_low and k_high
    // coin flips really happen, then compare every decision (and
    // hence every RNG draw) against the legacy expression evaluated
    // with an identically-seeded RNG.
    auto mc = sim::MachineConfig::knl();
    mc.hbm.capacity_bytes = 8_MiB;
    HybridMemory hm(mc, sim::MemoryMode::kFlat);

    BalanceKnob knob_a, knob_b;
    Rng rng_a(42), rng_b(42), tags(7);
    KnobPlacementPolicy policy(hm, knob_a, rng_a, /*use_knob=*/true);

    for (int step = 0; step < 2000; ++step) {
        if (step % 100 == 0) {
            knob_a.update(0.9, 0.2, true); // shed toward DRAM
            knob_b.update(0.9, 0.2, true);
        }
        const auto tag = static_cast<ImpactTag>(tags.nextBounded(3));
        const uint64_t bytes = 4096u << tags.nextBounded(8);
        const auto got = policy.place(tag, bytes);
        const kpa::Placement want =
            legacyPlace(sim::MemoryMode::kFlat, true, knob_b, rng_b,
                        hm, tag, bytes);
        ASSERT_EQ(got.tier, want.tier) << "step " << step;
        ASSERT_EQ(got.urgent, want.urgent) << "step " << step;
    }
}

} // namespace
} // namespace sbhbm::mem
