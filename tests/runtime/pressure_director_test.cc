/**
 * @file
 * The memory control plane's decision points:
 *  - KnobPlacementPolicy reproduces the legacy inline placement logic
 *    bit for bit (same RNG draws, same spill conditions) and applies
 *    per-stream DRAM-lean demotion;
 *  - PressureDirector demotes cold provider state above the
 *    high-water threshold, down to the low-water target, within the
 *    per-tick budget, in deterministic provider order, and charges
 *    each sweep's copy as stall split over the streams it moved;
 *  - end to end, an overloaded engine with demotion enabled shows a
 *    deterministic demotion count, a strictly lower HBM high-water
 *    than the identical run without demotion, and identical pipeline
 *    output (demotion moves state, never corrupts it).
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/units.h"
#include "ingest/generator.h"
#include "ingest/source.h"
#include "mem/placement_policy.h"
#include "mem/pressure_director.h"
#include "obs/trace.h"
#include "pipeline/aggregations.h"
#include "pipeline/egress.h"
#include "pipeline/extract.h"
#include "pipeline/windowing.h"
#include "runtime/engine.h"

namespace sbhbm::runtime {
namespace {

using ingest::KvGen;
using mem::PlacementClass;
using mem::Tier;

// -------------------------------------------------------------------
// KnobPlacementPolicy
// -------------------------------------------------------------------

/** The pre-control-plane Engine::placeKpa logic, verbatim. */
kpa::Placement
legacyPlace(sim::MemoryMode mode, bool use_knob, BalanceKnob &knob,
            Rng &rng, mem::HybridMemory &hm, ImpactTag tag,
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
    mem::HybridMemory hm(mc, sim::MemoryMode::kFlat);

    BalanceKnob knob_a, knob_b;
    Rng rng_a(42), rng_b(42), tags(7);
    mem::KnobPlacementPolicy policy(hm, knob_a, rng_a,
                                    /*use_knob=*/true);

    for (int step = 0; step < 2000; ++step) {
        if (step % 100 == 0) {
            knob_a.update(0.9, 0.2, true); // shed toward DRAM
            knob_b.update(0.9, 0.2, true);
        }
        const auto tag = static_cast<ImpactTag>(tags.nextBounded(3));
        const uint64_t bytes = 4096u << tags.nextBounded(8);
        const auto got = policy.place(tag, bytes, /*stream=*/0);
        const kpa::Placement want =
            legacyPlace(sim::MemoryMode::kFlat, true, knob_b, rng_b,
                        hm, tag, bytes);
        ASSERT_EQ(got.tier, want.tier) << "step " << step;
        ASSERT_EQ(got.urgent, want.urgent) << "step " << step;
    }
}

TEST(PlacementPolicy, DramLeanStreamSkipsHbmExceptUrgent)
{
    auto mc = sim::MachineConfig::knl();
    mem::HybridMemory hm(mc, sim::MemoryMode::kFlat);
    BalanceKnob knob; // k_low = k_high = 1: always wants HBM
    Rng rng(1);
    mem::KnobPlacementPolicy policy(hm, knob, rng, true);

    EXPECT_EQ(policy.place(ImpactTag::kLow, 4096, 5).tier, Tier::kHbm);
    policy.setStreamClass(5, PlacementClass::kDramLean);
    EXPECT_EQ(policy.streamClass(5), PlacementClass::kDramLean);
    EXPECT_EQ(policy.place(ImpactTag::kLow, 4096, 5).tier, Tier::kDram);
    EXPECT_EQ(policy.place(ImpactTag::kHigh, 4096, 5).tier, Tier::kDram);
    // The critical path keeps its reserve even while demoted.
    const auto urgent = policy.place(ImpactTag::kUrgent, 4096, 5);
    EXPECT_EQ(urgent.tier, Tier::kHbm);
    EXPECT_TRUE(urgent.urgent);
    // Other streams are unaffected.
    EXPECT_EQ(policy.place(ImpactTag::kLow, 4096, 6).tier, Tier::kHbm);
    // Recovery restores knob-driven placement.
    policy.setStreamClass(5, PlacementClass::kNormal);
    EXPECT_EQ(policy.place(ImpactTag::kLow, 4096, 5).tier, Tier::kHbm);
}

TEST(PlacementPolicy, EngineForwardsStreamClass)
{
    EngineConfig cfg;
    Engine eng(cfg);
    eng.setStreamPlacementClass(3, PlacementClass::kDramLean);
    EXPECT_EQ(eng.placeKpa(ImpactTag::kLow, 4096, 3).tier, Tier::kDram);
    EXPECT_EQ(eng.placeKpa(ImpactTag::kLow, 4096, 4).tier, Tier::kHbm);
    EXPECT_EQ(eng.placeKpa(ImpactTag::kLow, 4096, 3).stream, 3u);
}

// -------------------------------------------------------------------
// PressureDirector
// -------------------------------------------------------------------

/** Provider with a fixed pile of demotable gauge bytes. */
class FakeProvider : public mem::ColdStateProvider
{
  public:
    FakeProvider(mem::HybridMemory &hm, uint32_t stream,
                 uint32_t blocks, uint64_t block_bytes)
        : hm_(hm), stream_(stream)
    {
        for (uint32_t i = 0; i < blocks; ++i)
            blocks_.push_back(
                hm.alloc(block_bytes, Tier::kHbm, false, stream));
    }

    ~FakeProvider() override
    {
        for (auto &b : blocks_)
            hm_.free(b);
    }

    uint32_t providerStream() const override { return stream_; }

    mem::DemoteResult
    demoteColdState(uint64_t want, sim::CostLog &log) override
    {
        mem::DemoteResult r;
        for (auto &b : blocks_) {
            if (r.charged_bytes >= want)
                break;
            if (b.tier != Tier::kHbm)
                continue;
            const uint64_t charged = b.charged_bytes;
            if (!hm_.migrate(b, Tier::kDram))
                continue;
            log.seq(Tier::kHbm, b.bytes);
            log.seq(Tier::kDram, b.bytes);
            r.charged_bytes += charged;
            ++r.kpas;
        }
        return r;
    }

  private:
    mem::HybridMemory &hm_;
    uint32_t stream_;
    std::vector<mem::Block> blocks_;
};

TEST(PressureDirector, DisabledTickIsANoOp)
{
    auto mc = sim::MachineConfig::knl();
    mc.hbm.capacity_bytes = 1_MiB;
    mem::HybridMemory hm(mc, sim::MemoryMode::kFlat);
    mem::PressureDirector dir(hm, /*enabled=*/false);
    // 15 x 64 KiB: all that fits under the 5% urgent reserve (93.75%).
    FakeProvider prov(hm, 1, 15, 60_KiB);
    dir.registerProvider(&prov);
    EXPECT_TRUE(dir.tick().log.empty());
    EXPECT_EQ(dir.demotedKpas(), 0u);
    EXPECT_EQ(hm.gauge(Tier::kHbm).used(), 15u * 64_KiB);
    dir.unregisterProvider(&prov);
}

TEST(PressureDirector, DemotesDownToLowWaterTarget)
{
    auto mc = sim::MachineConfig::knl();
    mc.hbm.capacity_bytes = 1_MiB;
    mem::HybridMemory hm(mc, sim::MemoryMode::kFlat);
    mem::PressureDirector dir(hm, /*enabled=*/true);
    // 15 x 64 KiB = 960 KiB: 93.75% used, above the 80% high water.
    FakeProvider prov(hm, 4, 15, 60_KiB);
    dir.registerProvider(&prov);

    mem::PressureDirector::Sweep sweep = dir.tick();
    EXPECT_FALSE(sweep.log.empty()) << "migration traffic must be charged";
    // Demotion stops at the first block that reaches the 65% target:
    // 960 KiB - 665.6 KiB = 294.4 KiB to free -> 5 blocks.
    EXPECT_EQ(dir.demotedKpas(), 5u);
    EXPECT_EQ(dir.demotedBytes(), 5u * 64_KiB);
    EXPECT_EQ(hm.gauge(Tier::kHbm).used(), 10u * 64_KiB);
    EXPECT_EQ(dir.pressureTicks(), 1u);
    // Per-stream attribution.
    EXPECT_EQ(dir.demotedKpas(4), 5u);
    EXPECT_EQ(dir.demotedBytes(4), 5u * 64_KiB);

    // Now below high water: the next tick does nothing.
    EXPECT_TRUE(dir.tick().log.empty());
    EXPECT_EQ(dir.demotedKpas(), 5u);
    dir.unregisterProvider(&prov);
}

TEST(PressureDirector, RespectsPerTickBudgetAndProviderOrder)
{
    // The per-tick budget (64 MiB) only binds on a tier large enough
    // that the low-water target lies more than 64 MiB below usage:
    // 15 x 16 MiB blocks on 256 MiB of HBM. The payloads are host
    // memory the test never writes; only migrated blocks get touched.
    static_assert(mem::PressureDirector::kMaxBytesPerTick == 64_MiB);
    auto mc = sim::MachineConfig::knl();
    mc.hbm.capacity_bytes = 256_MiB;
    mem::HybridMemory hm(mc, sim::MemoryMode::kFlat);
    mem::PressureDirector dir(hm, /*enabled=*/true);
    // 15 blocks total (93.75% used): one in the first-registered
    // provider, the rest in the second.
    FakeProvider first(hm, 1, 1, 15_MiB);
    FakeProvider second(hm, 2, 14, 15_MiB);
    dir.registerProvider(&first);
    dir.registerProvider(&second);

    dir.tick();
    // The 65% target is 73.6 MiB away (5 blocks), but the budget caps
    // the sweep at 4 x 16 MiB: the first provider's only block, then
    // three from the second — registration order.
    EXPECT_EQ(dir.demotedKpas(), 4u);
    EXPECT_EQ(dir.demotedBytes(), 64_MiB);
    EXPECT_EQ(dir.demotedKpas(1), 1u);
    EXPECT_EQ(dir.demotedKpas(2), 3u);
    // 11 x 16 MiB = 68.75%: below high water — the director leaves
    // the remaining cold state alone (demote only under pressure).
    EXPECT_TRUE(dir.tick().log.empty());
    EXPECT_EQ(dir.demotedKpas(), 4u);
    dir.unregisterProvider(&first);
    dir.unregisterProvider(&second);
}

TEST(PressureDirector, ChargeSweepSplitsStallAndRecordsItsSpan)
{
    auto mc = sim::MachineConfig::knl();
    mc.hbm.capacity_bytes = 1_MiB;
    sim::Machine machine(mc);
    mem::HybridMemory hm(mc, sim::MemoryMode::kFlat);
    mem::PressureDirector dir(hm, /*enabled=*/true);
    obs::Telemetry tele;
    dir.setTelemetry(&tele, 3);
    // 93.75% used: one block in stream 1, the rest in stream 2.
    FakeProvider first(hm, 1, 1, 60_KiB);
    FakeProvider second(hm, 2, 14, 60_KiB);
    dir.registerProvider(&first);
    dir.registerProvider(&second);

    // The steady-state sweep moves 5 blocks (1 + 4) down to 65%.
    dir.chargeSweep(machine, dir.tick());
    machine.run();
    ASSERT_EQ(tele.trace.size(), 1u);
    const obs::TraceEvent &p = tele.trace.events()[0];
    EXPECT_EQ(p.ph, 'X');
    EXPECT_STREQ(p.cat, "pressure");
    EXPECT_EQ(p.name, "pressure_sweep");
    EXPECT_EQ(p.pid, 3u);
    EXPECT_EQ(p.tid, 0u);
    ASSERT_EQ(p.nargs, 2u);
    EXPECT_STREQ(p.args[0].key, "charged_bytes");
    EXPECT_EQ(p.args[0].value, 5u * 64_KiB);
    EXPECT_STREQ(p.args[1].key, "streams");
    EXPECT_EQ(p.args[1].value, 2u);
    // The copy time is split over the two streams by bytes moved.
    ASSERT_GT(p.dur, 0u);
    const uint64_t s1 = dir.sweepStallNs(1);
    const uint64_t s2 = dir.sweepStallNs(2);
    EXPECT_LE(s1 + s2, p.dur);
    EXPECT_GE(s1 + s2 + 2, p.dur);
    EXPECT_NEAR(static_cast<double>(s2), 4.0 * static_cast<double>(s1),
                4.0);
    dir.unregisterProvider(&first);
    dir.unregisterProvider(&second);
}

// -------------------------------------------------------------------
// End to end: overload -> demotion -> lower HBM high-water,
// identical output.
// -------------------------------------------------------------------

struct OverloadResult
{
    uint64_t demoted_kpas = 0;
    uint64_t demoted_bytes = 0;
    uint64_t hbm_high_water = 0; //!< monitor-sampled peak usage
    uint64_t hbm_used_at_phase_end = 0;
    uint64_t output_records = 0;
    uint64_t windows = 0;
};

/**
 * SumPerKey under HBM capacity overload: a scaled-down HBM tier and
 * delayed watermarks (several windows of sorted runs held open at
 * once) pin the gauge near capacity.
 */
OverloadResult
runOverload(bool demotion)
{
    EngineConfig ecfg;
    ecfg.machine.hbm.capacity_bytes = 6_MiB;
    ecfg.cores = 8;
    ecfg.max_inflight_bundles = 256;
    ecfg.control_plane = demotion;
    Engine eng(ecfg);

    pipeline::Pipeline pipe(eng, columnar::WindowSpec{10 * kNsPerMs});
    auto &extract = pipe.add<pipeline::ExtractOp>(
        pipe, "extract", KvGen::kKeyCol);
    auto &window =
        pipe.add<pipeline::WindowOp>(pipe, "window", KvGen::kTsCol);
    auto &agg = pipe.add<pipeline::KeyedAggOp>(
        pipe, "sum", KvGen::kKeyCol,
        pipeline::aggs::sumPerKey(KvGen::kValueCol));
    auto &egress = pipe.add<pipeline::EgressOp>(pipe);
    extract.connectTo(&window);
    window.connectTo(&agg);
    agg.connectTo(&egress);

    KvGen gen(11, /*key_range=*/500, /*value_range=*/1000);
    ingest::SourceConfig scfg;
    scfg.bundle_records = 10'000;
    scfg.total_records = 800'000;
    // 2 M rec/s -> 5 ms per bundle, 2 bundles per 10 ms window; a
    // watermark every 40 bundles holds ~20 windows of sorted runs
    // open at once (~6.4 MB of KPAs against 6 MiB of HBM), crossing
    // the 80% high-water threshold around t = 150 ms.
    scfg.offered_rate = 2e6;
    scfg.bundles_per_watermark = 40;
    ingest::Source src(eng, pipe, gen, &extract, scfg);
    src.start();
    eng.monitor().start();

    // Snapshot residency at the end of the first accumulation phase,
    // just before the watermark (t ~ 200 ms) closes every open
    // window.
    eng.machine().runUntil(190 * kNsPerMs);
    OverloadResult r;
    r.hbm_used_at_phase_end = eng.memory().gauge(Tier::kHbm).used();

    eng.machine().run();
    // The "HBM high-water" of the run is the monitor's sampled peak —
    // the series Fig 10 plots. (The gauge's absolute highWater() is
    // dominated by a sub-tick allocation transient at the moment the
    // 80% threshold is first crossed, which is identical in both runs
    // by construction: the runs cannot diverge before the first
    // demotion.)
    r.hbm_high_water = static_cast<uint64_t>(
        eng.monitor().hbmUsedStat().max());
    r.demoted_kpas = eng.director().demotedKpas();
    r.demoted_bytes = eng.director().demotedBytes();
    r.output_records = egress.outputRecords();
    r.windows = pipe.windowsExternalized();
    return r;
}

TEST(PressureDemotion, OverloadDemotesAndLowersHbmHighWater)
{
    const OverloadResult off = runOverload(false);
    const OverloadResult on = runOverload(true);

    // The run is genuinely overloaded: without demotion, HBM high
    // water is pinned near the scaled capacity.
    EXPECT_GT(off.hbm_high_water, (6_MiB * 3) / 4);

    // Demotion engaged, and it relieved the peak: strictly lower
    // sampled high-water than the identical run without demotion,
    // and far lower steady-state residency at the end of the
    // accumulation phase.
    EXPECT_GT(on.demoted_kpas, 0u);
    EXPECT_GT(on.demoted_bytes, 0u);
    EXPECT_LT(on.hbm_high_water, off.hbm_high_water);
    EXPECT_LT(on.hbm_used_at_phase_end,
              (off.hbm_used_at_phase_end * 3) / 4);

    // Demotion moves state without corrupting it: the victim
    // pipeline drains fully and externalizes identical output.
    EXPECT_EQ(on.output_records, off.output_records);
    EXPECT_EQ(on.windows, off.windows);
    EXPECT_GT(on.output_records, 0u);

    // Pinned determinism: the same overload reproduces the same
    // demotion counts and the same high-water, bit for bit.
    const OverloadResult again = runOverload(true);
    EXPECT_EQ(again.demoted_kpas, on.demoted_kpas);
    EXPECT_EQ(again.demoted_bytes, on.demoted_bytes);
    EXPECT_EQ(again.hbm_high_water, on.hbm_high_water);
    EXPECT_EQ(again.hbm_used_at_phase_end, on.hbm_used_at_phase_end);
    EXPECT_EQ(again.output_records, on.output_records);
}

} // namespace
} // namespace sbhbm::runtime
