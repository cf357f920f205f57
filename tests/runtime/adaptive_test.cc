/**
 * @file
 * Adaptive query execution tests: profiler estimators on adversarial
 * inputs, variant-policy hysteresis (no flap under oscillation),
 * decision-log determinism over a 2000-step run, groupSortKpa
 * equivalence with sortKpa, probe tuning fallbacks, and end-to-end
 * result identity with adaptation on vs off.
 */

#include "runtime/adaptive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/profiler.h"
#include "common/rng.h"
#include "common/units.h"
#include "ingest/generator.h"
#include "ingest/source.h"
#include "kpa/primitives.h"
#include "obs/trace.h"
#include "pipeline/aggregations.h"
#include "pipeline/egress.h"
#include "pipeline/pipeline.h"
#include "pipeline/windowing.h"
#include "runtime/engine.h"
#include "sim/machine_config.h"

namespace sbhbm::runtime {
namespace {

/** Minimal keyed entry for the estimator templates. */
struct KeyOnly
{
    uint64_t key;
};

// ------------------------------------------------------------------
// Profiler estimators
// ------------------------------------------------------------------

TEST(AdaptiveProfilerTest, SortedInputReportsFullySorted)
{
    std::vector<KeyOnly> e;
    for (uint64_t i = 0; i < 1000; ++i)
        e.push_back(KeyOnly{i * 3});
    EXPECT_DOUBLE_EQ(
        sampleSortedness(e.data(), static_cast<uint32_t>(e.size())),
        1.0);
}

TEST(AdaptiveProfilerTest, OneInversionDetectedWhenAllPairsSampled)
{
    // n - 1 <= kProfileSamples: the stride is 1 and every adjacent
    // pair is inspected, so a single inversion anywhere must be seen.
    for (uint32_t pos = 1; pos < 100; pos += 7) {
        std::vector<KeyOnly> e;
        for (uint64_t i = 0; i < 100; ++i)
            e.push_back(KeyOnly{i});
        std::swap(e[pos - 1], e[pos]);
        EXPECT_LT(sampleSortedness(e.data(), 100), 1.0)
            << "inversion at " << pos << " missed";
    }
}

TEST(AdaptiveProfilerTest, AllEqualKeysAreSortedAndOneGroup)
{
    std::vector<KeyOnly> e(5000, KeyOnly{42});
    const WindowStats st =
        sampleRunStats(e.data(), static_cast<uint32_t>(e.size()));
    EXPECT_DOUBLE_EQ(st.sortedness, 1.0);
    EXPECT_DOUBLE_EQ(st.dup_factor,
                     static_cast<double>(kProfileSamples));
    EXPECT_DOUBLE_EQ(st.est_groups, 1.0);
}

TEST(AdaptiveProfilerTest, AlternatingRunsLookUnsortedAndHeavyDup)
{
    // 0,1,0,1,...: two groups, half the adjacent pairs inverted. An
    // odd length keeps the sample strides odd, so the fixed-position
    // sampling cannot alias onto a single parity class.
    std::vector<KeyOnly> e;
    for (uint64_t i = 0; i < 4095; ++i)
        e.push_back(KeyOnly{i % 2});
    const WindowStats st =
        sampleRunStats(e.data(), static_cast<uint32_t>(e.size()));
    EXPECT_LT(st.sortedness, 0.75);
    EXPECT_GT(st.sortedness, 0.25);
    EXPECT_DOUBLE_EQ(st.est_groups, 2.0);
    EXPECT_DOUBLE_EQ(st.dup_factor,
                     static_cast<double>(kProfileSamples) / 2.0);
}

TEST(AdaptiveProfilerTest, MostlyUniqueSampleScalesGroupEstimate)
{
    // All-distinct keys: the sample never saturates, so the estimate
    // scales the sampled distinct count by n / samples — within 2x of
    // the true cardinality is all the policy needs.
    std::vector<KeyOnly> e;
    Rng rng(9);
    for (uint64_t i = 0; i < 10000; ++i)
        e.push_back(KeyOnly{i * 1000003});
    for (size_t i = e.size(); i > 1; --i)
        std::swap(e[i - 1], e[rng.nextBounded(i)]);
    const WindowStats st =
        sampleRunStats(e.data(), static_cast<uint32_t>(e.size()));
    EXPECT_LT(st.dup_factor, 1.5);
    EXPECT_GT(st.est_groups, 5000.0);
    EXPECT_LT(st.sortedness, 1.0);
}

TEST(AdaptiveProfilerTest, DegenerateSizesAreSafe)
{
    KeyOnly one{7};
    EXPECT_DOUBLE_EQ(sampleSortedness(&one, 0), 1.0);
    EXPECT_DOUBLE_EQ(sampleSortedness(&one, 1), 1.0);
    const WindowStats empty = sampleRunStats(&one, 0);
    EXPECT_EQ(empty.rows, 0u);
    const WindowStats single = sampleRunStats(&one, 1);
    EXPECT_DOUBLE_EQ(single.dup_factor, 1.0);
    EXPECT_DOUBLE_EQ(single.est_groups, 1.0);
}

// ------------------------------------------------------------------
// Variant policy
// ------------------------------------------------------------------

WindowStats
stats(double dup, double sortedness, double groups = 100)
{
    WindowStats s;
    s.rows = 1000;
    s.dup_factor = dup;
    s.sortedness = sortedness;
    s.est_groups = groups;
    return s;
}

TEST(AdaptivePolicyTest, DefaultsToSortMergeWithNoObservations)
{
    VariantPolicy p;
    EXPECT_EQ(p.decideWindow().variant, GroupVariant::kSortMerge);
    EXPECT_EQ(p.switches(), 0u);
}

TEST(AdaptivePolicyTest, SwitchesToHashOnlyAfterConfirmation)
{
    VariantPolicy p; // kConfirmWindows = 2
    p.observeRun(stats(/*dup=*/30.0, /*sortedness=*/0.2));
    const GroupDecision d1 = p.decideWindow();
    EXPECT_EQ(d1.variant, GroupVariant::kSortMerge)
        << "first desire must not switch yet";
    EXPECT_FALSE(d1.switched);
    p.observeRun(stats(30.0, 0.2));
    const GroupDecision d2 = p.decideWindow();
    EXPECT_EQ(d2.variant, GroupVariant::kHashScatter);
    EXPECT_TRUE(d2.switched);
    EXPECT_EQ(p.switches(), 1u);
}

TEST(AdaptivePolicyTest, SortedStreamsStayOnSortMergeDespiteDup)
{
    VariantPolicy p;
    for (int i = 0; i < 10; ++i) {
        p.observeRun(stats(/*dup=*/50.0, /*sortedness=*/1.0));
        EXPECT_EQ(p.decideWindow().variant, GroupVariant::kSortMerge);
    }
    EXPECT_EQ(p.switches(), 0u);
}

TEST(AdaptivePolicyTest, NoFlapUnderOscillatingStats)
{
    VariantPolicy p;
    // Raw stats oscillate hard every window; the EWMA plus the
    // confirmation requirement must not translate that into variant
    // churn: at most one switch in 200 windows.
    for (int i = 0; i < 200; ++i) {
        p.observeRun(stats(i % 2 == 0 ? 20.0 : 1.2, 0.3));
        p.decideWindow();
    }
    EXPECT_LE(p.switches(), 1u);
    EXPECT_EQ(p.decisions(), 200u);
}

TEST(AdaptivePolicyTest, DriftIsFollowedWithBoundedSwitches)
{
    VariantPolicy p;
    std::vector<GroupVariant> log;
    // Three phases: heavy dup -> unique -> heavy dup. The policy must
    // land on hash, sort, hash — one switch per phase boundary plus
    // the initial one, nothing more.
    for (int i = 0; i < 120; ++i) {
        const bool dup_phase = (i / 40) % 2 == 0;
        p.observeRun(stats(dup_phase ? 25.0 : 1.1, 0.3));
        log.push_back(p.decideWindow().variant);
    }
    EXPECT_EQ(log[30], GroupVariant::kHashScatter);
    EXPECT_EQ(log[70], GroupVariant::kSortMerge);
    EXPECT_EQ(log[110], GroupVariant::kHashScatter);
    EXPECT_EQ(p.switches(), 3u);
}

TEST(AdaptivePolicyTest, TwoThousandStepRunIsBitIdentical)
{
    // One deterministic stat stream, two independent policies: the
    // recorded decision log must replay bit-identically (decisions
    // are pure functions of the observed stats).
    auto run = [] {
        VariantPolicy p;
        Rng rng(1234);
        std::vector<uint8_t> log;
        for (int i = 0; i < 2000; ++i) {
            const double dup =
                1.0 + static_cast<double>(rng.nextBounded(1000)) / 25.0;
            const double sorted =
                static_cast<double>(rng.nextBounded(1000)) / 999.0;
            p.observeRun(stats(dup, sorted));
            const GroupDecision d = p.decideWindow();
            log.push_back(static_cast<uint8_t>(d.variant)
                          | (d.switched ? 0x80 : 0));
        }
        EXPECT_EQ(p.decisions(), 2000u);
        return log;
    };
    const std::vector<uint8_t> a = run();
    const std::vector<uint8_t> b = run();
    EXPECT_EQ(a, b);
    // The run must actually exercise switching at least once.
    EXPECT_TRUE(std::any_of(a.begin(), a.end(),
                            [](uint8_t x) { return (x & 0x80) != 0; }));
}

TEST(AdaptivePolicyTest, OpAdaptMemoizesPerWindowDecisions)
{
    OpAdapt op;
    for (int i = 0; i < 3; ++i)
        op.policy().observeRun(stats(30.0, 0.2));
    bool sw = false;
    const GroupVariant v1 = op.groupVariantFor(7, &sw);
    const uint64_t decisions = op.policy().decisions();
    // Re-asking for the same window returns the memo, no new decision.
    const GroupVariant v2 = op.groupVariantFor(7, &sw);
    EXPECT_EQ(v1, v2);
    EXPECT_EQ(op.policy().decisions(), decisions);
    op.releaseWindow(7);
    op.groupVariantFor(8, &sw);
    EXPECT_EQ(op.policy().decisions(), decisions + 1);
}

TEST(AdaptivePolicyTest, HookRefreshAppliesHysteresisBands)
{
    OpAdapt op;
    KernelAdapt &h = op.hooks();
    EXPECT_TRUE(h.sort_precheck);
    // Collapse the sortedness EWMA: the precheck turns off...
    for (int i = 0; i < 10; ++i)
        h.sort_sortedness.add(0.1);
    op.refreshHooks();
    EXPECT_FALSE(h.sort_precheck);
    // ...a value inside the dead band keeps it off...
    h.sort_sortedness.v = 0.5;
    op.refreshHooks();
    EXPECT_FALSE(h.sort_precheck);
    // ...and a high EWMA turns it back on.
    h.sort_sortedness.v = 0.9;
    op.refreshHooks();
    EXPECT_TRUE(h.sort_precheck);
}

// ------------------------------------------------------------------
// groupSortKpa vs sortKpa
// ------------------------------------------------------------------

class GroupSortTest : public ::testing::Test
{
  protected:
    sim::MachineConfig cfg_ = sim::MachineConfig::knl();
    mem::HybridMemory hm_{cfg_, sim::MemoryMode::kFlat};
    sim::CostLog log_;
    kpa::Placement hbm_{mem::Tier::kHbm, false};

    kpa::Ctx ctx() { return kpa::Ctx{hm_, log_}; }

    columnar::BundleHandle
    makeBundle(uint32_t rows, uint64_t seed, uint64_t key_range)
    {
        Rng rng(seed);
        auto b = columnar::BundleHandle::adopt(
            columnar::Bundle::create(hm_, 3, rows));
        for (uint32_t r = 0; r < rows; ++r) {
            uint64_t *row = b->appendRaw();
            row[0] = rng.nextBounded(key_range);
            row[1] = rng.nextBounded(1000);
            row[2] = r;
        }
        return b;
    }
};

TEST_F(GroupSortTest, MatchesSortKpaKeysAndPerKeyRowSets)
{
    // Both variants put a key's entries in arrival order, so the
    // grouped KPAs must agree entry for entry, row pointers included.
    for (const uint64_t key_range : {1ull, 3ull, 40ull, 5000ull}) {
        auto b = makeBundle(20000, key_range + 5, key_range);
        kpa::KpaPtr s = kpa::extract(ctx(), *b, 0, hbm_);
        kpa::KpaPtr g = kpa::extract(ctx(), *b, 0, hbm_);
        kpa::sortKpa(ctx(), *s);
        kpa::groupSortKpa(ctx(), *g);
        ASSERT_TRUE(g->sorted());
        ASSERT_EQ(s->size(), g->size());
        for (uint32_t i = 0; i < s->size(); ++i) {
            ASSERT_EQ(s->at(i).key, g->at(i).key)
                << "range " << key_range << " at " << i;
            ASSERT_EQ(s->at(i).row, g->at(i).row)
                << "range " << key_range << " at " << i;
        }
    }
}

TEST_F(GroupSortTest, ChargesAreDeterministicInInput)
{
    auto b = makeBundle(8000, 3, 16);
    kpa::KpaPtr k1 = kpa::extract(ctx(), *b, 0, hbm_);
    kpa::KpaPtr k2 = kpa::extract(ctx(), *b, 0, hbm_);
    sim::CostLog l1, l2;
    kpa::groupSortKpa(kpa::Ctx{hm_, l1}, *k1);
    kpa::groupSortKpa(kpa::Ctx{hm_, l2}, *k2);
    EXPECT_EQ(l1.bytesOn(sim::Tier::kHbm), l2.bytesOn(sim::Tier::kHbm));
    EXPECT_EQ(l1.bytesOn(sim::Tier::kDram),
              l2.bytesOn(sim::Tier::kDram));
    EXPECT_DOUBLE_EQ(l1.totalCpuNs(), l2.totalCpuNs());
}

// ------------------------------------------------------------------
// Probe tuning
// ------------------------------------------------------------------

class ProbeTuningTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved_ = algo::probeTuning(); }
    void TearDown() override { algo::setProbeTuning(saved_); }

  private:
    algo::ProbeTuning saved_;
};

TEST_F(ProbeTuningTest, UnknownLlcFallsBackToScalarPath)
{
    // sysconf reporting 0/unavailable maps to llc_bytes == 0: the
    // prefetch gate must stay off (scalar path), never crash.
    algo::ProbeTuning t;
    t.llc_bytes = 0;
    algo::setProbeTuning(t);
    algo::HashTable<uint64_t> table(10000);
    EXPECT_FALSE(table.prefetchEnabled());
    for (uint64_t k = 0; k < 1000; ++k)
        table.findOrInsert(k) = k * 2;
    uint64_t keys[4] = {1, 999, 5000, 3};
    uint64_t *out[4];
    table.findBatch(keys, 4, out);
    EXPECT_EQ(*out[0], 2u);
    EXPECT_EQ(*out[1], 1998u);
    EXPECT_EQ(out[2], nullptr);
    EXPECT_EQ(*out[3], 6u);
}

TEST_F(ProbeTuningTest, TinyLlcGatesPrefetchOn)
{
    algo::ProbeTuning t;
    t.llc_bytes = 1024;
    algo::setProbeTuning(t);
    algo::HashTable<uint64_t> table(10000); // footprint >> 1 KiB
    EXPECT_TRUE(table.prefetchEnabled());
}

TEST_F(ProbeTuningTest, ResultsIdenticalAcrossBatchAndPrefetch)
{
    algo::HashTable<uint64_t> table(20000);
    Rng rng(5);
    for (uint64_t i = 0; i < 15000; ++i)
        table.findOrInsert(rng.nextBounded(uint64_t{1} << 20)) = i;
    std::vector<uint64_t> keys;
    for (uint64_t i = 0; i < 5000; ++i)
        keys.push_back(rng.nextBounded(uint64_t{1} << 21)); // hits+misses
    std::vector<uint64_t *> ref(keys.size());
    table.setPrefetch(false);
    table.findBatch(keys.data(), static_cast<uint32_t>(keys.size()),
                    ref.data());
    for (const uint32_t b : {8u, 16u, 32u, 64u}) {
        for (const bool pf : {false, true}) {
            table.setProbeBatch(b); // 64 clamps to kMaxProbeBatch
            table.setPrefetch(pf);
            EXPECT_LE(table.probeBatch(),
                      algo::HashTable<uint64_t>::kMaxProbeBatch);
            std::vector<uint64_t *> out(keys.size());
            table.findBatch(keys.data(),
                            static_cast<uint32_t>(keys.size()),
                            out.data());
            EXPECT_EQ(out, ref) << "B=" << b << " pf=" << pf;
        }
    }
}

TEST_F(ProbeTuningTest, AutotunerHysteresisBands)
{
    ProbeAutotuner tuner; // on >= 25 ns, off <= 12 ns
    EXPECT_TRUE(tuner.observe(40.0, false)) << "slow probes: enable";
    // EWMA still above the band: stays on through one fast reading.
    EXPECT_TRUE(tuner.observe(18.0, true));
    for (int i = 0; i < 10; ++i)
        tuner.observe(5.0, true);
    EXPECT_FALSE(tuner.observe(5.0, true)) << "fast probes: disable";
}

TEST_F(ProbeTuningTest, AutotuneProbeBatchPreservesResults)
{
    algo::HashTable<uint64_t> table(5000);
    for (uint64_t k = 0; k < 4000; ++k)
        table.findOrInsert(k * 7) = k;
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; k < 2000; ++k)
        keys.push_back(k * 14);
    const uint32_t b = autotuneProbeBatch(
        table, keys.data(), static_cast<uint32_t>(keys.size()));
    EXPECT_EQ(table.probeBatch(), b);
    EXPECT_TRUE(b == 8 || b == 16 || b == 32);
    uint64_t *out = nullptr;
    uint64_t key = 14;
    table.findBatch(&key, 1, &out);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(*out, 2u);
}

// ------------------------------------------------------------------
// End to end: adaptation on == adaptation off, deterministically
// ------------------------------------------------------------------

/** bundle -> KPA extractor (key column 0). */
class ExtractOp : public pipeline::Operator
{
  public:
    explicit ExtractOp(pipeline::Pipeline &pipe)
        : Operator(pipe, "extract")
    {
    }

  protected:
    void
    process(pipeline::Msg msg, int) override
    {
        const ImpactTag tag = classify(msg.min_ts);
        spawnTracked(tag, [this, tag, msg = std::move(msg)](
                              sim::CostLog &log, Emitter &em) mutable {
            auto ctx = makeCtx(log, msg.bundle->cols());
            auto out = kpa::extract(
                ctx, *msg.bundle, ingest::KvGen::kKeyCol,
                eng_.placeKpa(tag,
                              uint64_t{msg.bundle->size()} * 16));
            em.push(pipeline::Msg::ofKpa(std::move(out), msg.min_ts));
        });
    }
};

/** KeyedAggOp with its adaptive session readable from tests. */
class ProbeAggOp : public pipeline::KeyedAggOp
{
  public:
    using KeyedAggOp::KeyedAggOp;

    const OpAdapt *adaptSession() const { return opAdapt(); }
};

class AdaptiveEndToEndTest : public ::testing::Test
{
  protected:
    struct RunResult
    {
        uint64_t output_records = 0;
        uint64_t windows = 0;
        SimTime finished_at = 0;
        uint64_t sort_windows = 0;
        uint64_t hash_windows = 0;
    };

    RunResult
    run(bool adaptive, uint64_t records, uint64_t key_range,
        obs::Telemetry *tele = nullptr)
    {
        EngineConfig ecfg;
        ecfg.cores = 8;
        ecfg.adaptive.enabled = adaptive;
        Engine eng(ecfg);
        if (tele != nullptr)
            eng.setTelemetry(tele);
        pipeline::Pipeline pipe(eng,
                                columnar::WindowSpec{100 * kNsPerMs});
        auto &extract = pipe.add<ExtractOp>(pipe);
        auto &window = pipe.add<pipeline::WindowOp>(
            pipe, "window", ingest::KvGen::kTsCol);
        auto &agg = pipe.add<ProbeAggOp>(
            pipe, "agg", ingest::KvGen::kKeyCol,
            pipeline::aggs::sumPerKey(ingest::KvGen::kValueCol));
        auto &egress = pipe.add<pipeline::EgressOp>(pipe);
        extract.connectTo(&window);
        window.connectTo(&agg);
        agg.connectTo(&egress);

        ingest::KvGen gen(7, key_range, 1000);
        ingest::SourceConfig scfg;
        scfg.bundle_records = 1000;
        // Pace the stream across many 100 ms windows (NIC-limited
        // ingestion would cram everything into one window and give
        // the policy a single decision).
        scfg.offered_rate = 60000;
        scfg.total_records = records;
        ingest::Source src(eng, pipe, gen, &extract, scfg);
        src.start();
        eng.machine().run();

        RunResult r;
        r.output_records = egress.outputRecords();
        r.windows = pipe.windowsExternalized();
        r.finished_at = eng.machine().now();
        if (const OpAdapt *a = agg.adaptSession()) {
            r.sort_windows = a->sortMergeWindows();
            r.hash_windows = a->hashScatterWindows();
        }
        return r;
    }
};

TEST_F(AdaptiveEndToEndTest, SameResultsOnAndOffAndDeterministic)
{
    // Heavy duplication (5 keys: sampled dup factor ~25, far above
    // kDupHashMin): adaptation routes windows through the
    // hash-scatter close, yet every emitted result is identical.
    const RunResult off = run(false, 100000, 5);
    const RunResult on1 = run(true, 100000, 5);
    const RunResult on2 = run(true, 100000, 5);
    EXPECT_EQ(on1.output_records, off.output_records);
    EXPECT_EQ(on1.windows, off.windows);
    // Same seed => same stats => same decisions => same CostLogs:
    // virtual completion time is bit-identical across adaptive runs.
    EXPECT_EQ(on1.finished_at, on2.finished_at);
    EXPECT_EQ(on1.output_records, on2.output_records);
    EXPECT_EQ(on1.sort_windows, on2.sort_windows);
    EXPECT_EQ(on1.hash_windows, on2.hash_windows);
    // The dup-heavy stream must actually engage the hash variant.
    EXPECT_GT(on1.hash_windows, 0u);
}

TEST_F(AdaptiveEndToEndTest, UniqueKeysStayOnSortMerge)
{
    const RunResult on = run(true, 40000, uint64_t{1} << 30);
    EXPECT_EQ(on.hash_windows, 0u);
    EXPECT_GT(on.sort_windows, 0u);
}

TEST_F(AdaptiveEndToEndTest, DecisionsLandInTelemetry)
{
    obs::Telemetry tele;
    const RunResult on = run(true, 100000, 5, &tele);
    const uint64_t sort_count =
        tele.metrics
            .counter(obs::MetricsRegistry::path(
                {"adapt", "agg", "sort_merge"}))
            .value;
    const uint64_t hash_count =
        tele.metrics
            .counter(obs::MetricsRegistry::path(
                {"adapt", "agg", "hash_scatter"}))
            .value;
    EXPECT_EQ(sort_count, on.sort_windows);
    EXPECT_EQ(hash_count, on.hash_windows);
    EXPECT_EQ(sort_count + hash_count, on.windows);
}

} // namespace
} // namespace sbhbm::runtime
