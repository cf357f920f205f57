/**
 * @file
 * Tests of the benchmark's own logic: the percentile sample-count rule
 * and how results are reported, fill-to-window matching behind
 * host_delay_*, the reference aggregators on hand-computed windows, and
 * that the step-driven pipeline run is the program queries::runQuery
 * runs.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "bench.h"
#include "delay.h"
#include "ingest/generator.h"
#include "pipeline_run.h"
#include "queries/query.h"
#include "reference.h"
#include "speed_probe.h"
#include "stats.h"

namespace {

using namespace sbhbm;
using pb::FillStamp;

TEST(PercentileRule, NeedsTenSamplesBeyondThePercentile)
{
    EXPECT_EQ(pb::minSamplesFor(50), 20u);
    EXPECT_EQ(pb::minSamplesFor(90), 100u);
    EXPECT_EQ(pb::minSamplesFor(99), 1000u);

    std::vector<double> v;
    for (int i = 1; i <= 99; ++i)
        v.push_back(i);
    EXPECT_FALSE(pb::percentile(v, 90).has_value());
    v.push_back(100);
    const auto p90 = pb::percentile(v, 90);
    ASSERT_TRUE(p90.has_value());
    EXPECT_EQ(p90->value, 90);
    EXPECT_EQ(p90->samples, 100u);
    const auto p50 = pb::percentile(v, 50);
    ASSERT_TRUE(p50.has_value());
    EXPECT_EQ(p50->value, 50);
}

TEST(PercentileRule, NearestRankIgnoresInputOrder)
{
    std::vector<double> v;
    for (int i = 40; i >= 1; --i)
        v.push_back(i);
    const auto p50 = pb::percentile(v, 50);
    ASSERT_TRUE(p50.has_value());
    EXPECT_EQ(p50->value, 20);
    EXPECT_EQ(pb::median({3, 1, 2}), 2);
    EXPECT_EQ(pb::median({4, 1, 2, 3}), 2.5);
}

TEST(Reporting, PercentilesWithTooFewSamplesFailWhenRequired)
{
    std::vector<double> v(99, 1.0);
    pb::Outcome lenient;
    pb::addPercentiles("d_", v, /*required=*/false, lenient);
    EXPECT_TRUE(lenient.correct);
    EXPECT_EQ(lenient.metrics.count("d_p50"), 1u);
    EXPECT_EQ(lenient.metrics.count("d_p90"), 0u);

    pb::Outcome strict;
    pb::addPercentiles("d_", v, /*required=*/true, strict);
    EXPECT_FALSE(strict.correct);
    v.push_back(2.0);
    pb::Outcome enough;
    pb::addPercentiles("d_", v, /*required=*/true, enough);
    EXPECT_TRUE(enough.correct);
    EXPECT_EQ(enough.metrics.at("d_p90"), 1.0);
}

TEST(Reporting, NominalSpeedScalesTimesByTheProbeFactor)
{
    // A host running at half the nominal speed (factor 2) measured
    // 5 Mrec/s, 100 ms delays and 0.4 s set-up: at nominal speed that
    // is 10 Mrec/s, 50 ms and 0.2 s.
    pb::Outcome out;
    pb::reportAtNominalSpeed(5.0, std::vector<double>(100, 100.0), 0.4, 2.0,
                             out);
    EXPECT_DOUBLE_EQ(out.metrics.at("host_mrps"), 10.0);
    EXPECT_DOUBLE_EQ(out.metrics.at("host_delay_ms_p50"), 50.0);
    EXPECT_DOUBLE_EQ(out.metrics.at("host_delay_ms_p90"), 50.0);
    EXPECT_DOUBLE_EQ(out.metrics.at("setup_s"), 0.2);
}

TEST(SpeedProbe, FactorIsMeanSliceTimeOverNominal)
{
    pb::SpeedProbe probe;
    EXPECT_EQ(probe.factor(), 1.0);
    int64_t total = 0;
    for (int i = 0; i < 4; ++i)
        total += probe.slice();
    EXPECT_EQ(probe.slices(), 4u);
    EXPECT_DOUBLE_EQ(probe.factor(), static_cast<double>(total) / 4
                                         / pb::SpeedProbe::kNominalSliceNs);
}

const columnar::WindowSpec kSpec{1000}; // windows of 1000 ns

FillStamp
fill(int64_t host, EventTime t0, EventTime t1, int64_t bench = 0)
{
    return FillStamp{{host, bench}, t0, t1, 4};
}

TEST(FillMatching, FirstFillReachingTheWindowEndCompletesIt)
{
    // Fills cover [0,600) [600,1200) [1200,1800) [1800,2400).
    const std::vector<FillStamp> fills = {
        fill(10, 0, 600), fill(20, 600, 1200), fill(30, 1200, 1800),
        fill(40, 1800, 2400)};
    EXPECT_EQ(pb::completingFillNs(fills, kSpec, 0), 20);
    EXPECT_EQ(pb::completingFillNs(fills, kSpec, 1), 40);
    // A fill ending exactly on the boundary completes the window.
    const std::vector<FillStamp> exact = {fill(5, 0, 1000),
                                          fill(9, 1000, 2000)};
    EXPECT_EQ(pb::completingFillNs(exact, kSpec, 0), 5);
    // Windows past the stream's end close with its last fill.
    EXPECT_EQ(pb::completingFillNs(fills, kSpec, 7), 40);
}

TEST(FillMatching, TwoStreamWindowWaitsForTheLaterStream)
{
    const std::vector<FillStamp> a = {fill(10, 0, 1000), fill(30, 1000, 2000)};
    const std::vector<FillStamp> b = {fill(15, 0, 500), fill(25, 500, 1000),
                                      fill(35, 1000, 2000)};
    const std::map<columnar::WindowId, pb::ProgramClock> results = {
        {0, {50, 0}}, {1, {70, 0}}};
    const auto d = pb::windowDelaysMs({&a, &b}, kSpec, results, 0);
    ASSERT_EQ(d.size(), 2u);
    EXPECT_DOUBLE_EQ(d[0], (50 - 25) / 1e6); // b completes window 0 at 25
    EXPECT_DOUBLE_EQ(d[1], (70 - 35) / 1e6);
    // Results before the steady state are not samples.
    EXPECT_EQ(pb::windowDelaysMs({&a, &b}, kSpec, results, 60).size(), 1u);
}

TEST(FillMatching, BenchmarkTimeBetweenFillAndResultIsNotDelay)
{
    // Window 0 completes with the fill at host 100 (benchmark time so
    // far 40); its result lands at host 300 after 90 more ns of
    // generating later input: the program spent 300-130 - (100-40).
    const std::vector<FillStamp> s = {fill(100, 0, 1000, 40)};
    const std::map<columnar::WindowId, pb::ProgramClock> results = {
        {0, {300, 130}}};
    const auto d = pb::windowDelaysMs({&s}, kSpec, results, 0);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_DOUBLE_EQ(d[0], 110 / 1e6);
}

TEST(Reference, YsbCountsViewsPerCampaignPerWindow)
{
    using G = ingest::YsbGen;
    pb::YsbReference ref(kSpec);
    auto row = [](uint64_t ts, uint64_t ad, uint64_t type) {
        std::vector<uint64_t> r(7, 0);
        r[G::kTsCol] = ts;
        r[G::kAdCol] = ad;
        r[G::kEventTypeCol] = type;
        return r;
    };
    const std::vector<std::vector<uint64_t>> rows = {
        row(10, 3, G::kViewEvent),   // window 0, campaign 0
        row(20, 7, G::kViewEvent),   // window 0, campaign 0
        row(30, 15, G::kViewEvent),  // window 0, campaign 1
        row(40, 15, 1),              // not a view
        row(1500, 999, G::kViewEvent), // window 1, campaign 99
    };
    for (const auto &r : rows)
        ref.add(r.data());
    const pb::WindowOutputs out = ref.result();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out.at(0).records, 2u);
    EXPECT_EQ(out.at(0).checksum,
              pb::rowChecksum({0, 2}) + pb::rowChecksum({1, 1}));
    EXPECT_EQ(out.at(1).records, 1u);
    EXPECT_EQ(out.at(1).checksum, pb::rowChecksum({99, 1}));
}

TEST(Reference, RowChecksumIsFnv1aOverColumns)
{
    uint64_t h = 1469598103934665603ull;
    for (uint64_t v : {7ull, 9ull}) {
        h ^= v;
        h *= 1099511628211ull;
    }
    EXPECT_EQ(pb::rowChecksum({7, 9}), h);
    EXPECT_NE(pb::rowChecksum({7, 9}), pb::rowChecksum({9, 7}));
}

TEST(Reference, JoinPairsEqualKeysWithinAWindow)
{
    pb::JoinReference ref(kSpec);
    // Window 0: left {1, 1, 2}, right {1, 3}: key 1 pairs 2 x 1.
    ref.add(0, 1, 10);
    ref.add(0, 1, 20);
    ref.add(0, 2, 30);
    ref.add(1, 1, 40);
    ref.add(1, 3, 50);
    // Window 1: left {5}, right {5, 5}; the left 2 does not meet the
    // right 2 of window 2.
    ref.add(0, 5, 1100);
    ref.add(1, 5, 1200);
    ref.add(1, 5, 1300);
    ref.add(0, 2, 1400);
    ref.add(1, 2, 2100);
    ref.finishBefore(1000); // window 0 is done
    const pb::WindowOutputs out = ref.result();
    const auto joined = [](uint64_t k) {
        return pb::rowChecksum({k, pb::joinValue(k), pb::joinValue(k)});
    };
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out.at(0).records, 2u);
    EXPECT_EQ(out.at(0).checksum, 2 * joined(1));
    EXPECT_EQ(out.at(1).records, 2u);
    EXPECT_EQ(out.at(1).checksum, 2 * joined(5));
}

TEST(Reference, MismatchedWindowsFindsDifferencesOnEitherSide)
{
    pb::WindowOutputs ref;
    ref[0] = {2, 100};
    ref[1] = {1, 50};
    ref[2] = {3, 70};
    const std::map<columnar::WindowId, uint64_t> recs = {
        {0, 2}, {1, 1}, {3, 4}};
    const std::map<columnar::WindowId, uint64_t> sums = {
        {0, 100}, {1, 51}, {3, 9}};
    const auto bad = pb::mismatchedWindows(ref, recs, sums);
    EXPECT_EQ(bad, (std::vector<columnar::WindowId>{1, 2, 3}));
}

/**
 * The benchmark drives the pipeline itself; it must run exactly the
 * program runQuery runs: same records in, same results out, same
 * windows, same virtual end time, same output delays and the same
 * resource-monitor samples (placement, cores and sampling period).
 */
void
expectSameAsRunQuery(const char *workload, unsigned threads)
{
    pb::Workload wl{workload, threads, true, 0};
    pb::SpeedProbe probe;
    pb::PipelineRun run(wl, 5, 1'000'000, probe, nullptr);
    run.drive(false);
    const queries::QueryResult ref = queries::runQuery(run.config());
    EXPECT_EQ(run.recordsIn(), ref.records_ingested) << workload;
    EXPECT_EQ(run.egress().outputRecords(), ref.output_records) << workload;
    EXPECT_EQ(run.windowsExternalized(), ref.windows_externalized)
        << workload;
    EXPECT_DOUBLE_EQ(static_cast<double>(run.recordsIn())
                         / simToSeconds(run.engine().machine().now()) / 1e6,
                     ref.total_mrps)
        << workload;
    runtime::Engine &eng = run.engine();
    EXPECT_DOUBLE_EQ(eng.outputDelays().mean(), ref.mean_delay_s) << workload;
    EXPECT_DOUBLE_EQ(eng.outputDelays().max(), ref.max_delay_s) << workload;
    EXPECT_EQ(eng.monitor().samples().size(), ref.samples.size()) << workload;
    EXPECT_DOUBLE_EQ(eng.monitor().hbmBwStat().max() / 1e9,
                     ref.peak_hbm_bw_gbps)
        << workload;
    EXPECT_DOUBLE_EQ(eng.monitor().hbmUsedStat().mean() / 1e9,
                     ref.avg_hbm_used_gb)
        << workload;
}

TEST(PipelineRun, RunsTheProgramRunQueryRuns)
{
    expectSameAsRunQuery("ysb", 1);
    expectSameAsRunQuery("join", 2);
}

} // namespace
