/**
 * @file
 * Operator-machinery tests: watermark alignment, deferred emission,
 * impact-tag classification, Table 1 operator/primitive mapping.
 */

#include "pipeline/operator.h"

#include <gtest/gtest.h>

#include <vector>

#include "pipeline/aggregations.h"
#include "pipeline/egress.h"
#include "pipeline/pipeline.h"

namespace sbhbm::pipeline {
namespace {

runtime::EngineConfig
cfg4()
{
    runtime::EngineConfig cfg;
    cfg.cores = 4;
    return cfg;
}

/** Records everything it receives, with timestamps. */
class ProbeOp : public Operator
{
  public:
    explicit ProbeOp(Pipeline &pipe) : Operator(pipe, "probe") {}

    std::vector<SimTime> msg_times;
    std::vector<std::pair<EventTime, SimTime>> wm_times;

  protected:
    void
    process(Msg, int) override
    {
        msg_times.push_back(eng_.machine().now());
    }

    void
    onWatermark(Watermark wm) override
    {
        wm_times.push_back({wm.ts, eng_.machine().now()});
    }
};

/** Pass-through operator spawning one fixed-cost task per message. */
class DelayOp : public Operator
{
  public:
    DelayOp(Pipeline &pipe, double cpu_ns)
        : Operator(pipe, "delay"), cpu_ns_(cpu_ns)
    {
    }

  protected:
    void
    process(Msg msg, int) override
    {
        spawnTracked(ImpactTag::kHigh,
                     [this, msg = std::move(msg)](sim::CostLog &log,
                                                  Emitter &em) mutable {
                         log.cpu(cpu_ns_);
                         em.push(std::move(msg));
                     });
    }

  private:
    double cpu_ns_;
};

class OperatorTest : public ::testing::Test
{
  protected:
    OperatorTest()
        : eng_(cfg4()), pipe_(eng_, columnar::WindowSpec{kNsPerSec})
    {
    }

    Msg
    bundleMsg(EventTime ts)
    {
        auto *b = columnar::Bundle::create(eng_.memory(), 3, 4);
        b->append({1, 2, ts});
        return Msg::ofBundle(columnar::BundleHandle::adopt(b), ts);
    }

    runtime::Engine eng_;
    Pipeline pipe_;
};

TEST_F(OperatorTest, OutputsEmittedOnlyAtSimulatedCompletion)
{
    auto &delay = pipe_.add<DelayOp>(pipe_, 50000.0);
    auto &probe = pipe_.add<ProbeOp>(pipe_);
    delay.connectTo(&probe);

    delay.receive(bundleMsg(10));
    EXPECT_TRUE(probe.msg_times.empty()) << "no emission at dispatch";
    eng_.machine().run();
    ASSERT_EQ(probe.msg_times.size(), 1u);
    EXPECT_GE(probe.msg_times[0], 50000u);
}

TEST_F(OperatorTest, WatermarkWaitsForPrecedingTasks)
{
    auto &delay = pipe_.add<DelayOp>(pipe_, 100000.0);
    auto &probe = pipe_.add<ProbeOp>(pipe_);
    delay.connectTo(&probe);

    delay.receive(bundleMsg(10));
    delay.receiveWatermark(Watermark{kNsPerSec});
    eng_.machine().run();
    ASSERT_EQ(probe.wm_times.size(), 1u);
    ASSERT_EQ(probe.msg_times.size(), 1u);
    EXPECT_GE(probe.wm_times[0].second, probe.msg_times[0])
        << "wm must not overtake data";
}

TEST_F(OperatorTest, WatermarkPassesImmediatelyWhenIdle)
{
    auto &delay = pipe_.add<DelayOp>(pipe_, 1000.0);
    auto &probe = pipe_.add<ProbeOp>(pipe_);
    delay.connectTo(&probe);
    delay.receiveWatermark(Watermark{123});
    eng_.machine().run();
    ASSERT_EQ(probe.wm_times.size(), 1u);
    EXPECT_EQ(probe.wm_times[0].first, 123u);
}

TEST_F(OperatorTest, DuplicateWatermarksAreSuppressed)
{
    auto &delay = pipe_.add<DelayOp>(pipe_, 1000.0);
    auto &probe = pipe_.add<ProbeOp>(pipe_);
    delay.connectTo(&probe);
    delay.receiveWatermark(Watermark{100});
    delay.receiveWatermark(Watermark{100});
    delay.receiveWatermark(Watermark{50}); // regression is ignored
    eng_.machine().run();
    EXPECT_EQ(probe.wm_times.size(), 1u);
}

TEST_F(OperatorTest, TwoPortWatermarkIsTheMinimum)
{
    auto &probe = pipe_.add<ProbeOp>(pipe_);
    // A raw two-port operator around the probe.
    class TwoPort : public Operator
    {
      public:
        explicit TwoPort(Pipeline &p) : Operator(p, "twoport", 2) {}

      protected:
        void process(Msg, int) override {}
    };
    auto &tp = pipe_.add<TwoPort>(pipe_);
    tp.connectTo(&probe);

    tp.receiveWatermark(Watermark{200}, 0);
    eng_.machine().run();
    EXPECT_TRUE(probe.wm_times.empty()) << "port 1 has no wm yet";

    tp.receiveWatermark(Watermark{150}, 1);
    eng_.machine().run();
    ASSERT_EQ(probe.wm_times.size(), 1u);
    EXPECT_EQ(probe.wm_times[0].first, 150u) << "min of both ports";

    tp.receiveWatermark(Watermark{400}, 1);
    eng_.machine().run();
    ASSERT_EQ(probe.wm_times.size(), 2u);
    EXPECT_EQ(probe.wm_times[1].first, 200u);
}

TEST_F(OperatorTest, ClassifyFollowsTargetWindow)
{
    const auto &spec = pipe_.windows();
    // next window to close is 0.
    EXPECT_EQ(pipe_.classify(spec.start(0)), ImpactTag::kUrgent);
    EXPECT_EQ(pipe_.classify(spec.start(1)), ImpactTag::kHigh);
    EXPECT_EQ(pipe_.classify(spec.start(2)), ImpactTag::kHigh);
    EXPECT_EQ(pipe_.classify(spec.start(3)), ImpactTag::kLow);

    pipe_.noteWindowExternalized(4);
    EXPECT_EQ(pipe_.classify(spec.start(3)), ImpactTag::kUrgent);
    EXPECT_EQ(pipe_.classify(spec.start(5)), ImpactTag::kUrgent);
    EXPECT_EQ(pipe_.classify(spec.start(6)), ImpactTag::kHigh);
    EXPECT_EQ(pipe_.windowsExternalized(), 5u);
}

TEST_F(OperatorTest, ExternalizationCountIsIdempotent)
{
    pipe_.noteWindowExternalized(2);
    pipe_.noteWindowExternalized(2);
    pipe_.noteWindowExternalized(1);
    EXPECT_EQ(pipe_.windowsExternalized(), 3u);
    EXPECT_EQ(pipe_.targetWindow(), 3u);
}

TEST_F(OperatorTest, RowSinkBuildsBundles)
{
    RowSink sink(2);
    sink.push({1, 10});
    sink.push({2, 20});
    EXPECT_EQ(sink.rows(), 2u);
    auto b = sink.toBundle(eng_.memory());
    ASSERT_TRUE(b);
    EXPECT_EQ(b->size(), 2u);
    EXPECT_EQ(b->row(1)[1], 20u);

    RowSink empty(3);
    EXPECT_FALSE(empty.toBundle(eng_.memory()));
}

/**
 * Table 1 mapping check: aggregations are built from the documented
 * primitives (sort/merge on KPAs + keyed reduction) — here we verify
 * the aggregator library computes the documented functions.
 *
 * Each aggregation reduces three consecutive key runs of lengths 4, 1
 * and 3 through one Aggregation and one sink, as a window's close
 * does: a reducer whose reused scratch kept the previous run's values
 * would miscount the shorter runs after the first.
 */
TEST_F(OperatorTest, AggregatorLibraryComputesDocumentedFunctions)
{
    // Key runs over rows with value column 1.
    std::vector<std::array<uint64_t, 2>> rows = {
        {7, 30}, {7, 10}, {7, 20}, {7, 10}, // run 7: 4 entries
        {8, 5},                             // run 8: 1 entry
        {9, 40}, {9, 2}, {9, 40}};          // run 9: 3 entries
    std::vector<kpa::KpEntry> entries;
    for (auto &r : rows)
        entries.push_back({r[0], r.data()});
    const size_t run_len[] = {4, 1, 3};

    auto check = [&](Aggregation a,
                     std::vector<std::array<uint64_t, 2>> expect) {
        RowSink sink(a.out_cols);
        const kpa::KpEntry *run = entries.data();
        for (const size_t n : run_len) {
            a.per_key(run->key, run, n, sink);
            run += n;
        }
        ASSERT_EQ(sink.rows(), expect.size());
        auto b = sink.toBundle(eng_.memory());
        ASSERT_EQ(b->size(), expect.size());
        for (size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(b->row(i)[0], expect[i][0]) << "row " << i;
            EXPECT_EQ(b->row(i)[1], expect[i][1]) << "row " << i;
        }
    };

    check(aggs::sumPerKey(1), {{7, 70}, {8, 5}, {9, 82}});
    check(aggs::countPerKey(), {{7, 4}, {8, 1}, {9, 3}});
    check(aggs::avgPerKey(1), {{7, 17}, {8, 5}, {9, 27}});
    check(aggs::medianPerKey(1), {{7, 20}, {8, 5}, {9, 40}});
    check(aggs::topKPerKey(1, 2),
          {{7, 30}, {7, 20}, {8, 5}, {9, 40}, {9, 40}});
    // K beyond every run emits each run whole, descending.
    check(aggs::topKPerKey(1, 5), {{7, 30},
                                   {7, 20},
                                   {7, 10},
                                   {7, 10},
                                   {8, 5},
                                   {9, 40},
                                   {9, 40},
                                   {9, 2}});
    check(aggs::uniqueCountPerKey(1), {{7, 3}, {8, 1}, {9, 2}});
}

} // namespace
} // namespace sbhbm::pipeline
