/**
 * @file
 * End-to-end pipeline tests: run full pipelines on the simulated
 * machine and check the emitted results against independent reference
 * computations over the exact same generated input.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "ingest/generator.h"
#include "ingest/source.h"
#include "pipeline/aggregations.h"
#include "pipeline/egress.h"
#include "pipeline/external_join.h"
#include "pipeline/pardo.h"
#include "pipeline/pipeline.h"
#include "pipeline/temporal_join.h"
#include "pipeline/unkeyed.h"
#include "pipeline/windowing.h"

namespace sbhbm::pipeline {
namespace {

using ingest::KvGen;
using ingest::Source;
using ingest::SourceConfig;

runtime::EngineConfig
testEngineConfig(unsigned cores = 8)
{
    runtime::EngineConfig cfg;
    cfg.cores = cores;
    return cfg;
}

/** Simple extractor operator: bundle -> KPA(key_col), no filtering. */
class ExtractOp : public Operator
{
  public:
    ExtractOp(Pipeline &pipe, columnar::ColumnId key_col)
        : Operator(pipe, "extract"), key_col_(key_col)
    {
    }

  protected:
    void
    process(Msg msg, int) override
    {
        const ImpactTag tag = classify(msg.min_ts);
        spawnTracked(tag, [this, tag, msg = std::move(msg)](
                              sim::CostLog &log, Emitter &em) mutable {
            auto ctx = makeCtx(log, msg.bundle->cols());
            auto out = kpa::extract(
                ctx, *msg.bundle, key_col_,
                eng_.placeKpa(tag, uint64_t{msg.bundle->size()} * 16));
            em.push(Msg::ofKpa(std::move(out), msg.min_ts));
        });
    }

  private:
    columnar::ColumnId key_col_;
};

class EndToEndTest : public ::testing::Test
{
  protected:
    static constexpr uint64_t kKeyRange = 40;
    static constexpr uint64_t kValueRange = 1000;

    /** Build and run: source -> extract -> window -> agg -> egress. */
    void
    runKeyedPipeline(Aggregation agg, uint64_t total_records,
                     runtime::EngineConfig ecfg = testEngineConfig())
    {
        // A second run replaces the engine: tear the old source and
        // pipeline down first, while their engine is still alive.
        src_.reset();
        pipe_.reset();
        eng_ = std::make_unique<runtime::Engine>(ecfg);
        pipe_ = std::make_unique<Pipeline>(
            *eng_, columnar::WindowSpec{100 * kNsPerMs});

        auto &extract = pipe_->add<ExtractOp>(*pipe_, KvGen::kKeyCol);
        auto &window = pipe_->add<WindowOp>(*pipe_, "window",
                                            KvGen::kTsCol);
        auto &aggop = pipe_->add<KeyedAggOp>(*pipe_, "agg",
                                             KvGen::kKeyCol,
                                             std::move(agg));
        egress_ = &pipe_->add<EgressOp>(*pipe_);
        extract.connectTo(&window);
        window.connectTo(&aggop);
        aggop.connectTo(egress_);

        gen_ = std::make_unique<KvGen>(7, kKeyRange, kValueRange);
        SourceConfig scfg;
        scfg.bundle_records = 5000;
        scfg.total_records = total_records;
        src_ = std::make_unique<Source>(*eng_, *pipe_, *gen_, &extract,
                                        scfg);
        src_->start();
        eng_->machine().run();
    }

    /** Replay the same generator to get the ground-truth records. */
    std::vector<std::array<uint64_t, 3>>
    replayInput(uint64_t total_records)
    {
        // Mirror the source's pacing: bundle timestamps depend only on
        // NIC rate, so replay with the same seed and same spreads is
        // not needed — we read back what the engine ingested instead.
        // For verification we re-run a second identical engine setup
        // and capture rows at ingestion.
        std::vector<std::array<uint64_t, 3>> rows;
        runtime::Engine eng(testEngineConfig());
        Pipeline pipe(eng, columnar::WindowSpec{100 * kNsPerMs});

        class CaptureOp : public Operator
        {
          public:
            CaptureOp(Pipeline &p,
                      std::vector<std::array<uint64_t, 3>> &out)
                : Operator(p, "capture"), out_(out)
            {
            }

          protected:
            void
            process(Msg msg, int) override
            {
                for (uint32_t r = 0; r < msg.bundle->size(); ++r) {
                    const uint64_t *row = msg.bundle->row(r);
                    out_.push_back({row[0], row[1], row[2]});
                }
            }

          private:
            std::vector<std::array<uint64_t, 3>> &out_;
        };

        auto &cap = pipe.add<CaptureOp>(pipe, rows);
        KvGen gen(7, kKeyRange, kValueRange);
        SourceConfig scfg;
        scfg.bundle_records = 5000;
        scfg.total_records = total_records;
        Source src(eng, pipe, gen, &cap, scfg);
        src.start();
        eng.machine().run();
        return rows;
    }

    std::unique_ptr<runtime::Engine> eng_;
    std::unique_ptr<Pipeline> pipe_;
    std::unique_ptr<KvGen> gen_;
    std::unique_ptr<Source> src_;
    EgressOp *egress_ = nullptr;
};

TEST_F(EndToEndTest, WindowedSumPerKeyMatchesReference)
{
    const uint64_t n = 50000;
    runKeyedPipeline(aggs::sumPerKey(KvGen::kValueCol), n);

    // Ground truth from an identical replay.
    auto rows = replayInput(n);
    ASSERT_EQ(rows.size(), n);
    columnar::WindowSpec spec{100 * kNsPerMs};
    std::map<std::pair<uint64_t, uint64_t>, uint64_t> expect;
    for (const auto &r : rows)
        expect[{spec.windowOf(r[2]), r[0]}] += r[1];

    // The engine's outputs, keyed the same way, via egress counters:
    // total output records == number of (window, key) groups.
    uint64_t expect_groups = expect.size();
    EXPECT_EQ(egress_->outputRecords(), expect_groups);
    EXPECT_GT(pipe_->windowsExternalized(), 0u);
}

TEST_F(EndToEndTest, AllWindowsExternalizeAndDelaysRecorded)
{
    runKeyedPipeline(aggs::countPerKey(), 50000);
    EXPECT_TRUE(src_->finished());
    EXPECT_EQ(src_->recordsIngested(), 50000u);
    // Every closed window reported a delay sample.
    EXPECT_EQ(eng_->outputDelays().size(),
              egress_->windowRecords().size());
    for (double d : eng_->outputDelays().samples())
        EXPECT_LT(d, 1.0) << "delay above 1s target in a tiny test";
}

TEST_F(EndToEndTest, MemoryFullyReclaimedAfterDrain)
{
    runKeyedPipeline(aggs::sumPerKey(KvGen::kValueCol), 30000);
    // All bundles and KPAs destroyed: gauges back to zero.
    EXPECT_EQ(eng_->memory().gauge(mem::Tier::kHbm).used(), 0u);
    EXPECT_EQ(eng_->memory().gauge(mem::Tier::kDram).used(), 0u);
    EXPECT_EQ(eng_->inflightBundles(), 0u);
}

TEST_F(EndToEndTest, DeterministicAcrossRuns)
{
    runKeyedPipeline(aggs::sumPerKey(KvGen::kValueCol), 20000);
    const uint64_t out1 = egress_->outputRecords();
    const SimTime t1 = eng_->machine().now();
    runKeyedPipeline(aggs::sumPerKey(KvGen::kValueCol), 20000);
    EXPECT_EQ(egress_->outputRecords(), out1);
    EXPECT_EQ(eng_->machine().now(), t1);
}

TEST_F(EndToEndTest, MoreCoresFinishFasterUnderFixedWork)
{
    // The fixed amount of grouping work drains sooner with more
    // cores: total virtual time (ingest + close + drain) shrinks.
    runKeyedPipeline(aggs::sumPerKey(KvGen::kValueCol), 200000,
                     testEngineConfig(2));
    const SimTime t2 = eng_->machine().now();
    runKeyedPipeline(aggs::sumPerKey(KvGen::kValueCol), 200000,
                     testEngineConfig(16));
    const SimTime t16 = eng_->machine().now();
    EXPECT_LT(t16, t2);
}

TEST_F(EndToEndTest, AvgAllPipelineEmitsOneRecordPerWindow)
{
    auto ecfg = testEngineConfig();
    eng_ = std::make_unique<runtime::Engine>(ecfg);
    pipe_ = std::make_unique<Pipeline>(
        *eng_, columnar::WindowSpec{100 * kNsPerMs});
    auto &avg = pipe_->add<AvgAllOp>(*pipe_, "avgall", KvGen::kTsCol,
                                     KvGen::kValueCol);
    egress_ = &pipe_->add<EgressOp>(*pipe_);
    avg.connectTo(egress_);

    gen_ = std::make_unique<KvGen>(11, kKeyRange, kValueRange);
    SourceConfig scfg;
    scfg.bundle_records = 5000;
    scfg.total_records = 40000;
    src_ = std::make_unique<Source>(*eng_, *pipe_, *gen_, &avg, scfg);
    src_->start();
    eng_->machine().run();

    EXPECT_EQ(egress_->outputRecords(), egress_->windowRecords().size());
    EXPECT_GT(egress_->outputRecords(), 0u);
}

TEST_F(EndToEndTest, TemporalJoinCountsMatchReference)
{
    auto ecfg = testEngineConfig();
    eng_ = std::make_unique<runtime::Engine>(ecfg);
    pipe_ = std::make_unique<Pipeline>(
        *eng_, columnar::WindowSpec{100 * kNsPerMs});

    auto &ex_l = pipe_->add<ExtractOp>(*pipe_, KvGen::kKeyCol);
    auto &ex_r = pipe_->add<ExtractOp>(*pipe_, KvGen::kKeyCol);
    auto &win_l = pipe_->add<WindowOp>(*pipe_, "win_l", KvGen::kTsCol);
    auto &win_r = pipe_->add<WindowOp>(*pipe_, "win_r", KvGen::kTsCol);
    auto &join = pipe_->add<TemporalJoinOp>(*pipe_, "join",
                                            KvGen::kKeyCol,
                                            KvGen::kValueCol);
    egress_ = &pipe_->add<EgressOp>(*pipe_);
    ex_l.connectTo(&win_l);
    ex_r.connectTo(&win_r);
    win_l.connectTo(&join, 0);
    win_r.connectTo(&join, 1);
    join.connectTo(egress_);

    KvGen gen_l(21, 30, 100);
    KvGen gen_r(22, 30, 100);
    SourceConfig scfg;
    scfg.bundle_records = 1000;
    scfg.total_records = 10000;
    Source src_l(*eng_, *pipe_, gen_l, &ex_l, scfg, 0);
    Source src_r(*eng_, *pipe_, gen_r, &ex_r, scfg, 0);
    src_l.start();
    src_r.start();
    eng_->machine().run();

    // Reference: replay both generators; both sources see identical
    // pacing, so timestamps match the engine run exactly.
    columnar::WindowSpec spec{100 * kNsPerMs};
    std::map<std::pair<uint64_t, uint64_t>, uint64_t> l_cnt, r_cnt;
    {
        runtime::Engine eng2(testEngineConfig());
        Pipeline pipe2(eng2, spec);

        class CaptureOp : public Operator
        {
          public:
            CaptureOp(Pipeline &p,
                      std::map<std::pair<uint64_t, uint64_t>, uint64_t> &m)
                : Operator(p, "cap"), m_(m)
            {
            }

          protected:
            void
            process(Msg msg, int) override
            {
                columnar::WindowSpec spec{100 * kNsPerMs};
                for (uint32_t r = 0; r < msg.bundle->size(); ++r) {
                    const uint64_t *row = msg.bundle->row(r);
                    ++m_[{spec.windowOf(row[2]), row[0]}];
                }
            }

          private:
            std::map<std::pair<uint64_t, uint64_t>, uint64_t> &m_;
        };

        auto &cl = pipe2.add<CaptureOp>(pipe2, l_cnt);
        auto &cr = pipe2.add<CaptureOp>(pipe2, r_cnt);
        KvGen g_l(21, 30, 100), g_r(22, 30, 100);
        Source s_l(eng2, pipe2, g_l, &cl, scfg, 0);
        Source s_r(eng2, pipe2, g_r, &cr, scfg, 0);
        s_l.start();
        s_r.start();
        eng2.machine().run();
    }
    uint64_t expect_pairs = 0;
    for (const auto &[wk, cl] : l_cnt) {
        auto it = r_cnt.find(wk);
        if (it != r_cnt.end())
            expect_pairs += cl * it->second;
    }
    EXPECT_EQ(egress_->outputRecords(), expect_pairs);
    EXPECT_GT(expect_pairs, 0u);
}

} // namespace
} // namespace sbhbm::pipeline
