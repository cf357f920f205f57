/**
 * @file
 * Tests of the ParDo family: Filter, KpaFilter, Sample, FlatMap.
 */

#include <gtest/gtest.h>

#include <set>

#include "ingest/generator.h"
#include "ingest/source.h"
#include "pipeline/egress.h"
#include "pipeline/extract.h"
#include "pipeline/pardo.h"
#include "pipeline/pipeline.h"

namespace sbhbm::pipeline {
namespace {

using ingest::KvGen;
using ingest::Source;
using ingest::SourceConfig;
using ingest::YsbGen;

runtime::EngineConfig
engineConfig()
{
    runtime::EngineConfig cfg;
    cfg.cores = 4;
    return cfg;
}

/** Sink counting KPA entries / bundle rows it receives. */
class CountSink : public Operator
{
  public:
    explicit CountSink(Pipeline &p) : Operator(p, "count") {}

    uint64_t kpa_entries = 0;
    uint64_t bundle_rows = 0;
    std::set<uint64_t> keys;

  protected:
    void
    process(Msg msg, int) override
    {
        if (msg.isKpa()) {
            kpa_entries += msg.kpa->size();
            for (uint32_t i = 0; i < msg.kpa->size(); ++i)
                keys.insert(msg.kpa->at(i).key);
        } else {
            bundle_rows += msg.bundle->size();
        }
    }
};

/**
 * Sink checking every filtered KPA against its source bundle: its
 * entries must be exactly the bundle's rows whose filter column
 * matches, in row order, keyed on the key column.
 */
class FilterCheckSink : public Operator
{
  public:
    FilterCheckSink(Pipeline &p, columnar::ColumnId key_col,
                    columnar::ColumnId filter_col, uint64_t value)
        : Operator(p, "filter_check"), key_col_(key_col),
          filter_col_(filter_col), value_(value)
    {
    }

    uint64_t kpas = 0;
    uint64_t kept = 0;
    uint64_t mismatches = 0;
    uint64_t wrong_resident = 0;

  protected:
    void
    process(Msg msg, int) override
    {
        ++kpas;
        const kpa::Kpa &k = *msg.kpa;
        if (k.residentColumn() != key_col_)
            ++wrong_resident;
        const columnar::Bundle &b = *k.sources().front();
        uint32_t i = 0;
        for (uint32_t r = 0; r < b.size(); ++r) {
            const uint64_t *row = b.row(r);
            if (row[filter_col_] != value_)
                continue;
            if (i >= k.size() || k.at(i).row != row
                || k.at(i).key != row[key_col_])
                ++mismatches;
            ++i;
        }
        if (i != k.size())
            ++mismatches;
        kept += k.size();
    }

  private:
    columnar::ColumnId key_col_;
    columnar::ColumnId filter_col_;
    uint64_t value_;
};

class PardoTest : public ::testing::Test
{
  protected:
    static constexpr uint64_t kRecords = 40'000;
    static constexpr uint64_t kKeys = 100;

    template <typename Op, typename... Args>
    CountSink &
    run(Args &&...args)
    {
        // A second run replaces the engine: tear the old pipeline down
        // first, while its engine is still alive.
        pipe_.reset();
        eng_ = std::make_unique<runtime::Engine>(engineConfig());
        pipe_ = std::make_unique<Pipeline>(
            *eng_, columnar::WindowSpec{100 * kNsPerMs});
        auto &extract = pipe_->add<ExtractOp>(*pipe_, "ex",
                                              KvGen::kKeyCol);
        auto &op = pipe_->add<Op>(*pipe_, std::forward<Args>(args)...);
        auto &sink = pipe_->add<CountSink>(*pipe_);
        extract.connectTo(&op);
        op.connectTo(&sink);

        KvGen gen(7, kKeys, 1000);
        SourceConfig scfg;
        scfg.bundle_records = 4'000;
        scfg.total_records = kRecords;
        Source src(*eng_, *pipe_, gen, &extract, scfg);
        src.start();
        eng_->machine().run();
        return sink;
    }

    std::unique_ptr<runtime::Engine> eng_;
    std::unique_ptr<Pipeline> pipe_;
};

TEST_F(PardoTest, FilterKeepsRowsWhoseColumnMatches)
{
    // YSB's filter: keep view events, keyed on the ad column.
    eng_ = std::make_unique<runtime::Engine>(engineConfig());
    pipe_ = std::make_unique<Pipeline>(
        *eng_, columnar::WindowSpec{100 * kNsPerMs});
    auto &filter = pipe_->add<FilterOp>(*pipe_, "filter", YsbGen::kAdCol,
                                        YsbGen::kEventTypeCol,
                                        YsbGen::kViewEvent);
    auto &sink = pipe_->add<FilterCheckSink>(
        *pipe_, YsbGen::kAdCol, YsbGen::kEventTypeCol, YsbGen::kViewEvent);
    filter.connectTo(&sink);

    YsbGen gen(11);
    SourceConfig scfg;
    scfg.bundle_records = 4'000;
    scfg.total_records = kRecords;
    Source src(*eng_, *pipe_, gen, &filter, scfg);
    src.start();
    eng_->machine().run();

    // The same seed regenerates the stream's filter column.
    YsbGen again(11);
    columnar::BundleHandle all = columnar::BundleHandle::adopt(
        columnar::Bundle::create(eng_->memory(), again.cols(), kRecords));
    again.fill(*all, kRecords, 0, kNsPerSec);
    uint64_t views = 0;
    for (uint32_t r = 0; r < all->size(); ++r)
        views += all->row(r)[YsbGen::kEventTypeCol] == YsbGen::kViewEvent;

    EXPECT_EQ(sink.kpas, kRecords / scfg.bundle_records);
    EXPECT_EQ(sink.mismatches, 0u);
    EXPECT_EQ(sink.wrong_resident, 0u);
    EXPECT_EQ(sink.kept, views);
    // About one event in three is a view.
    EXPECT_NEAR(static_cast<double>(views), kRecords / 3.0,
                kRecords * 0.05);
}

TEST_F(PardoTest, KpaFilterKeepsExactlyMatchingKeys)
{
    auto &sink = run<KpaFilterOp>("filter", [](uint64_t k) {
        return k % 2 == 0;
    });
    for (uint64_t k : sink.keys)
        EXPECT_EQ(k % 2, 0u);
    // Uniform keys: about half survive.
    EXPECT_NEAR(static_cast<double>(sink.kpa_entries), kRecords / 2.0,
                kRecords * 0.05);
}

TEST_F(PardoTest, SampleKeepsRequestedFraction)
{
    auto &sink = run<SampleOp>("sample", 0.25);
    // Sampling selects whole keys (hash of key), so the kept fraction
    // fluctuates with the key population: expect 25% +- 15% of keys.
    EXPECT_NEAR(static_cast<double>(sink.keys.size()), kKeys * 0.25,
                kKeys * 0.15);
    EXPECT_GT(sink.kpa_entries, 0u);
    EXPECT_LT(sink.kpa_entries, kRecords / 2);
}

TEST_F(PardoTest, SampleIsDeterministic)
{
    auto keys1 = run<SampleOp>("sample", 0.3).keys;
    auto keys2 = run<SampleOp>("sample", 0.3).keys;
    EXPECT_EQ(keys1, keys2);
}

TEST_F(PardoTest, SampleRateZeroAndOneAreExact)
{
    EXPECT_EQ(run<SampleOp>("none", 0.0).kpa_entries, 0u);
    EXPECT_EQ(run<SampleOp>("all", 1.0).kpa_entries, kRecords);
}

TEST(FlatMapTest, FanOutProducesNewRecords)
{
    runtime::Engine eng(engineConfig());
    Pipeline pipe(eng, columnar::WindowSpec{100 * kNsPerMs});

    // Duplicate every record with value halved; drop odd keys.
    auto &fm = pipe.add<FlatMapOp>(
        pipe, "flatmap", 2,
        [](const uint64_t *row, const FlatMapOp::Emit &emit) {
            if (row[KvGen::kKeyCol] % 2 != 0)
                return;
            const uint64_t out1[2] = {row[0], row[1]};
            const uint64_t out2[2] = {row[0], row[1] / 2};
            emit(out1);
            emit(out2);
        });

    class RowSinkOp : public Operator
    {
      public:
        explicit RowSinkOp(Pipeline &p) : Operator(p, "rows") {}
        uint64_t rows = 0;

      protected:
        void
        process(Msg msg, int) override
        {
            ASSERT_TRUE(msg.isBundle());
            ASSERT_EQ(msg.bundle->cols(), 2u);
            rows += msg.bundle->size();
        }
    };
    auto &sink = pipe.add<RowSinkOp>(pipe);
    fm.connectTo(&sink);

    KvGen gen(9, 100, 1000);
    SourceConfig scfg;
    scfg.bundle_records = 4'000;
    scfg.total_records = 40'000;
    Source src(eng, pipe, gen, &fm, scfg);
    src.start();
    eng.machine().run();

    // Half the keys survive, each duplicated: ~ the original count.
    EXPECT_NEAR(static_cast<double>(sink.rows), 40'000.0,
                40'000 * 0.05);
    EXPECT_EQ(eng.inflightBundles(), 0u);
}

} // namespace
} // namespace sbhbm::pipeline
