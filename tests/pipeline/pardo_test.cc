/**
 * @file
 * Tests of the ParDo Filter operator.
 */

#include <gtest/gtest.h>

#include "ingest/generator.h"
#include "ingest/source.h"
#include "pipeline/pardo.h"
#include "pipeline/pipeline.h"

namespace sbhbm::pipeline {
namespace {

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

} // namespace
} // namespace sbhbm::pipeline
