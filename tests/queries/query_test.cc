/**
 * @file
 * Integration tests of the query harness: every evaluation query runs
 * end-to-end on every engine variant that runs it (the Flink-like
 * engine runs YSB only), produces output, meets basic invariants
 * (drained memory, bounded delay, sane rates) and is deterministic.
 */

#include <gtest/gtest.h>

#include "queries/query.h"

namespace sbhbm::queries {
namespace {

QueryConfig
smallConfig(QueryId id)
{
    QueryConfig cfg;
    cfg.id = id;
    cfg.cores = 8;
    cfg.total_records = 400'000;
    cfg.bundle_records = 10'000;
    cfg.window_ns = 25 * kNsPerMs;
    cfg.key_range = 500;
    if (id == QueryId::kTemporalJoin)
        cfg.key_range = 100'000; // keep the join output linear
    return cfg;
}

// ---------------------------------------------------------------
// Every query on the full engine.
// ---------------------------------------------------------------

class EveryQuery : public ::testing::TestWithParam<QueryId>
{
};

TEST_P(EveryQuery, RunsAndProducesOutput)
{
    const QueryResult r = runQuery(smallConfig(GetParam()));
    EXPECT_EQ(r.records_ingested,
              GetParam() == QueryId::kTemporalJoin
                      || GetParam() == QueryId::kWindowedFilter
                  ? 800'000u
                  : 400'000u);
    EXPECT_GT(r.output_records, 0u);
    EXPECT_GT(r.windows_externalized, 0u);
    EXPECT_GT(r.throughput_mrps, 0.0);
    EXPECT_GT(r.sim_seconds, 0.0);
}

TEST_P(EveryQuery, Deterministic)
{
    const QueryResult a = runQuery(smallConfig(GetParam()));
    const QueryResult b = runQuery(smallConfig(GetParam()));
    EXPECT_EQ(a.output_records, b.output_records);
    EXPECT_EQ(a.windows_externalized, b.windows_externalized);
    EXPECT_DOUBLE_EQ(a.throughput_mrps, b.throughput_mrps);
    EXPECT_DOUBLE_EQ(a.peak_hbm_bw_gbps, b.peak_hbm_bw_gbps);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, EveryQuery,
                         ::testing::ValuesIn(allQueries()),
                         [](const auto &param_info) {
                             std::string n = queryName(param_info.param);
                             for (char &c : n)
                                 if (c == ' ')
                                     c = '_';
                             return n;
                         });

// ---------------------------------------------------------------
// Every engine variant on fixed queries: YSB on all five, TopK on the
// four that run every query (the Flink-like engine runs YSB only).
// TEST_P would cross each test with every engine, so the pairs are
// registered by hand, under the names TEST_P gives them.
// ---------------------------------------------------------------

void
runsTopKAndProducesOutput(EngineKind engine)
{
    QueryConfig cfg = smallConfig(QueryId::kTopKPerKey);
    cfg.engine = engine;
    const QueryResult r = runQuery(cfg);
    EXPECT_GT(r.output_records, 0u);
    EXPECT_GT(r.throughput_mrps, 0.0);
}

void
runsYsb(EngineKind engine)
{
    QueryConfig cfg = smallConfig(QueryId::kYsb);
    cfg.engine = engine;
    const QueryResult r = runQuery(cfg);
    EXPECT_GT(r.output_records, 0u);
}

class EveryEngine : public ::testing::Test
{
  public:
    EveryEngine(void (*body)(EngineKind), EngineKind engine)
        : body_(body), engine_(engine)
    {
    }

    void TestBody() override { body_(engine_); }

  private:
    void (*body_)(EngineKind);
    EngineKind engine_;
};

void
registerOnEngine(const char *test, void (*body)(EngineKind),
                 EngineKind engine)
{
    std::string name = engineKindName(engine);
    for (char &c : name)
        if (c == ' ' || c == '-')
            c = '_';
    ::testing::RegisterTest(
        "AllEngines/EveryEngine", (std::string(test) + "/" + name).c_str(),
        nullptr, ::testing::PrintToString(engine).c_str(), __FILE__,
        __LINE__, [=]() -> EveryEngine * {
            return new EveryEngine(body, engine);
        });
}

[[maybe_unused]] const bool kEveryEngineRegistered = [] {
    const EngineKind every_query[] = {
        EngineKind::kStreamBoxHbm, EngineKind::kCaching,
        EngineKind::kDramOnly, EngineKind::kCachingNoKpa};
    for (EngineKind e : every_query)
        registerOnEngine("RunsTopKAndProducesOutput",
                         &runsTopKAndProducesOutput, e);
    for (EngineKind e : every_query)
        registerOnEngine("RunsYsb", &runsYsb, e);
    registerOnEngine("RunsYsb", &runsYsb, EngineKind::kFlinkLike);
    return true;
}();

// ---------------------------------------------------------------
// Cross-variant invariants (the Fig 9 ordering at small scale).
// ---------------------------------------------------------------

TEST(QueryHarness, NoKpaVariantIsSlowerThanFullEngine)
{
    QueryConfig cfg = smallConfig(QueryId::kTopKPerKey);
    cfg.cores = 16;
    cfg.total_records = 1'000'000;
    const double full = runQuery(cfg).throughput_mrps;
    cfg.engine = EngineKind::kCachingNoKpa;
    const double nokpa = runQuery(cfg).throughput_mrps;
    EXPECT_GT(full, nokpa);
}

TEST(QueryHarness, FlinkLikeIsSlowerThanFullEngine)
{
    QueryConfig cfg = smallConfig(QueryId::kYsb);
    cfg.cores = 16;
    const double full = runQuery(cfg).throughput_mrps;
    cfg.engine = EngineKind::kFlinkLike;
    const double flink = runQuery(cfg).throughput_mrps;
    EXPECT_GT(full, 2.0 * flink);
}

TEST(QueryHarnessDeath, FlinkLikeRejectsKeyedQueries)
{
    // The record-at-a-time engine runs YSB only; any other query on it
    // stops before building a pipeline, naming the query.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    QueryConfig cfg = smallConfig(QueryId::kTopKPerKey);
    cfg.engine = EngineKind::kFlinkLike;
    EXPECT_DEATH((void)runQuery(cfg), "YSB only, not TopK Per Key");
}

TEST(QueryHarness, EthernetIngestIsSlowerThanRdma)
{
    QueryConfig cfg = smallConfig(QueryId::kAvgAll);
    cfg.cores = 32;
    cfg.total_records = 2'000'000;
    const double rdma = runQuery(cfg).throughput_mrps;
    cfg.ethernet_ingest = true;
    const double eth = runQuery(cfg).throughput_mrps;
    EXPECT_GT(rdma, 1.5 * eth);
}

TEST(QueryHarness, MoreCoresMoreThroughputWhenComputeBound)
{
    QueryConfig cfg = smallConfig(QueryId::kMedianPerKey);
    cfg.total_records = 1'500'000;
    cfg.cores = 2;
    const double c2 = runQuery(cfg).throughput_mrps;
    cfg.cores = 16;
    const double c16 = runQuery(cfg).throughput_mrps;
    EXPECT_GT(c16, 1.5 * c2);
}

TEST(QueryHarness, OfferedRateCapsThroughput)
{
    QueryConfig cfg = smallConfig(QueryId::kSumPerKey);
    cfg.cores = 32;
    cfg.total_records = 1'000'000;
    cfg.offered_rate = 5e6;
    const QueryResult r = runQuery(cfg);
    EXPECT_LE(r.throughput_mrps, 5.5);
    EXPECT_GE(r.throughput_mrps, 3.0);
}

TEST(QueryHarness, DelaysStayUnderTargetWhenNicBound)
{
    QueryConfig cfg = smallConfig(QueryId::kAvgAll);
    cfg.cores = 32;
    const QueryResult r = runQuery(cfg);
    EXPECT_TRUE(r.met_target_delay)
        << "max delay " << r.max_delay_s << " s";
}

TEST(QueryHarness, SamplesCoverTheRun)
{
    QueryConfig cfg = smallConfig(QueryId::kTopKPerKey);
    const QueryResult r = runQuery(cfg);
    ASSERT_GE(r.samples.size(), 3u);
    // Samples are ordered in time and cover most of the run.
    for (size_t i = 1; i < r.samples.size(); ++i)
        EXPECT_GT(r.samples[i].t, r.samples[i - 1].t);
}

} // namespace
} // namespace sbhbm::queries
