/**
 * @file
 * The Yahoo Streaming Benchmark (Fig 1a / Fig 5), wired explicitly:
 *
 *   Filter (ad view events)            -> KPA(ad_id)
 *   External Join (ad -> campaign)     -> keys updated in place
 *   Window (1-second fixed windows)    -> KPA partitioned by time
 *   Per-key aggregation (count/campaign)
 *   Egress
 *
 * Unlike the quickstart, this example demonstrates:
 *  - the KPA key-swap chain of Fig 5 (ad_id -> timestamps ->
 *    campaign_id as resident keys),
 *  - an external key-value table living in HBM,
 *  - engine introspection: placement decisions, knob state, memory
 *    gauges and bandwidth after the run.
 *
 * Run: ./build/examples/ysb [million_records]
 */

#include <cinttypes>
#include <cstdio>

#include "example_args.h"
#include "ingest/generator.h"
#include "ingest/source.h"
#include "pipeline/aggregations.h"
#include "pipeline/egress.h"
#include "pipeline/external_join.h"
#include "pipeline/pardo.h"
#include "pipeline/pipeline.h"
#include "pipeline/windowing.h"

using namespace sbhbm;
using ingest::YsbGen;

int
main(int argc, char **argv)
{
    uint64_t million = 4;
    if (argc > 2 || (argc > 1 && !examples::parseMillions(argv[1], million)))
        return examples::usage(argv[0], "[million_records] "
                                        "(a positive integer, default 4)");

    runtime::EngineConfig ecfg;
    ecfg.cores = 64;
    runtime::Engine engine(ecfg);
    pipeline::Pipeline pipe(engine,
                            columnar::WindowSpec{100 * kNsPerMs});

    // The static ad -> campaign table (100 campaigns x 10 ads); the
    // engine keeps such small hot state in HBM (paper Fig 5, step 3).
    auto campaigns = YsbGen::campaignTable();

    auto &filter = pipe.add<pipeline::FilterOp>(
        pipe, "filter_views", YsbGen::kAdCol,
        /*filter_col=*/YsbGen::kEventTypeCol,
        /*filter_value=*/YsbGen::kViewEvent);
    auto &join = pipe.add<pipeline::ExternalJoinOp>(
        pipe, "ad_to_campaign", campaigns,
        /*writeback_col=*/YsbGen::kAdCol, /*swap_col=*/YsbGen::kTsCol);
    auto &window = pipe.add<pipeline::WindowOp>(pipe, "window",
                                                YsbGen::kTsCol);
    auto &count = pipe.add<pipeline::KeyedAggOp>(
        pipe, "count_per_campaign", YsbGen::kAdCol,
        pipeline::aggs::countPerKey());
    auto &egress = pipe.add<pipeline::EgressOp>(pipe);

    filter.connectTo(&join);
    join.connectTo(&window);
    window.connectTo(&count);
    count.connectTo(&egress);

    YsbGen gen(/*seed=*/2026);
    ingest::SourceConfig scfg;
    scfg.nic_bw = engine.machine().config().nic_rdma_bw;
    scfg.total_records = million * 1'000'000;
    scfg.bundle_records = 50'000;
    ingest::Source source(engine, pipe, gen, &filter, scfg);

    engine.monitor().start();
    source.start();
    engine.machine().run();

    const double sec = simToSeconds(source.finishedAt());
    std::printf("YSB over simulated 40 Gb/s RDMA on KNL (64 cores)\n");
    std::printf("  records        : %" PRIu64 " (%.1f M rec/s)\n",
                source.recordsIngested(),
                static_cast<double>(source.recordsIngested()) / sec
                    / 1e6);
    std::printf("  windows        : %" PRIu64
                " externalized, %" PRIu64 " campaign counts\n",
                pipe.windowsExternalized(), egress.outputRecords());
    std::printf("  output delay   : mean %.3f s, max %.3f s\n",
                engine.outputDelays().mean(),
                engine.outputDelays().max());
    std::printf("  peak HBM bw    : %.1f GB/s (avg %.1f)\n",
                engine.monitor().hbmBwStat().max() / 1e9,
                engine.monitor().hbmBwStat().mean() / 1e9);
    std::printf("  peak DRAM bw   : %.1f GB/s (avg %.1f)\n",
                engine.monitor().dramBwStat().max() / 1e9,
                engine.monitor().dramBwStat().mean() / 1e9);
    std::printf("  HBM in use now : %" PRIu64 " B (all KPAs freed)\n",
                engine.memory().gauge(mem::Tier::kHbm).used());
    std::printf("  knob           : k_low=%.2f k_high=%.2f\n",
                engine.knob().kLow(), engine.knob().kHigh());

    // Sanity: every ad maps to a campaign, so roughly 1/3 of events
    // (the views) survive the filter and each window emits at most
    // one count per campaign.
    const uint64_t max_expected =
        (pipe.windowsExternalized() + 1) * YsbGen::kCampaigns;
    if (egress.outputRecords() > max_expected) {
        std::fprintf(stderr, "unexpected output cardinality\n");
        return 1;
    }
    return 0;
}
