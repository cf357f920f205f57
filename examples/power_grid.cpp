/**
 * @file
 * Power Grid (benchmark 9, after the DEBS 2014 grand challenge):
 * which houses have the most high-power plugs?
 *
 * Ingests a synthetic stream of per-plug load samples with the
 * DEBS'14 schema [plug_gid, load, ts, house]; per window the pipeline
 *  (1) averages the load of every plug,
 *  (2) averages the load over all plugs,
 *  (3) counts, per house, the plugs above the global average,
 *  (4) emits the house(s) with the highest count.
 *
 * Demonstrates a multi-pass reduction over one grouping (SortedRunsOp
 * subclassing) and result inspection via a custom sink.
 *
 * Run: ./build/examples/power_grid [million_records]
 */

#include <cinttypes>
#include <cstdio>
#include <map>

#include "example_args.h"
#include "ingest/generator.h"
#include "ingest/source.h"
#include "pipeline/egress.h"
#include "pipeline/extract.h"
#include "pipeline/pipeline.h"
#include "pipeline/power_grid.h"
#include "pipeline/windowing.h"

using namespace sbhbm;
using ingest::PowerGridGen;
using pipeline::PowerGridOp;

namespace {

/** Egress that also tallies how often each house wins a window. */
class HouseTally : public pipeline::EgressOp
{
  public:
    explicit HouseTally(pipeline::Pipeline &p) : EgressOp(p, "tally") {}

    std::map<uint64_t, uint64_t> wins;

  protected:
    void
    process(pipeline::Msg msg, int port) override
    {
        for (uint32_t r = 0; r < msg.bundle->size(); ++r)
            ++wins[msg.bundle->row(r)[0]];
        EgressOp::process(std::move(msg), port);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    uint64_t million = 3;
    if (argc > 2 || (argc > 1 && !examples::parseMillions(argv[1], million)))
        return examples::usage(argv[0], "[million_records] "
                                        "(a positive integer, default 3)");

    runtime::EngineConfig ecfg;
    ecfg.cores = 32;
    runtime::Engine engine(ecfg);
    pipeline::Pipeline pipe(engine,
                            columnar::WindowSpec{100 * kNsPerMs});

    auto &extract = pipe.add<pipeline::ExtractOp>(
        pipe, "extract_plug", PowerGridOp::kPlugCol);
    auto &window = pipe.add<pipeline::WindowOp>(pipe, "window",
                                                PowerGridOp::kTsCol);
    auto &grid = pipe.add<PowerGridOp>(pipe, "power_grid");
    auto &tally = pipe.add<HouseTally>(pipe);
    extract.connectTo(&window);
    window.connectTo(&grid);
    grid.connectTo(&tally);

    PowerGridGen gen(/*seed=*/14, /*houses=*/40,
                     /*plugs_per_house=*/25);
    ingest::SourceConfig scfg;
    scfg.total_records = million * 1'000'000;
    scfg.bundle_records = 50'000;
    ingest::Source source(engine, pipe, gen, &extract, scfg);

    engine.monitor().start();
    source.start();
    engine.machine().run();

    std::printf("Power Grid (DEBS'14) on KNL, 32 cores\n");
    std::printf("  samples ingested : %" PRIu64 " (%.1f M rec/s)\n",
                source.recordsIngested(),
                static_cast<double>(source.recordsIngested())
                    / simToSeconds(source.finishedAt()) / 1e6);
    std::printf("  windows          : %" PRIu64 "\n",
                pipe.windowsExternalized());
    std::printf("  output delay     : mean %.3f s, max %.3f s\n",
                engine.outputDelays().mean(),
                engine.outputDelays().max());

    // The per-plug baselines are deterministic in the plug id, so the
    // same few houses should win most windows.
    std::printf("  top houses by windows won:\n");
    std::multimap<uint64_t, uint64_t, std::greater<>> by_wins;
    for (const auto &[house, n] : tally.wins)
        by_wins.emplace(n, house);
    int shown = 0;
    for (const auto &[n, house] : by_wins) {
        std::printf("    house %2" PRIu64 ": %" PRIu64 " window(s)\n",
                    house, n);
        if (++shown == 5)
            break;
    }
    if (tally.wins.empty()) {
        std::fprintf(stderr, "no windows produced output\n");
        return 1;
    }
    return 0;
}
