/**
 * @file
 * Data-center telemetry join — the workload the paper's introduction
 * motivates: "data center analytics compute the distribution of
 * machine utilization and network request arrival rate, and then
 * join them by time."
 *
 * Two live streams share the machine-id key space:
 *   stream U: per-machine utilization samples  [machine, util%, ts]
 *   stream R: per-machine request-rate samples [machine, req/s, ts]
 *
 * A temporal join pairs them per machine per 100 ms window, emitting
 * (machine, util, req_rate) records — the correlated series an
 * operator would feed into an alerting/auto-scaling policy.
 *
 * Demonstrates: two sources sharing one NIC, a two-port operator, and
 * the per-window join of Fig 4b.
 *
 * Run: ./build/examples/datacenter_join [million_records_per_stream]
 */

#include <cinttypes>
#include <cstdio>

#include "example_args.h"
#include "ingest/generator.h"
#include "ingest/source.h"
#include "pipeline/egress.h"
#include "pipeline/extract.h"
#include "pipeline/pipeline.h"
#include "pipeline/temporal_join.h"
#include "pipeline/windowing.h"

using namespace sbhbm;
using ingest::KvGen;

int
main(int argc, char **argv)
{
    uint64_t million = 2;
    if (argc > 2 || (argc > 1 && !examples::parseMillions(argv[1], million)))
        return examples::usage(argv[0], "[million_records_per_stream] "
                                        "(a positive integer, default 2)");

    constexpr uint64_t kMachines = 20'000;

    runtime::EngineConfig ecfg;
    ecfg.cores = 64;
    runtime::Engine engine(ecfg);
    pipeline::Pipeline pipe(engine,
                            columnar::WindowSpec{100 * kNsPerMs});

    auto &ex_util = pipe.add<pipeline::ExtractOp>(pipe, "extract_util",
                                                  KvGen::kKeyCol);
    auto &ex_req = pipe.add<pipeline::ExtractOp>(pipe, "extract_req",
                                                 KvGen::kKeyCol);
    auto &win_util = pipe.add<pipeline::WindowOp>(pipe, "win_util",
                                                  KvGen::kTsCol);
    auto &win_req = pipe.add<pipeline::WindowOp>(pipe, "win_req",
                                                 KvGen::kTsCol);
    auto &join = pipe.add<pipeline::TemporalJoinOp>(
        pipe, "join_by_machine", KvGen::kKeyCol, KvGen::kValueCol);
    auto &egress = pipe.add<pipeline::EgressOp>(pipe);

    ex_util.connectTo(&win_util);
    ex_req.connectTo(&win_req);
    win_util.connectTo(&join, 0);
    win_req.connectTo(&join, 1);
    join.connectTo(&egress);

    // Utilization 0..100, request rate 0..50000. Each stream gets
    // half of the 40 Gb/s RDMA link (one sender machine).
    KvGen util_gen(/*seed=*/5, kMachines, 100);
    KvGen req_gen(/*seed=*/6, kMachines, 50'000);
    ingest::SourceConfig scfg;
    scfg.nic_bw = engine.machine().config().nic_rdma_bw / 2;
    scfg.total_records = million * 1'000'000;
    scfg.bundle_records = 25'000;

    ingest::Source src_util(engine, pipe, util_gen, &ex_util, scfg);
    ingest::Source src_req(engine, pipe, req_gen, &ex_req, scfg);

    engine.monitor().start();
    src_util.start();
    src_req.start();
    engine.machine().run();

    const uint64_t total =
        src_util.recordsIngested() + src_req.recordsIngested();
    const double sec = simToSeconds(
        std::max(src_util.finishedAt(), src_req.finishedAt()));
    std::printf("Data-center telemetry join on KNL, 64 cores\n");
    std::printf("  machines          : %" PRIu64 "\n", kMachines);
    std::printf("  samples ingested  : %" PRIu64
                " across both streams (%.1f M rec/s)\n",
                total, static_cast<double>(total) / sec / 1e6);
    std::printf("  windows           : %" PRIu64 "\n",
                pipe.windowsExternalized());
    std::printf("  joined records    : %" PRIu64 "\n",
                egress.outputRecords());
    std::printf("  output delay      : mean %.3f s, max %.3f s\n",
                engine.outputDelays().mean(),
                engine.outputDelays().max());
    std::printf("  peak HBM bandwidth: %.1f GB/s\n",
                engine.monitor().hbmBwStat().max() / 1e9);

    if (egress.outputRecords() == 0) {
        std::fprintf(stderr, "join produced no output\n");
        return 1;
    }
    return 0;
}
