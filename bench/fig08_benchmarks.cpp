/**
 * @file
 * Figure 8 — the nine numbered benchmarks of §6: throughput (lines)
 * and peak HBM bandwidth utilization (columns) vs core count, under
 * the 1-second target output delay, ingesting over 40 Gb/s RDMA.
 *
 * Paper shapes this bench must reproduce:
 *  - Windowed Average and Windowed Filter saturate the RDMA ingestion
 *    limit (the red lines of the figure) with ~16 cores;
 *  - Power Grid is the slowest pipeline;
 *  - keyed aggregations land in between and scale with cores until
 *    either ingestion or memory saturates;
 *  - at 64 cores the engine's HBM bandwidth usage is a large fraction
 *    of the tier's 375 GB/s peak, far above DRAM's 80 GB/s —
 *    bandwidth the throughput visibly benefits from.
 */

#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.h"
#include "example_args.h"
#include "queries/query.h"

using namespace sbhbm;
using bench::Table;
using queries::QueryConfig;
using queries::QueryId;
using queries::QueryResult;

int
main(int argc, char **argv)
{
    uint64_t records = 8'000'000;
    if (argc > 2 || (argc > 1 && !examples::parseCount(argv[1], records)))
        return examples::usage(argv[0],
                               "[records_per_point] (a positive integer, "
                               "default 8000000)");

    const std::vector<QueryId> benchmarks = {
        QueryId::kTopKPerKey,    QueryId::kSumPerKey,
        QueryId::kMedianPerKey,  QueryId::kAvgPerKey,
        QueryId::kAvgAll,        QueryId::kUniqueCountPerKey,
        QueryId::kTemporalJoin,  QueryId::kWindowedFilter,
        QueryId::kPowerGrid,
    };

    const double rdma_bw = sim::MachineConfig::knl().nic_rdma_bw;
    std::printf("Fig 8 — nine benchmarks, %llu records/point, RDMA "
                "ingestion (%.1f GB/s payload)\n",
                static_cast<unsigned long long>(records), rdma_bw / 1e9);

    std::map<QueryId, std::vector<QueryResult>> results;
    for (QueryId id : benchmarks) {
        for (unsigned cores : bench::coreSweep()) {
            QueryConfig cfg;
            cfg.id = id;
            cfg.cores = cores;
            cfg.total_records = records;
            cfg.window_ns = 25 * kNsPerMs;
            cfg.bundle_records = 50'000;
            // The join needs sparse keys or its output (pairs per
            // matching key) grows quadratically with the window.
            if (id == QueryId::kTemporalJoin)
                cfg.key_range = 10'000'000;
            results[id].push_back(runQuery(cfg));
        }
    }

    Table tput("Fig 8 (lines): throughput, M rec/s");
    Table bw("Fig 8 (columns): peak HBM bandwidth usage, GB/s");
    std::vector<std::string> head{"cores"};
    for (QueryId id : benchmarks)
        head.push_back(queryName(id));
    tput.header(head);
    bw.header(head);

    const auto &sweep = bench::coreSweep();
    for (size_t c = 0; c < sweep.size(); ++c) {
        std::vector<std::string> trow{Table::num(uint64_t{sweep[c]})};
        std::vector<std::string> brow{Table::num(uint64_t{sweep[c]})};
        for (QueryId id : benchmarks) {
            trow.push_back(Table::num(results[id][c].throughput_mrps));
            brow.push_back(Table::num(results[id][c].peak_hbm_bw_gbps));
        }
        tput.row(trow);
        bw.row(brow);
    }
    tput.print();
    bw.print();
    std::printf("\n");

    // The RDMA limit line per record width (3 or 4 columns).
    const double cap3 = rdma_bw / (3 * 8) / 1e6;
    const double cap4 = rdma_bw / (4 * 8) / 1e6;
    std::printf("RDMA ingestion limits: %.0f M rec/s (3-column), "
                "%.0f M rec/s (4-column records)\n\n", cap3, cap4);

    auto at64 = [&](QueryId id) { return results[id].back(); };
    auto at2 = [&](QueryId id) { return results[id].front(); };

    bench::shapeCheck(
        "Windowed Average saturates RDMA ingestion (>= 0.9x limit)",
        at64(QueryId::kAvgAll).throughput_mrps >= 0.9 * cap3);
    bench::shapeCheck(
        "Windowed Filter reaches the shared-NIC ingestion limit",
        at64(QueryId::kWindowedFilter).throughput_mrps >= 0.8 * cap4);
    bool pg_lowest = true;
    for (QueryId id : benchmarks) {
        if (id == QueryId::kPowerGrid)
            continue;
        pg_lowest &= at64(QueryId::kPowerGrid).throughput_mrps
                     <= at64(id).throughput_mrps;
    }
    bench::shapeCheck("Power Grid is the slowest benchmark at 64 cores",
                      pg_lowest);
    bench::shapeCheck(
        "TopK/Median slower than Sum/Avg per key (heavier per-key op)",
        at64(QueryId::kTopKPerKey).throughput_mrps
                < at64(QueryId::kSumPerKey).throughput_mrps
            && at64(QueryId::kMedianPerKey).throughput_mrps
                   < at64(QueryId::kAvgPerKey).throughput_mrps);
    bool scaling = true;
    for (QueryId id : {QueryId::kTopKPerKey, QueryId::kSumPerKey,
                       QueryId::kMedianPerKey})
        scaling &= at64(id).throughput_mrps > 2.0 * at2(id).throughput_mrps;
    bench::shapeCheck("keyed benchmarks scale >2x from 2 to 64 cores",
                      scaling);
    double best_hbm = 0;
    for (QueryId id : benchmarks)
        best_hbm = std::max(best_hbm, at64(id).peak_hbm_bw_gbps);
    bench::shapeCheck(
        "peak HBM bandwidth well above DRAM's 80 GB/s at 64 cores",
        best_hbm > 100.0);
    return 0;
}
