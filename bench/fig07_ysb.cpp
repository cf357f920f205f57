/**
 * @file
 * Figure 7 — YSB end-to-end comparison against a Flink-like engine:
 *
 *  (a) input throughput under the 1-second target delay vs cores, for
 *      StreamBox-HBM on KNL over RDMA and 10 GbE, the Flink-like
 *      engine on KNL over 10 GbE, and the Flink-like engine on the
 *      X56 Xeon over 10 GbE;
 *  (b) peak HBM bandwidth usage vs cores for the KNL configurations.
 *
 * Also prints the §7.1 headline ratios: per-core throughput gap at
 * the operating points where each engine saturates its NIC, the RDMA
 * over 10 GbE gain, and the machine-throughput gap.
 *
 * Shapes this bench must reproduce:
 *  - StreamBox-HBM saturates 10 GbE with ~5 cores; Flink-like cannot
 *    saturate it even with all 64;
 *  - RDMA lifts StreamBox-HBM's throughput ~2.9x, saturating with
 *    ~16 cores;
 *  - Flink on X56 saturates 10 GbE with ~32 of 56 cores;
 *  - per-core throughput gap vs Flink-on-KNL is an order of magnitude
 *    (paper: 18x).
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "example_args.h"
#include "queries/query.h"

using namespace sbhbm;
using bench::Table;
using queries::EngineKind;
using queries::QueryConfig;
using queries::QueryId;
using queries::QueryResult;

namespace {

QueryConfig
base(uint64_t records)
{
    QueryConfig cfg;
    cfg.id = QueryId::kYsb;
    cfg.total_records = records;
    cfg.bundle_records = 50'000;
    // 50 ms windows keep several steady-state windows inside each
    // point's record budget (rates are ratios over simulated time,
    // so the series' shape does not depend on the window length).
    cfg.window_ns = 50 * kNsPerMs;
    return cfg;
}

/** Smallest core count (from the sweep) saturating >=95% of @p cap. */
int
saturationCores(const std::vector<std::pair<unsigned, QueryResult>> &pts,
                double cap_mrps)
{
    for (const auto &[cores, r] : pts)
        if (r.throughput_mrps >= 0.95 * cap_mrps)
            return static_cast<int>(cores);
    return -1;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t records = 8'000'000;
    if (argc > 2 || (argc > 1 && !examples::parseCount(argv[1], records)))
        return examples::usage(argv[0],
                               "[records_per_point] (a positive integer, "
                               "default 8000000)");

    const double ysb_bytes = 7.0 * sizeof(uint64_t);
    const double rdma_cap_mrps =
        sim::MachineConfig::knl().nic_rdma_bw / ysb_bytes / 1e6;
    const double eth_cap_mrps = sim::MachineConfig::knl().nic_ethernet_bw
                                * 0.8 / ysb_bytes / 1e6;

    std::printf("Fig 7 — YSB, %llu records/point; NIC limits: RDMA "
                "%.1f M rec/s, 10GbE %.1f M rec/s\n",
                static_cast<unsigned long long>(records), rdma_cap_mrps,
                eth_cap_mrps);

    std::vector<std::pair<unsigned, QueryResult>> sb_rdma, sb_eth,
        flink_knl, flink_x56;

    for (unsigned cores : bench::coreSweep()) {
        QueryConfig cfg = base(records);
        cfg.cores = cores;

        cfg.engine = EngineKind::kStreamBoxHbm;
        cfg.ethernet_ingest = false;
        sb_rdma.emplace_back(cores, runQuery(cfg));

        cfg.ethernet_ingest = true;
        sb_eth.emplace_back(cores, runQuery(cfg));

        cfg.engine = EngineKind::kFlinkLike;
        flink_knl.emplace_back(cores, runQuery(cfg));

        QueryConfig xcfg = cfg;
        xcfg.machine = sim::MachineConfig::x56();
        xcfg.cores = std::min(cores, xcfg.machine.cores);
        flink_x56.emplace_back(xcfg.cores, runQuery(xcfg));
    }

    Table tput("Fig 7a: YSB input throughput under 1 s target delay, "
               "M rec/s");
    tput.header({"cores", "SB-HBM_KNL_RDMA", "SB-HBM_KNL_10GbE",
                 "Flink_KNL_10GbE", "Flink_X56_10GbE"});
    for (size_t i = 0; i < sb_rdma.size(); ++i) {
        tput.row({Table::num(uint64_t{sb_rdma[i].first}),
                  Table::num(sb_rdma[i].second.throughput_mrps),
                  Table::num(sb_eth[i].second.throughput_mrps),
                  Table::num(flink_knl[i].second.throughput_mrps),
                  Table::num(flink_x56[i].second.throughput_mrps)});
    }
    tput.print();

    Table bw("Fig 7b: peak HBM bandwidth usage, GB/s");
    bw.header({"cores", "SB-HBM_KNL_RDMA", "SB-HBM_KNL_10GbE",
               "Flink_KNL_10GbE"});
    for (size_t i = 0; i < sb_rdma.size(); ++i) {
        bw.row({Table::num(uint64_t{sb_rdma[i].first}),
                Table::num(sb_rdma[i].second.peak_hbm_bw_gbps),
                Table::num(sb_eth[i].second.peak_hbm_bw_gbps),
                Table::num(flink_knl[i].second.peak_hbm_bw_gbps)});
    }
    bw.print();

    // ---- §7.1 headline ratios --------------------------------------
    // Per-core throughput at each engine's NIC-saturating operating
    // point (the comparison the paper's "18x per core" uses).
    const int sb_sat = saturationCores(sb_eth, eth_cap_mrps);
    const double sb_eth_per_core =
        sb_eth.front().second.throughput_mrps
        / static_cast<double>(sb_eth.front().first);
    const auto &flink64 = flink_knl.back().second;
    const double flink_per_core =
        flink64.throughput_mrps
        / static_cast<double>(flink_knl.back().first);
    const double per_core_ratio = sb_eth_per_core / flink_per_core;

    const double rdma_gain = sb_rdma.back().second.throughput_mrps
                             / sb_eth.back().second.throughput_mrps;
    const double machine_ratio = sb_rdma.back().second.throughput_mrps
                                 / flink64.throughput_mrps;

    std::printf("\n§7.1 ratios (paper: 18x per core, 2.9x RDMA gain, "
                "4.1x machine):\n");
    std::printf("  per-core throughput, SB-HBM vs Flink-like on KNL: "
                "%.1fx\n", per_core_ratio);
    std::printf("  RDMA over 10GbE ingestion: %.2fx\n", rdma_gain);
    std::printf("  machine throughput, SB-HBM RDMA vs Flink-like: "
                "%.1fx\n", machine_ratio);
    std::printf("  SB-HBM saturates 10GbE at %d cores\n", sb_sat);
    std::printf("\n");

    bench::shapeCheck("SB-HBM saturates 10GbE with <= 16 cores",
                      sb_sat > 0 && sb_sat <= 16);
    bench::shapeCheck("Flink-like cannot saturate 10GbE at 64 cores",
                      flink64.throughput_mrps < 0.95 * eth_cap_mrps);
    bench::shapeCheck("per-core gap is an order of magnitude (>= 8x)",
                      per_core_ratio >= 8.0);
    bench::shapeCheck("RDMA gain in 2x..4x (paper 2.9x)",
                      rdma_gain >= 2.0 && rdma_gain <= 4.0);
    bench::shapeCheck(
        "Flink X56 saturates 10GbE by 32-48 cores",
        flink_x56.back().second.throughput_mrps >= 0.85 * eth_cap_mrps);
    bench::shapeCheck(
        "SB-HBM HBM bandwidth keeps rising past NIC saturation",
        sb_rdma.back().second.peak_hbm_bw_gbps
            > 1.2 * sb_rdma[1].second.peak_hbm_bw_gbps);
    return 0;
}
