/**
 * @file
 * Figure 10 — dynamic balancing of the two limited resources (HBM
 * capacity, DRAM bandwidth) under varying workloads, on TopK Per Key:
 *
 *  (a) rising ingestion rate: HBM capacity usage climbs, the knob
 *      spills new KPAs to DRAM, DRAM bandwidth rises but stays below
 *      its limit;
 *  (b) delayed watermarks (more bundles between adjacent watermarks):
 *      KPA lifespans stretch, pressuring HBM capacity; the knob
 *      reacts the same way.
 *
 * Scale note: the experiment windows here hold tens of MB of KPAs,
 * not the paper's gigabytes, so the machine's HBM capacity is scaled
 * down to reproduce the same *fractional* pressure the knob responds
 * to (the knob consumes used-fraction, so the control behaviour is
 * identical). The DRAM bandwidth axis is unscaled.
 *
 * Shapes to reproduce:
 *  - in both sweeps, higher load -> higher HBM usage AND higher DRAM
 *    bandwidth (the knob sheds KPAs to DRAM);
 *  - peak HBM usage stays below the capacity limit; peak DRAM
 *    bandwidth stays below the 80 GB/s limit (the knob balances
 *    without exhausting either);
 *  - the knob value k_low drops below 1 under pressure.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "example_args.h"
#include "queries/query.h"

using namespace sbhbm;
using bench::Table;
using queries::QueryConfig;
using queries::QueryId;
using queries::QueryResult;

namespace {

constexpr uint64_t kScaledHbmBytes = 128ull << 20;

struct Point
{
    double dram_bw_peak = 0;
    double dram_bw_avg = 0;
    double hbm_used_peak_mb = 0;
    double hbm_used_avg_mb = 0;
    double min_k_low = 1.0;
    bool met_delay = false;
};

Point
run(QueryConfig cfg)
{
    cfg.id = QueryId::kTopKPerKey;
    cfg.machine.hbm.capacity_bytes = kScaledHbmBytes;
    cfg.cores = 64;
    cfg.window_ns = 25 * kNsPerMs;

    QueryResult r = runQuery(cfg);
    Point p;
    p.dram_bw_peak = r.peak_dram_bw_gbps;
    p.dram_bw_avg = r.avg_dram_bw_gbps;
    p.hbm_used_peak_mb = r.peak_hbm_used_gb * 1000;
    p.hbm_used_avg_mb = r.avg_hbm_used_gb * 1000;
    p.met_delay = r.met_target_delay;
    for (const auto &s : r.samples)
        p.min_k_low = std::min(p.min_k_low, s.k_low);
    return p;
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

    std::printf("Fig 10 — dynamic balancing on TopK Per Key, 64 cores, "
                "HBM capacity scaled to %.0f MB\n",
                static_cast<double>(kScaledHbmBytes) / 1e6);

    // ---- (a) increasing ingestion rate -----------------------------
    const std::vector<double> rates = {20e6, 30e6, 40e6, 50e6, 60e6};
    Table ta("Fig 10a: increasing ingestion rate (M rec/s)");
    ta.header({"rate_Mrps", "DRAM_BW_peak", "DRAM_BW_avg", "HBM_used_peak_MB",
               "HBM_used_avg_MB", "min_k_low", "delay_ok"});
    std::vector<Point> pa;
    for (double rate : rates) {
        QueryConfig cfg;
        cfg.total_records = records;
        cfg.offered_rate = rate;
        Point p = run(cfg);
        pa.push_back(p);
        ta.row({Table::num(rate / 1e6, 0), Table::num(p.dram_bw_peak),
                Table::num(p.dram_bw_avg),
                Table::num(p.hbm_used_peak_mb, 0),
                Table::num(p.hbm_used_avg_mb, 0),
                Table::num(p.min_k_low, 2), p.met_delay ? "yes" : "no"});
    }
    ta.print();

    // ---- (b) delaying watermarks ------------------------------------
    // Gap axis in *fractions of a window* matching the paper's
    // 100..300-bundle sweep on 10 M-record windows: 0.4x..1.3x of a
    // window's bundles (54 at NIC rate). Gaps beyond the soft
    // back-pressure budget could never close a window (the deadlock
    // guard would rightly abort).
    const std::vector<uint32_t> wm_gaps = {20, 30, 40, 55, 70};
    Table tb("Fig 10b: bundles between adjacent watermarks");
    tb.header({"bundles/wm", "DRAM_BW_peak", "DRAM_BW_avg",
               "HBM_used_peak_MB", "HBM_used_avg_MB", "min_k_low"});
    std::vector<Point> pb;
    for (uint32_t gap : wm_gaps) {
        QueryConfig cfg;
        cfg.total_records = records;
        cfg.bundles_per_watermark = gap;
        // Delayed watermarks legitimately hold ~2 gaps of bundles in
        // flight; the back-pressure budget must cover that or no
        // window could ever close.
        cfg.max_inflight_bundles = 8 * gap + 80;
        Point p = run(cfg);
        pb.push_back(p);
        tb.row({Table::num(uint64_t{gap}), Table::num(p.dram_bw_peak),
                Table::num(p.dram_bw_avg),
                Table::num(p.hbm_used_peak_mb, 0),
                Table::num(p.hbm_used_avg_mb, 0),
                Table::num(p.min_k_low, 2)});
    }
    tb.print();
    std::printf("\nHW limits: DRAM bandwidth 80 GB/s, HBM capacity "
                "%.0f MB\n\n",
                static_cast<double>(kScaledHbmBytes) / 1e6);

    const double dram_limit = 80.0;
    // Decimal MB, like the usage columns.
    const double hbm_mb = static_cast<double>(kScaledHbmBytes) / 1e6;

    bench::shapeCheck(
        "10a: HBM usage grows with ingestion rate (>1.3x)",
        pa.back().hbm_used_avg_mb > 1.3 * pa.front().hbm_used_avg_mb);
    bench::shapeCheck(
        "10a: DRAM bandwidth grows with ingestion rate",
        pa.back().dram_bw_avg > pa.front().dram_bw_avg);
    bool bounded = true;
    for (const auto &p : pa)
        bounded &= p.dram_bw_avg < 0.5 * dram_limit
                   && p.dram_bw_peak <= dram_limit * 1.001
                   && p.hbm_used_peak_mb <= hbm_mb * 1.001;
    bench::shapeCheck(
        "10a: both resources bounded (avg DRAM bw < half its limit)",
        bounded);
    bench::shapeCheck("10a: knob spills to DRAM under pressure "
                      "(k_low < 1 at the highest rate)",
                      pa.back().min_k_low < 1.0);

    // With watermarks delayed, KPA lifespans stretch until HBM runs
    // pinned at capacity and the spill (DRAM bandwidth) grows with
    // the gap — the paper's point 5 -> 6 -> 7 sequence.
    bench::shapeCheck(
        "10b: HBM runs at capacity under delayed watermarks",
        pb.back().hbm_used_peak_mb > 0.9 * hbm_mb);
    bench::shapeCheck(
        "10b: spill to DRAM grows with the watermark gap",
        pb.back().dram_bw_avg > 1.5 * pb.front().dram_bw_avg);
    bool bounded_b = true;
    for (const auto &p : pb)
        bounded_b &= p.dram_bw_avg < 0.5 * dram_limit
                     && p.hbm_used_peak_mb <= hbm_mb * 1.001;
    bench::shapeCheck(
        "10b: both resources bounded (avg DRAM bw < half its limit)",
        bounded_b);
    bench::shapeCheck("10b: knob spills to DRAM when watermarks lag",
                      pb.back().min_k_low < 1.0);
    return 0;
}
