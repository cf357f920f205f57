/**
 * @file
 * The ten evaluation queries (paper §6, "Benchmarks") as reusable
 * pipeline builders, plus the measurement harness that runs one query
 * on a configured engine and reports the quantities the paper's
 * figures plot: sustained throughput, peak/average per-tier memory
 * bandwidth, output delay, and the resource-monitor time series.
 *
 * This is the layer the bench binaries, the examples and the
 * integration tests all share: a QueryConfig describes *what* to run
 * on *which* machine, runQuery() wires the pipeline, drives the
 * simulated machine to completion and collects the numbers.
 */

#ifndef SBHBM_QUERIES_QUERY_H
#define SBHBM_QUERIES_QUERY_H

#include <map>
#include <memory>
#include <vector>

#include "columnar/window.h"
#include "common/units.h"
#include "ingest/generator.h"
#include "pipeline/egress.h"
#include "runtime/engine.h"
#include "runtime/resource_monitor.h"

namespace sbhbm::queries {

/** The ten benchmarks of §6 (YSB plus the nine numbered pipelines). */
enum class QueryId {
    kYsb = 0,          //!< Yahoo streaming benchmark (Fig 1a / Fig 5)
    kTopKPerKey,       //!< benchmark 1
    kSumPerKey,        //!< benchmark 2
    kMedianPerKey,     //!< benchmark 3
    kAvgPerKey,        //!< benchmark 4
    kAvgAll,           //!< benchmark 5
    kUniqueCountPerKey, //!< benchmark 6
    kTemporalJoin,     //!< benchmark 7
    kWindowedFilter,   //!< benchmark 8
    kPowerGrid,        //!< benchmark 9
};

/** Number of distinct QueryId values. */
constexpr int kNumQueries = 10;

/** Display name matching the paper's figure captions. */
const char *queryName(QueryId id);

/** Engine family to run the query on (Figs 7 and 9). */
enum class EngineKind {
    kStreamBoxHbm = 0, //!< full system: flat memory, KPA, knob
    kCaching,          //!< KPA but hardware cache-mode memory
    kDramOnly,         //!< KPA but HBM disabled
    kCachingNoKpa,     //!< sequential algos on full records, cache mode
    kFlinkLike,        //!< record-at-a-time hash engine, cache mode; YSB only
};

const char *engineKindName(EngineKind kind);

/** Everything needed to run one measurement point. */
struct QueryConfig
{
    QueryId id = QueryId::kSumPerKey;
    EngineKind engine = EngineKind::kStreamBoxHbm;

    /** Machine model (Table 3); KNL by default. */
    sim::MachineConfig machine = sim::MachineConfig::knl();

    /** Cores in use — the x-axis of Figs 2, 7, 8, 9. */
    unsigned cores = 64;

    /**
     * Window length in simulated ns. The paper uses 1-second windows
     * of 10 M records; benches default to shorter windows so host
     * runtime stays tractable — rates (records/sec) are unaffected
     * because they are ratios over simulated time.
     */
    SimTime window_ns = 100 * kNsPerMs;

    /** Total records to ingest across the whole run. */
    uint64_t total_records = 2'000'000;

    /** Records per ingested bundle. */
    uint32_t bundle_records = 50'000;

    /**
     * Offered ingestion rate, records/sec; 0 means NIC-limited (the
     * sender pushes as fast as the link allows). With back-pressure
     * on, the sustained rate the engine reaches *is* its throughput.
     */
    double offered_rate = 0;

    /** Use the Ethernet NIC + ingestion copy instead of RDMA. */
    bool ethernet_ingest = false;

    /** Watermark every k bundles instead of per window (Fig 10b). */
    uint32_t bundles_per_watermark = 0;

    /** Key cardinality for the KV benchmarks. */
    uint64_t key_range = 10'000;

    /** Value range for the KV benchmarks. */
    uint64_t value_range = 1'000'000;

    /** Bound on in-flight bundles (back-pressure; paper §5). */
    uint32_t max_inflight_bundles = 64;

    /** Target output delay (paper: 1 second). */
    SimTime target_delay = kNsPerSec;

    uint64_t seed = 1;
};

/** What one run measured. */
struct QueryResult
{
    /** Sustained ingestion throughput over the run, M records/sec. */
    double throughput_mrps = 0;

    /**
     * Whole-run average: total records / total virtual time including
     * the final drain, M records/sec. Noisier regimes (ablation A/B
     * comparisons at fixed work) prefer this monotone metric.
     */
    double total_mrps = 0;

    /** Sustained ingestion throughput, GB/sec of record payload. */
    double throughput_gbps = 0;

    /** Peak / mean HBM bandwidth over 10 ms monitor samples, GB/s. */
    double peak_hbm_bw_gbps = 0;
    double avg_hbm_bw_gbps = 0;

    /** Peak / mean DRAM bandwidth, GB/s. */
    double peak_dram_bw_gbps = 0;
    double avg_dram_bw_gbps = 0;

    /** Peak / mean HBM capacity used, GB. */
    double peak_hbm_used_gb = 0;
    double avg_hbm_used_gb = 0;

    /** Output delay stats over externalized windows, seconds. */
    double mean_delay_s = 0;
    double max_delay_s = 0;

    /** True when every externalized window met the target delay. */
    bool met_target_delay = true;

    uint64_t records_ingested = 0;
    uint64_t output_records = 0;
    uint64_t windows_externalized = 0;

    /** Simulated time from start to last watermark delivery. */
    double sim_seconds = 0;

    /** The raw 10 ms resource samples (the series behind Fig 10). */
    std::vector<runtime::ResourceSample> samples;
};

/**
 * A wired query pipeline: the operators live in the Pipeline that
 * built them; this carries the source entry points, the generators
 * that feed them, and the egress to read results from.
 */
struct BuiltQuery
{
    pipeline::Operator *entry_a = nullptr;
    int port_a = 0;
    std::unique_ptr<ingest::Generator> gen_a;

    pipeline::Operator *entry_b = nullptr; //!< second stream, if any
    int port_b = 0;
    std::unique_ptr<ingest::Generator> gen_b;

    pipeline::EgressOp *egress = nullptr;
};

/**
 * Wire cfg.id's operator graph into @p pipe (which may target any
 * engine and stream — the serving layer builds one per tenant on a
 * shared engine). Only the query-shape fields of @p cfg are read:
 * id, engine kind, seed, key/value ranges.
 */
BuiltQuery buildQueryPipeline(const QueryConfig &cfg,
                              pipeline::Pipeline &pipe);

/** Input record width (bytes) of a query's stream. */
uint32_t queryRecordBytes(QueryId id);

/**
 * Build the query's pipeline on a fresh engine, ingest
 * cfg.total_records, run the simulated machine until the pipeline
 * drains, and report the measured rates.
 */
QueryResult runQuery(const QueryConfig &cfg);

} // namespace sbhbm::queries

#endif // SBHBM_QUERIES_QUERY_H
