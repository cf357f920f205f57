/**
 * @file
 * Shared declarations of the benchmark: command-line arguments, the
 * workload table, the metric table and one run's outcome.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "pipeline/pipeline.h"
#include "queries/query.h"
#include "runtime/engine.h"

namespace pb {

using namespace sbhbm;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    unsigned seconds = 10;
    bool trace = false;
};

/**
 * One workload. Host threads are fixed here, never taken from the
 * environment or the hardware, so every machine runs the same program.
 */
struct Workload
{
    const char *name;
    unsigned host_threads;
    bool pipeline; //!< driven step by step (else through serve::Server)
    /** Input records per stream per second of --seconds (sizes a
     *  run so the program's own time is about --seconds). */
    uint64_t records_per_second;
};

const std::vector<Workload> &workloads();

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Metrics a plain run reports (BENCHMARK.json "end_to_end"). */
const std::vector<MetricDef> &endToEndMetrics();

/** Metrics a traced run reports (BENCHMARK.json "per_layer"). */
const std::vector<MetricDef> &perLayerMetrics();

/** Operator labels the traced run aggregates task spans under. */
const std::vector<std::string> &operatorLabels();

/** What one run of a workload measured and checked. */
struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0; //!< input records offered
    uint64_t failed = 0;    //!< offered records not correctly delivered
    std::map<std::string, double> metrics;

    /** Record a failed check; the run then exits nonzero. */
    void fail(const std::string &why);
};

/**
 * What must repeat bit for bit when a run repeats with its seed:
 * simulated counts and every window's output.
 */
struct Fingerprint
{
    uint64_t events = 0; //!< simulator events (pipelines only)
    uint64_t tasks = 0;
    uint64_t hbm_bytes = 0;
    uint64_t dram_bytes = 0;
    double cpu_ns = 0;
    uint64_t outputs = 0; //!< FNV over (window, records, checksum)

    bool operator==(const Fingerprint &o) const = default;
};

/** Mix one output's per-window records and checksums into @p h. */
void mixWindows(uint64_t &h,
                const std::map<columnar::WindowId, uint64_t> &records,
                const std::map<columnar::WindowId, uint64_t> &checksums);

/**
 * Fresh generators of a query, seeded exactly as buildQueryPipeline
 * seeds them for a measured run (a scratch pipeline hands them out).
 */
struct QueryGenerators
{
    explicit QueryGenerators(const queries::QueryConfig &qc)
        : eng(runtime::EngineConfig{}),
          pipe(eng, columnar::WindowSpec{qc.window_ns}),
          built(queries::buildQueryPipeline(qc, pipe))
    {
    }

    runtime::Engine eng;
    pipeline::Pipeline pipe;
    queries::BuiltQuery built;
};

/**
 * Report the p50 and p90 of @p samples as <prefix>p50 and <prefix>p90
 * with their sample count. A percentile with fewer than ten samples
 * beyond it is left out, and is a failed check when @p required.
 */
void addPercentiles(const std::string &prefix,
                    const std::vector<double> &samples, bool required,
                    Outcome &out);

/**
 * Report the end-to-end time metrics at the nominal host speed: the
 * measured throughput times @p speed (the run's SpeedProbe factor),
 * delays and set-up divided by it.
 */
void reportAtNominalSpeed(double host_mrps,
                          const std::vector<double> &delays_ms,
                          double setup_s, double speed, Outcome &out);

/** Virtual-time task spans of the telemetry plane, per operator label. */
void addOperatorSpans(const obs::Telemetry &tele, Outcome &out);

/** One input stream the kernel replay runs a query's kernels on. */
struct ReplayStream
{
    queries::QueryConfig qc; //!< query, seed, key/value ranges, window
    uint32_t bundle_records = 0;
    uint64_t records = 0; //!< to replay (both streams, for the join)
    /** Event-time density: input records per window per stream, as
     *  measured in the run being explained. */
    double records_per_window = 0;
};

/** Kernel-replay timings, ns per input record of the workload. */
struct ReplayResult
{
    double gen_ns_per_rec = 0; //!< generator fill (serve: in-program)
    std::map<std::string, double> kernel_ns_per_rec; //!< kpa.* rows
};

void runPipelineWorkload(const Args &args, const Workload &wl,
                         Outcome &out);
void runServeWorkload(const Args &args, const Workload &wl, Outcome &out);

/**
 * Replay the kernels the streams' operators call on the streams' own
 * generated bundles, with @p host_threads kernel threads, timing each
 * call.
 */
ReplayResult replayKernels(const std::vector<ReplayStream> &streams,
                           unsigned host_threads);

/**
 * Report the replay's kpa.* rows, their sum, and the program's
 * non-kernel time: @p program_ns_per_rec minus the kernels and minus
 * @p in_program_gen_ns_per_rec (generation the program time includes).
 */
void addKernelRows(const ReplayResult &rep, double program_ns_per_rec,
                   double in_program_gen_ns_per_rec, Outcome &out);

/** Resource usage of this process so far. */
struct Usage
{
    double cpu_s = 0;      //!< user + system CPU seconds
    long minor_faults = 0;
    double max_rss_mb = 0; //!< peak resident set, MB
};

Usage usageNow();

/** Print one human-readable result line. */
void note(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace pb

#endif // PERFBENCH_BENCH_H
