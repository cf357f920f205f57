/**
 * @file
 * The benchmark command: runs one workload with one seed and prints its
 * metrics, ending with one JSON line
 * {"correct", "attempted", "failed", "metrics"}. See ../DESIGN.md.
 *
 *   perfbench --workload ysb|join|fleet|overload --seed N --seconds S
 *             --trace 0|1
 *   perfbench --list-metrics
 */

#include <sched.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "obs/json_writer.h"

namespace pb {

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = {
        {"ysb", 1, true, 16'000'000},
        {"join", 2, true, 2'700'000},
        {"fleet", 1, false, 3'800'000},
        {"overload", 1, false, 5'000'000},
    };
    return table;
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> table = {
        {"host_mrps", "Mrec/s"},
        {"host_delay_ms_p50", "ms"},
        {"host_delay_ms_p90", "ms"},
        {"setup_s", "s"},
        {"host_peak_rss_mb", "MB"},
    };
    return table;
}

const std::vector<std::string> &
operatorLabels()
{
    // "ingest" collects the sources' unlabeled delivery tasks.
    static const std::vector<std::string> labels = {
        "ingest",    "filter",    "ext_join", "window",
        "count_by_key", "extract_l", "extract_r", "win_l",
        "win_r",     "join",      "extract",  "agg",
    };
    return labels;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> table = [] {
        std::vector<MetricDef> t = {
            {"host.program_ns_per_rec", "ns/rec"},
            {"host.cpu_per_wall", "s/s"},
            {"host.speed_factor", "ratio"},
            {"ingest.gen_ns_per_rec", "ns/rec"},
            {"ingest.wait_ms", "ms"},
            {"kpa.extract_ns_per_rec", "ns/rec"},
            {"kpa.select_ns_per_rec", "ns/rec"},
            {"kpa.key_update_ns_per_rec", "ns/rec"},
            {"kpa.partition_ns_per_rec", "ns/rec"},
            {"kpa.sort_ns_per_rec", "ns/rec"},
            {"kpa.merge_ns_per_rec", "ns/rec"},
            {"kpa.reduce_ns_per_rec", "ns/rec"},
            {"kpa.join_ns_per_rec", "ns/rec"},
            {"kpa.kernels_ns_per_rec", "ns/rec"},
            {"engine.nonkernel_ns_per_rec", "ns/rec"},
            {"sim.events", "count"},
            {"runtime.tasks", "count"},
            {"runtime.shed_tasks", "count"},
            {"runtime.queue_wait_ms", "ms"},
            {"mem.minor_faults", "count"},
            {"mem.demoted_kpas", "count"},
            {"mem.demoted_mb", "MB"},
            {"serve.admitted", "count"},
            {"serve.rejected", "count"},
            {"serve.records_shed", "count"},
            {"serve.sla_violations", "count"},
            {"serve.fairness", "index"},
            {"serve.attr.recovery_ms", "ms"},
            {"serve.attr.ingest_ms", "ms"},
            {"serve.attr.memory_ms", "ms"},
            {"serve.attr.sched_ms", "ms"},
            {"serve.attr.compute_ms", "ms"},
            {"sim.mrps", "Mrec/s"},
            {"sim.delay_ms_p50", "ms"},
            {"sim.delay_ms_p90", "ms"},
            {"sim.hbm_bytes_per_rec", "B/rec"},
            {"sim.dram_bytes_per_rec", "B/rec"},
            {"sim.cpu_ns_per_rec", "ns/rec"},
            {"sim.hbm_peak_mb", "MB"},
            {"trace.overhead_frac", "frac"},
        };
        // Names must outlive the table: keep them in static storage.
        static std::vector<std::string> names;
        for (const std::string &op : operatorLabels()) {
            names.push_back("op." + op + ".sim_busy_ms");
            names.push_back("op." + op + ".tasks");
        }
        for (size_t i = 0; i < names.size(); ++i)
            t.push_back({names[i].c_str(), i % 2 == 0 ? "ms" : "count"});
        return t;
    }();
    return table;
}

namespace {

/** CPUs this process may run on (what `nproc` prints). */
unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(CPU_COUNT(&set));
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "ysb|join|fleet|overload --seed N --seconds S "
                 "--trace 0|1\n       perfbench --list-metrics\n",
                 why);
    std::exit(2);
}

uint64_t
parseUnsigned(const char *s, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

void
listMetrics()
{
    for (const MetricDef &m : endToEndMetrics())
        std::printf("end_to_end %s %s\n", m.name, m.unit);
    for (const MetricDef &m : perLayerMetrics())
        std::printf("per_layer %s %s\n", m.name, m.unit);
}

} // namespace
} // namespace pb

int
main(int argc, char **argv)
{
    using namespace pb;
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--list-metrics") {
            listMetrics();
            return 0;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            args.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            args.seed = parseUnsigned(v, "--seed");
        } else if (a == "--seconds") {
            const uint64_t s = parseUnsigned(v, "--seconds");
            if (s < 1 || s > 60)
                usage("--seconds must be 1..60");
            args.seconds = static_cast<unsigned>(s);
        } else if (a == "--trace") {
            const uint64_t t = parseUnsigned(v, "--trace");
            if (t > 1)
                usage("--trace must be 0 or 1");
            args.trace = t == 1;
        } else {
            usage(("unknown flag " + a).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");

    const Workload *wl = nullptr;
    for (const Workload &w : workloads())
        if (args.workload == w.name)
            wl = &w;
    if (wl == nullptr)
        usage(("unknown workload " + args.workload).c_str());

    const unsigned cpus = usableCpus();
    if (wl->host_threads > cpus) {
        std::fprintf(stderr,
                     "perfbench: workload %s needs %u host threads but "
                     "only %u CPUs are usable\n",
                     wl->name, wl->host_threads, cpus);
        return 2;
    }
    note("workload %s: seed %llu, run %u s, host threads %u, nproc %u, "
         "trace %d",
         wl->name, static_cast<unsigned long long>(args.seed),
         args.seconds, wl->host_threads, cpus, args.trace ? 1 : 0);

    Outcome out;
    if (wl->pipeline)
        runPipelineWorkload(args, *wl, out);
    else
        runServeWorkload(args, *wl, out);

    // Every metric of the mode's table, in table order; a per-layer
    // metric of a layer this workload never runs reads 0.
    const auto &defs = args.trace ? perLayerMetrics() : endToEndMetrics();
    for (const auto &[name, value] : out.metrics) {
        bool known = false;
        for (const MetricDef &d : defs)
            known = known || name == d.name;
        if (!known) {
            out.fail("metric " + name + " is not in the metric table");
        }
    }
    sbhbm::obs::JsonWriter w(/*pretty=*/false);
    w.beginObject();
    w.key("metrics").beginObject();
    for (const MetricDef &d : defs) {
        auto it = out.metrics.find(d.name);
        const double v = it == out.metrics.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            out.fail(std::string("metric ") + d.name + " is not finite");
        note("  %-32s %16.6f %s", d.name, v, d.unit);
        // All digits of the measured value, not a rounded rendering.
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
        w.key(d.name).beginObject();
        w.key("value").rawValue(buf);
        w.key("unit").value(d.unit);
        w.endObject();
    }
    w.endObject();
    w.key("correct").value(out.correct);
    w.key("attempted").value(out.attempted);
    w.key("failed").value(out.failed);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return out.correct ? 0 : 1;
}
