/**
 * @file
 * Reporting helpers shared by the workload drivers: failed checks,
 * result lines, percentiles with their sample counts, the nominal-speed
 * scaling, operator spans and kernel rows.
 */

#include <sys/resource.h>

#include <cstdarg>
#include <cstdio>
#include <string>

#include "bench.h"
#include "reference.h"
#include "stats.h"

namespace pb {

void
Outcome::fail(const std::string &why)
{
    correct = false;
    std::printf("CHECK FAILED: %s\n", why.c_str());
}

void
mixWindows(uint64_t &h, const std::map<columnar::WindowId, uint64_t> &records,
           const std::map<columnar::WindowId, uint64_t> &checksums)
{
    Fnv f{h};
    for (const auto &[w, n] : records) {
        f.mix(w);
        f.mix(n);
    }
    for (const auto &[w, c] : checksums) {
        f.mix(w);
        f.mix(c);
    }
    h = f.h;
}

void
addPercentiles(const std::string &prefix, const std::vector<double> &samples,
               bool required, Outcome &out)
{
    for (double p : {50.0, 90.0}) {
        const std::string name =
            prefix + "p" + std::to_string(static_cast<int>(p));
        if (const auto pct = percentile(samples, p)) {
            out.metrics[name] = pct->value;
            note("%s over %zu windows", name.c_str(), pct->samples);
        } else if (required) {
            out.fail(name + ": " + std::to_string(samples.size())
                     + " windows are too few");
        } else {
            note("%s: %zu windows are too few", name.c_str(),
                 samples.size());
        }
    }
}

void
reportAtNominalSpeed(double host_mrps, const std::vector<double> &delays_ms,
                     double setup_s, double speed, Outcome &out)
{
    out.metrics["host_mrps"] = host_mrps * speed;
    std::vector<double> delays;
    for (double d : delays_ms)
        delays.push_back(d / speed);
    addPercentiles("host_delay_ms_", delays, true, out);
    out.metrics["setup_s"] = setup_s / speed;
}

void
addOperatorSpans(const obs::Telemetry &tele, Outcome &out)
{
    for (const obs::TraceEvent &e : tele.trace.events()) {
        if (e.ph != 'X' || std::string(e.cat) != "task")
            continue;
        // Sources spawn their delivery tasks unlabeled.
        const std::string op = e.name == "task" ? "ingest" : e.name;
        out.metrics["op." + op + ".sim_busy_ms"] +=
            static_cast<double>(e.dur) / 1e6;
        out.metrics["op." + op + ".tasks"] += 1;
    }
}

void
addKernelRows(const ReplayResult &rep, double program_ns_per_rec,
              double in_program_gen_ns_per_rec, Outcome &out)
{
    double kernels = 0;
    for (const auto &[name, ns] : rep.kernel_ns_per_rec) {
        out.metrics[name] = ns;
        kernels += ns;
    }
    out.metrics["kpa.kernels_ns_per_rec"] = kernels;
    out.metrics["engine.nonkernel_ns_per_rec"] =
        program_ns_per_rec - kernels - in_program_gen_ns_per_rec;
}

Usage
usageNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec)
              + static_cast<double>(ru.ru_utime.tv_usec
                                    + ru.ru_stime.tv_usec)
                    / 1e6;
    u.minor_faults = ru.ru_minflt;
    u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB
    return u;
}

void
note(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::printf("\n");
}

} // namespace pb
