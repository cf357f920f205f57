/**
 * @file
 * The serving workloads, fleet and overload: a serve::Server is built
 * and handed a deterministic open-loop fleet, and Server::run() is timed
 * on the host clock. Tenants generate their input inside run(), so the
 * program time here includes generation.
 *
 * run() exposes no per-window host instant, so the benchmark keeps a
 * host clock map of the co-simulation instead: a daemon event of its
 * own on shard 0 stamps the host clock every 10 us of virtual time. The
 * co-simulation processes events in global virtual-time order, so the
 * map is monotone, and a window's host delay is the host time the fleet
 * took to advance from the window's end to its externalization.
 */

#include <algorithm>
#include <cinttypes>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/trace.h"
#include "reference.h"
#include "serve/load_driver.h"
#include "serve/server.h"
#include "speed_probe.h"
#include "stats.h"

namespace pb {
namespace {

bool
isOverload(const Workload &wl)
{
    return std::string(wl.name) == "overload";
}

/** Core slots per shard, as serve_report's sweeps use. */
constexpr unsigned kCores = 16;

/**
 * fleet: serve_report's shard-sweep fleet (256 sessions, a quarter hot,
 * Sum/Avg/UniqueCount over 10 k keys, 2,000-record bundles, open-loop
 * Poisson at 50 / 10 M rec/s in virtual time, all arriving at t = 0,
 * 20 ms windows, 4 shards x 16 cores, fair share), with sessions
 * lengthened to fill the run. Hot sessions keep 4x the cold records at
 * 4x the weight, so fair shares stay flat.
 */
serve::ServeConfig
fleetConfig()
{
    serve::ServeConfig cfg;
    cfg.engine.machine = sim::MachineConfig::knl();
    cfg.engine.cores = kCores;
    cfg.engine.max_inflight_bundles = 1024;
    cfg.window_ns = 20 * kNsPerMs;
    cfg.shards = 4;
    cfg.admission.max_active = 256;
    cfg.admission.max_queued = 256;
    return cfg;
}

std::vector<serve::TenantSpec>
fleetSessions(uint64_t seed, uint64_t records)
{
    serve::FleetConfig fleet;
    fleet.tenants = 256;
    fleet.seed = seed;
    // 64 hot sessions of 4 units and 192 cold of 1: 448 units.
    const uint64_t unit = std::max<uint64_t>(records / 448, 2'000);
    fleet.hot_records = 4 * unit;
    fleet.cold_records = unit;
    fleet.bundle_records = 2'000;
    fleet.hot_rate = 50e6;
    fleet.cold_rate = 10e6;
    fleet.hot_hbm_reserve = 8ull << 20;
    fleet.cold_hbm_reserve = 2ull << 20;
    fleet.arrival_span = 0;
    fleet.max_inflight_bundles = 8;
    return serve::makeFleet(fleet);
}

/**
 * overload: the pinned memory-control-plane scenario (8 MiB HBM,
 * pressure director, live admission, SLA demotion), four SumPerKey
 * sessions at 2 M rec/s Poisson, 5,000-record bundles, watermarks every
 * 50 bundles. Session seeds come from the benchmark seed.
 */
std::vector<serve::TenantSpec>
overloadSessions(uint64_t seed, uint64_t records)
{
    std::vector<serve::TenantSpec> fleet =
        serve::makeOverloadFleet(std::max<uint64_t>(records / 4, 5'000));
    Rng rng(seed);
    for (serve::TenantSpec &t : fleet)
        t.seed = rng.next() | 1;
    return fleet;
}

serve::ServeConfig
configFor(const Workload &wl, obs::Telemetry *tele)
{
    serve::ServeConfig cfg =
        isOverload(wl) ? serve::overloadServeConfig(kCores, true)
                       : fleetConfig();
    cfg.engine.host_threads = wl.host_threads;
    cfg.telemetry = tele;
    return cfg;
}

std::vector<serve::TenantSpec>
sessionsFor(const Workload &wl, uint64_t seed, uint64_t records)
{
    return isOverload(wl) ? overloadSessions(seed, records)
                          : fleetSessions(seed, records);
}

/**
 * Program-clock instants of the co-simulation's virtual time (see
 * above). The ticks also run the speed probe every
 * SpeedProbe::kServePeriodNs of host time; its slices are benchmark
 * time, so the map's clock leaves them out.
 */
class HostClockMap
{
  public:
    explicit HostClockMap(SpeedProbe &probe) : probe_(probe) {}

    /** Start stamping @p m every @p period of virtual time. */
    void
    install(sim::Machine &m, SimTime period)
    {
        machine_ = &m;
        period_ = period;
        m.at(m.now(), [this] { tick(); }, /*daemon=*/true);
    }

    /** Host time the speed probe took inside the run. */
    int64_t probeNs() const { return probe_ns_; }

    /** Program-clock ns at which the fleet reached virtual time @p t. */
    int64_t
    hostAt(SimTime t) const
    {
        if (stamps_.empty())
            return 0;
        auto it = std::lower_bound(
            stamps_.begin(), stamps_.end(), t,
            [](const Stamp &s, SimTime v) { return s.sim < v; });
        if (it == stamps_.end())
            return stamps_.back().host;
        if (it == stamps_.begin() || it->sim == t)
            return it->host;
        const Stamp &a = *(it - 1);
        const double f = static_cast<double>(t - a.sim)
                         / static_cast<double>(it->sim - a.sim);
        return a.host
               + static_cast<int64_t>(
                   f * static_cast<double>(it->host - a.host));
    }

  private:
    struct Stamp
    {
        SimTime sim;
        int64_t host;
    };

    void
    tick()
    {
        const int64_t now = hostNs();
        if (now - last_probe_ >= SpeedProbe::kServePeriodNs) {
            probe_ns_ += probe_.slice();
            last_probe_ = hostNs();
        }
        stamps_.push_back(Stamp{machine_->now(), hostNs() - probe_ns_});
        machine_->after(period_, [this] { tick(); }, /*daemon=*/true);
    }

    SpeedProbe &probe_;
    int64_t probe_ns_ = 0;
    int64_t last_probe_ = 0;
    sim::Machine *machine_ = nullptr;
    SimTime period_ = 0;
    std::vector<Stamp> stamps_;
};

Fingerprint
fingerprint(const serve::Server &server)
{
    Fingerprint f;
    f.outputs = Fnv{}.h;
    for (const serve::TenantReport &r : server.reports()) {
        f.tasks += r.tasks;
        f.hbm_bytes += r.hbm_bytes;
        f.dram_bytes += r.dram_bytes;
        f.cpu_ns += r.cpu_ns;
        Fnv id{f.outputs};
        id.mix(r.spec.id);
        f.outputs = id.h;
        mixWindows(f.outputs, r.window_records, r.window_checksums);
    }
    return f;
}

/** One timed serving run. */
struct ServeRun
{
    /** Construction and submission, plus the median over sessions of
     *  the host time from run() to the session's first result. */
    double setup_s = 0;
    size_t setup_samples = 0;
    double run_s = 0;
    double wall_s = 0; //!< construction to the end of run()
    uint64_t records = 0; //!< ingested by admitted sessions
    std::vector<double> delays_ms;
    Fingerprint print;
};

/**
 * Build the server, submit the fleet, run it. @p inspect sees the
 * server after run() (telemetry, reports) before it is destroyed.
 */
ServeRun
serveOnce(const Workload &wl, uint64_t seed, uint64_t records,
          SpeedProbe &probe, obs::Telemetry *tele,
          const std::function<void(serve::Server &)> &inspect = nullptr)
{
    ServeRun out;
    HostClockMap clock(probe); // outlives the server's pending tick event
    const int64_t t0 = hostNs();
    serve::Server server(configFor(wl, tele));
    server.submitFleet(sessionsFor(wl, seed, records));
    const int64_t t1 = hostNs();
    clock.install(server.engine(0).machine(), 10 * kNsPerUs);
    server.run();
    const int64_t t2 = hostNs();
    out.run_s = static_cast<double>(t2 - t1 - clock.probeNs()) / 1e9;
    out.wall_s = static_cast<double>(t2 - t0) / 1e9;

    const SimTime width = server.config().window_ns;
    std::vector<double> first_result_s;
    for (const serve::TenantReport &r : server.reports()) {
        if (r.admission != serve::Admission::kAdmitted)
            continue;
        out.records += r.records;
        // Latency sample i is window i of a single-segment session;
        // windows that ended before the session started hold no input.
        if (r.migrations != 0 || r.recoveries != 0)
            continue;
        const auto &lat = r.latency_samples;
        bool first = true;
        for (size_t i = 0; i < lat.size(); ++i) {
            const SimTime end = (i + 1) * width;
            if (end <= r.started_at)
                continue;
            const SimTime emitted =
                end + static_cast<SimTime>(lat[i] * 1e9 + 0.5);
            if (first) {
                first_result_s.push_back(
                    static_cast<double>(clock.hostAt(emitted) - t1) / 1e9);
                first = false;
            }
            out.delays_ms.push_back(
                static_cast<double>(clock.hostAt(emitted)
                                    - clock.hostAt(end))
                / 1e6);
        }
    }
    out.setup_samples = first_result_s.size();
    out.setup_s = static_cast<double>(t1 - t0) / 1e9
                  + (first_result_s.empty() ? 0.0 : median(first_result_s));
    out.print = fingerprint(server);
    if (inspect)
        inspect(server);
    return out;
}

/** Conservation, drain and admission accounting of every session. */
void
checkSessions(const serve::Server &server, Outcome &out)
{
    uint64_t lost_sessions = 0;
    for (const serve::TenantReport &r : server.reports()) {
        const uint64_t offered = r.spec.total_records;
        out.attempted += offered;
        if (r.admission != serve::Admission::kAdmitted || r.lost) {
            out.failed += offered;
            ++lost_sessions;
            continue;
        }
        out.failed += r.records_shed;
        if (r.records + r.records_shed != offered + r.records_replayed) {
            out.failed += offered;
            out.fail("session " + std::to_string(r.spec.id)
                     + " does not conserve records: "
                     + std::to_string(r.records) + " ingested + "
                     + std::to_string(r.records_shed) + " shed != "
                     + std::to_string(offered) + " offered + "
                     + std::to_string(r.records_replayed) + " replayed");
        }
        if (r.finished_at == 0 || r.windows == 0)
            out.fail("session " + std::to_string(r.spec.id)
                     + " did not drain");
    }
    note("sessions: %zu, not served: %" PRIu64, server.reports().size(),
         lost_sessions);
}

/** Simulated-clock and serving counts of a run. */
void
addServeCounts(serve::Server &server, Outcome &out)
{
    auto &m = out.metrics;
    uint64_t tasks = 0, shed_tasks = 0, queue_wait = 0, demoted_kpas = 0,
             demoted_bytes = 0;
    double hbm_peak = 0;
    for (uint32_t s = 0; s < server.shardCount(); ++s) {
        runtime::Engine &eng = server.engine(s);
        tasks += eng.exec().completedTasks();
        shed_tasks += eng.exec().shedTasks();
        for (const auto &[id, st] : eng.exec().allStreamStats())
            queue_wait += st.queue_wait_ns;
        demoted_kpas += eng.director().demotedKpas();
        demoted_bytes += eng.director().demotedBytes();
        hbm_peak = std::max(hbm_peak, eng.monitor().hbmUsedStat().max());
    }
    uint64_t records = 0, admitted = 0, shed = 0, violations = 0;
    uint64_t hbm = 0, dram = 0;
    double cpu = 0;
    double attr[serve::kStallCauses] = {};
    std::vector<double> sim_delays;
    for (const serve::TenantReport &r : server.reports()) {
        shed += r.records_shed;
        if (r.admission != serve::Admission::kAdmitted)
            continue;
        ++admitted;
        records += r.records;
        violations += r.sla_violations;
        hbm += r.hbm_bytes;
        dram += r.dram_bytes;
        cpu += r.cpu_ns;
        for (uint32_t c = 0; c < serve::kStallCauses; ++c)
            attr[c] += r.attribution_ns[c];
        for (double s : r.latency_samples)
            sim_delays.push_back(s * 1e3);
    }
    const double n = static_cast<double>(std::max<uint64_t>(records, 1));
    m["runtime.tasks"] = static_cast<double>(tasks);
    m["runtime.shed_tasks"] = static_cast<double>(shed_tasks);
    m["runtime.queue_wait_ms"] = static_cast<double>(queue_wait) / 1e6;
    m["mem.demoted_kpas"] = static_cast<double>(demoted_kpas);
    m["mem.demoted_mb"] = static_cast<double>(demoted_bytes) / 1e6;
    m["serve.admitted"] = static_cast<double>(admitted);
    m["serve.rejected"] = static_cast<double>(server.registry().rejected());
    m["serve.records_shed"] = static_cast<double>(shed);
    m["serve.sla_violations"] = static_cast<double>(violations);
    m["serve.fairness"] = server.fairnessIndex();
    const char *attr_names[serve::kStallCauses] = {
        "serve.attr.recovery_ms", "serve.attr.ingest_ms",
        "serve.attr.memory_ms", "serve.attr.sched_ms",
        "serve.attr.compute_ms"};
    for (uint32_t c = 0; c < serve::kStallCauses; ++c)
        m[attr_names[c]] = attr[c] / 1e6;
    m["sim.mrps"] = server.aggregateMrps();
    m["sim.hbm_bytes_per_rec"] = static_cast<double>(hbm) / n;
    m["sim.dram_bytes_per_rec"] = static_cast<double>(dram) / n;
    m["sim.cpu_ns_per_rec"] = cpu / n;
    m["sim.hbm_peak_mb"] = hbm_peak / 1e6;
    addPercentiles("sim.delay_ms_", sim_delays, false, out);
}

/**
 * The sessions the kernel replay runs: about 64 spread evenly over the
 * fleet (hot and cold alike), each for about three of its windows at
 * its measured density.
 */
std::vector<ReplayStream>
replayStreams(const serve::Server &server)
{
    std::vector<ReplayStream> out;
    const auto &reports = server.reports();
    const size_t stride = std::max<size_t>(1, reports.size() / 64);
    for (size_t i = 0; i < reports.size(); i += stride) {
        const serve::TenantReport &r = reports[i];
        if (r.admission != serve::Admission::kAdmitted || r.windows == 0)
            continue;
        ReplayStream s;
        s.qc.id = r.spec.query;
        s.qc.seed = r.spec.seed;
        s.qc.key_range = r.spec.key_range;
        s.qc.value_range = r.spec.value_range;
        s.qc.window_ns = server.config().window_ns;
        s.bundle_records = r.spec.bundle_records;
        s.records_per_window = static_cast<double>(r.records)
                               / static_cast<double>(r.windows);
        s.records = std::min<uint64_t>(
            r.records, static_cast<uint64_t>(3 * s.records_per_window));
        out.push_back(s);
    }
    return out;
}

/**
 * Small runs with seed, seed and seed + 1: equal seeds must repeat bit
 * for bit, a different seed must change the outputs.
 */
void
seedChecks(const Workload &wl, const Args &args, SpeedProbe &probe,
           Outcome &out)
{
    const uint64_t small = isOverload(wl) ? 600'000 : 900'000;
    const Fingerprint a =
        serveOnce(wl, args.seed, small, probe, nullptr).print;
    const Fingerprint b =
        serveOnce(wl, args.seed, small, probe, nullptr).print;
    const Fingerprint c =
        serveOnce(wl, args.seed + 1, small, probe, nullptr).print;
    if (!(a == b))
        out.fail("runs with equal seeds differ");
    if (a.outputs == c.outputs)
        out.fail("runs with different seeds give equal outputs");
}

} // namespace

void
runServeWorkload(const Args &args, const Workload &wl, Outcome &out)
{
    const uint64_t records = wl.records_per_second * args.seconds;
    auto &m = out.metrics;

    SpeedProbe probe;
    const Usage u0 = usageNow();
    std::vector<ReplayStream> replay;
    ServeRun run = serveOnce(wl, args.seed, records, probe, nullptr,
                             [&](serve::Server &s) {
                                 checkSessions(s, out);
                                 replay = replayStreams(s);
                             });
    const Usage u1 = usageNow();
    const double speed = probe.factor();
    note("records %" PRIu64 ", run %.3f s, %zu window delays, host speed "
         "factor %.4f over %" PRIu64 " probe slices",
         run.records, run.run_s, run.delays_ms.size(), speed,
         probe.slices());
    const double program_ns_per_rec =
        run.run_s * 1e9 / static_cast<double>(run.records);

    if (!args.trace) {
        seedChecks(wl, args, probe, out);
        const double mrps =
            static_cast<double>(run.records) / run.run_s / 1e6;
        note("raw host_mrps %.4f, setup_s %.6f (construction + median "
             "first result of %zu sessions); reported at the nominal host "
             "speed",
             mrps, run.setup_s, run.setup_samples);
        reportAtNominalSpeed(mrps, run.delays_ms, run.setup_s, speed, out);
        m["host_peak_rss_mb"] = u1.max_rss_mb;
        return;
    }

    obs::Telemetry tele;
    ServeRun traced = serveOnce(wl, args.seed, records, probe, &tele,
                                [&out](serve::Server &s) {
                                    addServeCounts(s, out);
                                });
    if (!(traced.print == run.print))
        out.fail("traced run differs from the untraced run");
    addOperatorSpans(tele, out);
    m["trace.overhead_frac"] = traced.run_s / run.run_s - 1.0;
    m["host.program_ns_per_rec"] = program_ns_per_rec;
    m["host.speed_factor"] = speed;
    m["host.cpu_per_wall"] = (u1.cpu_s - u0.cpu_s) / run.wall_s;
    m["mem.minor_faults"] =
        static_cast<double>(u1.minor_faults - u0.minor_faults);

    const ReplayResult rep = replayKernels(replay, wl.host_threads);
    m["ingest.gen_ns_per_rec"] = rep.gen_ns_per_rec;
    // Tenants generate inside run(): take the generator out as well.
    addKernelRows(rep, program_ns_per_rec, rep.gen_ns_per_rec, out);
}

} // namespace pb
