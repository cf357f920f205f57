/**
 * @file
 * The pipeline workloads, ysb and join (one run is a PipelineRun,
 * pipeline_run.h): warm-up trials, the measured run, the reference
 * check, and in a traced run the telemetry run and kernel replay.
 */

#include <algorithm>
#include <cinttypes>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "pipeline_run.h"
#include "reference.h"
#include "speed_probe.h"
#include "stats.h"

namespace pb {
namespace {

using columnar::WindowId;

/**
 * The reference result of every window. YSB's was counted as the
 * records were generated; the join's inputs are regenerated after the
 * run (same generators, same fill sequence), because keeping them all
 * during the run would add to the program's memory.
 */
WindowOutputs
referenceOutputs(const Workload &wl, const PipelineRun &run)
{
    if (!isJoin(wl))
        return run.ysbReference().result();
    QueryGenerators gens(run.config());
    const columnar::WindowSpec spec = run.spec();

    auto regenerate = [&gens](ingest::Generator &gen, const FillStamp &f,
                              auto &&consume) {
        columnar::Bundle *b = columnar::Bundle::create(gens.eng.memory(),
                                                       gen.cols(), f.n);
        columnar::BundleHandle h = columnar::BundleHandle::adopt(b);
        gen.fill(*b, f.n, f.t0, f.t1);
        for (uint32_t r = 0; r < b->size(); ++r)
            consume(b->data() + uint64_t{r} * b->cols());
    };

    // Two streams: walk both fill sequences in event-time order and
    // finish each window once neither stream can add to it.
    JoinReference ref(spec);
    const std::vector<FillStamp> &fa = run.fillsA();
    const std::vector<FillStamp> &fb = *run.fillsB();
    size_t ia = 0, ib = 0;
    using G = ingest::KvGen;
    while (ia < fa.size() || ib < fb.size()) {
        const bool take_a =
            ib == fb.size() || (ia < fa.size() && fa[ia].t0 <= fb[ib].t0);
        if (take_a) {
            regenerate(*gens.built.gen_a, fa[ia++],
                       [&ref](const uint64_t *row) {
                           ref.add(0, row[G::kKeyCol], row[G::kTsCol]);
                       });
        } else {
            regenerate(*gens.built.gen_b, fb[ib++],
                       [&ref](const uint64_t *row) {
                           ref.add(1, row[G::kKeyCol], row[G::kTsCol]);
                       });
        }
        const EventTime ha = ia < fa.size() ? fa[ia].t0 : kSimTimeNever;
        const EventTime hb = ib < fb.size() ? fb[ib].t0 : kSimTimeNever;
        ref.finishBefore(std::min(ha, hb));
    }
    return ref.result();
}

/** Input records per window, for counting the records a bad window held. */
std::map<WindowId, uint64_t>
inputPerWindow(const PipelineRun &run)
{
    std::map<WindowId, uint64_t> per;
    const columnar::WindowSpec spec = run.spec();
    auto add = [&](const std::vector<FillStamp> &fills) {
        for (const FillStamp &f : fills) {
            // Timestamps are evenly spaced over [t0, t1) (tsOf).
            for (uint32_t i = 0; i < f.n; ++i)
                ++per[spec.windowOf(f.t0 + (f.t1 - f.t0) * i / f.n)];
        }
    };
    add(run.fillsA());
    if (run.fillsB() != nullptr)
        add(*run.fillsB());
    return per;
}

/** Simulated-clock results of a run, as exact per-layer counts. */
void
addSimCounts(PipelineRun &run, Outcome &out)
{
    runtime::Engine &eng = run.engine();
    const double records = static_cast<double>(run.recordsIn());
    uint64_t hbm = 0, dram = 0, queue_wait = 0;
    double cpu = 0;
    for (const auto &[s, st] : eng.exec().allStreamStats()) {
        hbm += st.hbm_bytes;
        dram += st.dram_bytes;
        cpu += st.cpu_ns;
        queue_wait += st.queue_wait_ns;
    }
    auto &m = out.metrics;
    m["sim.events"] = static_cast<double>(run.events());
    m["runtime.tasks"] = static_cast<double>(eng.exec().completedTasks());
    m["runtime.shed_tasks"] = static_cast<double>(eng.exec().shedTasks());
    m["runtime.queue_wait_ms"] = static_cast<double>(queue_wait) / 1e6;
    m["ingest.wait_ms"] = static_cast<double>(run.ingestWaitNs()) / 1e6;
    m["sim.mrps"] = records / simToSeconds(eng.machine().now()) / 1e6;
    m["sim.hbm_bytes_per_rec"] = static_cast<double>(hbm) / records;
    m["sim.dram_bytes_per_rec"] = static_cast<double>(dram) / records;
    m["sim.cpu_ns_per_rec"] = cpu / records;
    m["sim.hbm_peak_mb"] = eng.monitor().hbmUsedStat().max() / 1e6;
    m["mem.demoted_kpas"] = static_cast<double>(eng.director().demotedKpas());
    m["mem.demoted_mb"] =
        static_cast<double>(eng.director().demotedBytes()) / 1e6;
    std::vector<double> sim_delays;
    for (double s : eng.outputDelays().samples())
        sim_delays.push_back(s * 1e3);
    addPercentiles("sim.delay_ms_", sim_delays, false, out);
}

constexpr size_t kMinWindows = 100;

/**
 * Warm-up trials: set up and run to the first externalized window,
 * alternating seed+1 and seed. Returns their set-up times; checks that
 * equal seeds repeat bit for bit and different seeds do not.
 */
std::vector<double>
setupTrials(const Workload &wl, const Args &args, uint64_t records,
            SpeedProbe &probe, Outcome &out)
{
    std::vector<double> setup;
    std::vector<Fingerprint> prints[2];
    for (int i = 0; i < 4; ++i) {
        const int which = i % 2; // 0: seed + 1, 1: seed
        PipelineRun run(wl, args.seed + (which == 0 ? 1 : 0), records,
                        probe, nullptr);
        run.drive(/*warmup_only=*/true);
        setup.push_back(run.setupSeconds());
        prints[which].push_back(run.fingerprint());
    }
    if (!(prints[0][0] == prints[0][1]) || !(prints[1][0] == prints[1][1]))
        out.fail("warm-up runs with equal seeds differ");
    if (prints[0][0].outputs == prints[1][0].outputs)
        out.fail("warm-up runs with different seeds give equal results");
    return setup;
}

/** Compare every window with the reference; count the records lost. */
void
checkOutputs(const Workload &wl, const PipelineRun &run, Outcome &out)
{
    const int64_t t0 = hostNs();
    const WindowOutputs ref = referenceOutputs(wl, run);
    const std::vector<WindowId> bad = mismatchedWindows(
        ref, run.egress().windowRecords(), run.egress().windowChecksums());
    if (!bad.empty()) {
        const auto per = inputPerWindow(run);
        for (WindowId w : bad) {
            auto it = per.find(w);
            out.failed += it == per.end() ? 0 : it->second;
        }
        out.fail(std::to_string(bad.size()) + " of "
                 + std::to_string(ref.size())
                 + " windows differ from the reference (first: window "
                 + std::to_string(bad.front()) + ")");
    }
    note("reference: %zu windows checked, %zu differ (%.2f s)", ref.size(),
         bad.size(), static_cast<double>(hostNs() - t0) / 1e9);
}

} // namespace

void
runPipelineWorkload(const Args &args, const Workload &wl, Outcome &out)
{
    const uint64_t records = wl.records_per_second * args.seconds;
    auto &m = out.metrics;

    SpeedProbe probe;
    std::vector<double> setup;
    if (!args.trace)
        setup = setupTrials(wl, args, records, probe, out);

    const Usage u0 = usageNow();
    PipelineRun run(wl, args.seed, records, probe, nullptr);
    run.drive(false);
    const Usage u1 = usageNow();
    const double speed = probe.factor();

    out.attempted = run.recordsIn();
    setup.push_back(run.setupSeconds());
    const double steady_s = run.steadyProgramSeconds();
    const double wall_s = run.wallSeconds();
    const double gen_s = static_cast<double>(run.benchTime().gen_ns) / 1e9;
    note("records %" PRIu64 " (steady %" PRIu64 "), events %" PRIu64
         ", program %.3f s (steady %.3f s), generator %.3f s = %.1f%% "
         "of wall, reference counting %.3f s, host speed factor %.4f over "
         "%" PRIu64 " probe slices",
         run.recordsIn(), run.steadyRecords(), run.events(),
         run.programSeconds(), steady_s, gen_s, 100.0 * gen_s / wall_s,
         static_cast<double>(run.benchTime().ref_ns) / 1e9, speed,
         probe.slices());

    const std::vector<double> delays = run.delaysMs();
    if (delays.size() < kMinWindows) {
        out.fail("only " + std::to_string(delays.size())
                 + " windows in the steady state; need "
                 + std::to_string(kMinWindows));
    }
    checkOutputs(wl, run, out);

    if (!args.trace) {
        const double mrps =
            static_cast<double>(run.steadyRecords()) / steady_s / 1e6;
        note("raw host_mrps %.4f, setup_s %.6f (median of %zu set-ups); "
             "reported at the nominal host speed",
             mrps, median(setup), setup.size());
        reportAtNominalSpeed(mrps, delays, median(setup), speed, out);
        m["host_peak_rss_mb"] = u1.max_rss_mb;
        return;
    }

    // Traced run: the same program with the telemetry plane installed.
    // Telemetry must not change a single simulated result.
    const double program_ns_per_rec =
        run.programSeconds() * 1e9 / static_cast<double>(run.recordsIn());
    obs::Telemetry tele;
    PipelineRun traced(wl, args.seed, records, probe, &tele);
    traced.drive(false);
    if (!(traced.fingerprint() == run.fingerprint()))
        out.fail("traced run differs from the untraced run");
    addSimCounts(run, out);
    addOperatorSpans(tele, out);
    m["trace.overhead_frac"] =
        traced.programSeconds() / run.programSeconds() - 1.0;

    m["host.program_ns_per_rec"] = program_ns_per_rec;
    m["host.speed_factor"] = speed;
    m["host.cpu_per_wall"] = (u1.cpu_s - u0.cpu_s) / wall_s;
    m["mem.minor_faults"] =
        static_cast<double>(u1.minor_faults - u0.minor_faults);
    m["ingest.gen_ns_per_rec"] =
        static_cast<double>(run.benchTime().gen_ns)
        / static_cast<double>(run.recordsIn());

    // Replay at the measured event-time density of the run's windows.
    const size_t streams = run.fillsB() != nullptr ? 2 : 1;
    const double windows =
        static_cast<double>(run.fillsA().back().t1)
        / static_cast<double>(run.config().window_ns);
    ReplayStream rs;
    rs.qc = run.config();
    rs.bundle_records = run.config().bundle_records;
    rs.records = std::min<uint64_t>(run.recordsIn(), 4'000'000);
    rs.records_per_window = static_cast<double>(run.recordsIn())
                            / static_cast<double>(streams) / windows;
    // The generators are already outside the program time here.
    addKernelRows(replayKernels({rs}, wl.host_threads), program_ns_per_rec,
                  0.0, out);
}

} // namespace pb
