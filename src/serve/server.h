/**
 * @file
 * The multi-tenant serving layer's composition root: a fleet of
 * engine shards, many sessions.
 *
 * A Server owns an EngineFleet — engine shards, each a full
 * runtime::Engine (its own simulated machine, hybrid memory and
 * executor; each session's fair-share weight is set on its shard's
 * executor), co-simulated in one global time-ordered event loop
 * (engine_fleet.h) — and the fleet-wide admission controller
 * (TenantRegistry), which places every admitted session by its load
 * vector onto the least-loaded shard under per-shard slices of the
 * global HBM budget. Sessions are submitted up front (a
 * deterministic replay of an arrival schedule); run() offers each to
 * the admission controller at its arrival time, and leaves one
 * TenantReport per session: throughput, watermark-latency percentiles
 * against the SLA, per-tenant cost totals (the determinism audit),
 * fair-share service counts, and the shard the session ran on.
 *
 * Every session goes through one lifecycle: the registry admits it
 * (on arrival, or again after a crash), launch() starts it on its
 * placement shard (first start, or a restart when the session is
 * recovering), accumulate() settles each of its segments into the
 * report, and it ends in finish() (drained) or lose() (crashed with
 * no logical time to replay). A session leaves a shard only when that
 * shard crashes, and a dead shard never takes a session again, so a
 * segment's shard-local counters are its own.
 *
 * Everything is keyed on tenant ids, never on submission order:
 * arrival events are scheduled in id order (ties at equal arrival
 * times break by id), per-tenant seeds derive from the id, and the
 * fair scheduler tie-breaks by id — so per-tenant results are
 * bit-identical no matter the order sessions were submitted in. With
 * shards == 1 (the default) the co-simulation degenerates to the
 * single machine's run() loop and every output is byte-identical to
 * the single-engine server.
 *
 * Fault tolerance (ServeConfig::fault) layers three mechanisms on
 * the same invariants: a deterministic plan of shard crashes armed on
 * the control-plane machine; watermark-aligned per-session
 * checkpoints (quiesce → snapshot operator state → charge the copy
 * traffic); and shard failover (kRecoveryDelay after a crash, the
 * registry re-admits the shard's sessions ahead of every waiting
 * arrival, and each restarts on a survivor from its last checkpoint
 * and replays its source past the cut under logical event time —
 * recovered output is bit-identical to a fault-free run). A recovery
 * that finds no room waits, as an arrival does, until a release makes
 * room. A session resumes at one point,
 * the checkpoint's record offset and first uncommitted window (or the
 * stream's start for a scratch restart); output below that window is
 * committed and the replay never reaches it, so nothing is delivered
 * twice. Sessions run single-stream queries only (see tenant.h): the
 * server refuses a two-stream query, which it could not recover.
 *
 * Memory pressure is met by the balance knob's placement, spill and
 * back-pressure alone, never by dropping work: running out of
 * simulated DRAM is fatal in every mode, so size DRAM and the
 * in-flight budgets for the load. At drain every live shard's HBM and
 * DRAM gauges, and every shard's admission gauge, are back at zero
 * (run() asserts it). With telemetry installed, the
 * server records every firing as a "fault" instant, and every crash,
 * recovery and loss as a "recovery" instant, on the trace sink
 * — the reproducibility fingerprint; without telemetry neither is
 * recorded.
 */

#ifndef SBHBM_SERVE_SERVER_H
#define SBHBM_SERVE_SERVER_H

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "common/units.h"
#include "obs/trace.h"
#include "runtime/engine.h"
#include "serve/checkpoint.h"
#include "serve/engine_fleet.h"
#include "serve/tenant.h"
#include "serve/tenant_registry.h"
#include "sim/fault_plan.h"

namespace sbhbm::serve {

/**
 * Fault-tolerance knobs. The fault plan itself is deterministic (a
 * seeded schedule of virtual-time shard crashes), so a chaos run is
 * exactly as reproducible as a fault-free one: same plan, same seed,
 * same bits. Both default off.
 */
struct FaultToleranceConfig
{
    /** The crash schedule (explicit or FaultPlan::scatter); empty
     *  injects nothing. */
    sim::FaultPlan plan;

    /**
     * Checkpoint cadence per session, virtual ns; 0 disables
     * checkpointing (crashed sessions then recover by
     * scratch-restart). Each checkpoint briefly quiesces the session
     * (pause source, drain in-flight work) so the cut is exact.
     */
    SimTime checkpoint_period = 0;
};

// Fixed fault-tolerance timing. Checkpoints are always incremental
// (unchanged runs are reused from the previous cut without a copy
// charge).

/** Poll interval while waiting for checkpoint quiescence. */
constexpr SimTime kQuiescePoll = kNsPerMs / 10;

/** Crash detection + failover latency before a crashed shard's
 *  sessions are re-admitted. */
constexpr SimTime kRecoveryDelay = kNsPerMs;

/** Serving-layer configuration. */
struct ServeConfig
{
    /**
     * The per-shard engine template. max_inflight_bundles is the
     * per-machine ceiling on top of the per-tenant budgets — size it
     * to at least the sum of concurrent tenants' budgets or the
     * global limit becomes the binding constraint. host_threads is
     * the whole server's host pool; each shard gets an equal slice.
     */
    runtime::EngineConfig engine;

    /** Window length every session's pipeline uses. */
    SimTime window_ns = 100 * kNsPerMs;

    /**
     * Admission limits. An hbm_budget_bytes of 0 derives the default:
     * half of one shard machine's HBM (DRAM when the machine has
     * none) times the shard count. Headroom is the sum of static
     * reservations. The budget divides evenly over `shards` below.
     */
    AdmissionConfig admission{0, 64, 64};

    /** Engine shards; 1 reproduces the single-engine server. */
    uint32_t shards = 1;

    /** Shard-crash injection, checkpointing and failover. */
    FaultToleranceConfig fault;

    /**
     * The telemetry plane: the one trace sink every layer records on
     * (caller-owned; must outlive the server). Installing one threads
     * it through every shard engine, executor, monitor and the fault /
     * recovery path, whose instants are recorded nowhere else. Null
     * (the default) disables all recording and keeps every output
     * bit-identical to the uninstrumented build.
     */
    obs::Telemetry *telemetry = nullptr;
};

/** What one session did, filled when it drains. */
struct TenantReport
{
    TenantSpec spec;
    Admission admission = Admission::kRejected;
    bool was_queued = false; //!< waited before admission

    SimTime started_at = 0;
    SimTime finished_at = 0;

    uint64_t records = 0;
    uint64_t output_records = 0;
    double throughput_mrps = 0; //!< records / active session seconds

    /** Watermark latency vs the SLA target. */
    uint64_t windows = 0;
    uint64_t sla_violations = 0;
    double p50_s = 0;
    double p99_s = 0;

    /** Raw per-window latencies (seconds) for pooled percentiles. */
    std::vector<double> latency_samples;

    /** Per-tenant cost totals (the determinism anchors). */
    uint64_t tasks = 0;
    double cpu_ns = 0;
    uint64_t hbm_bytes = 0;
    uint64_t dram_bytes = 0;

    /** Task slots granted by the fair scheduler. */
    uint64_t served_slots = 0;

    /** Peak charged HBM occupancy of this tenant's KPAs, bytes. */
    uint64_t hbm_peak_bytes = 0;

    /** Shard the session (last) ran on. */
    uint32_t shard = 0;

    /** Cross-shard migrations of the live session. The server moves
     *  sessions only through failover (counted in recoveries), so
     *  this reads 0; it stays for report readers. */
    uint32_t migrations = 0;

    // Fault-tolerance accounting.

    /** Shard-death episodes the session lived through. */
    uint32_t crashes = 0;

    /** Successful failovers (crash → restart on a live shard). */
    uint32_t recoveries = 0;

    /** Crashed and could not be recovered (no logical time). */
    bool lost = false;

    /** Total virtual time spent dead (crash → restart), including
     *  any wait for a shard with room. */
    SimTime downtime_ns = 0;

    /** Records re-ingested past a checkpoint during recovery; the
     *  server asserts records == offered + replayed for every
     *  drained session. */
    uint64_t records_replayed = 0;

    /** Records consumed but dropped: always 0, since no fault drops
     *  records. perfbench still reports it. */
    uint64_t records_shed = 0;

    /** Checkpoints captured, and their copy/reuse byte totals. */
    uint64_t checkpoints = 0;
    uint64_t checkpoint_copied_bytes = 0;
    uint64_t checkpoint_reused_bytes = 0;

    // SLA breach attribution (ns, indexed by StallCause).

    /** Total per-window latency decomposed by cause; the five
     *  components sum exactly to the measured watermark latency. */
    double attribution_ns[kStallCauses] = {};

    /** The same decomposition over SLA-violating windows only. */
    double breach_attribution_ns[kStallCauses] = {};

    /** What mostly made the violating windows late. */
    StallCause dominant_cause = StallCause::kCompute;

    /**
     * Exactly-once delivered output per window: result-record counts
     * and order-insensitive content checksums, merged across
     * segments. Output commits at checkpoint cuts (a transactional
     * sink): when a shard crashes, the dead segment's uncommitted
     * windows are rolled back here and redelivered whole by the
     * recovered incarnation — so after any number of injected
     * crashes these maps are bit-identical to a fault-free run's.
     * (Latency/window *observations* are not rolled back: a replayed
     * window was genuinely externalized twice.)
     */
    std::map<columnar::WindowId, uint64_t> window_records;
    std::map<columnar::WindowId, uint64_t> window_checksums;
};

/** A fleet of engine shards serving N tenants. */
class Server
{
  public:
    explicit Server(ServeConfig cfg)
        : cfg_(fillDefaults(std::move(cfg))),
          fleet_(cfg_.engine, cfg_.shards, cfg_.telemetry),
          registry_(cfg_.admission, cfg_.shards)
    {
    }

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Register a session (before run()); arrival happens at
     *  spec.arrives_at in virtual time. */
    void
    submit(TenantSpec spec)
    {
        sbhbm_assert(!ran_, "submit after run");
        sbhbm_assert(spec.id != 0, "tenant id 0 is reserved");
        pending_.push_back(std::move(spec));
    }

    /** Submit a whole fleet (the load driver's output). */
    void
    submitFleet(std::vector<TenantSpec> fleet)
    {
        for (auto &t : fleet)
            submit(std::move(t));
    }

    /** Drive every session to completion; fills the reports. */
    void
    run()
    {
        sbhbm_assert(!ran_, "run() called twice");
        ran_ = true;

        // Canonical order: everything below keys on ids, so results
        // cannot depend on the order submit() was called in.
        std::sort(pending_.begin(), pending_.end(),
                  [](const TenantSpec &a, const TenantSpec &b) {
                      return a.id < b.id;
                  });
        for (size_t i = 1; i < pending_.size(); ++i) {
            sbhbm_assert(pending_[i - 1].id != pending_[i].id,
                         "duplicate tenant id %u", pending_[i].id);
        }
        // Arrivals land on the control-plane machine; the admission
        // controller then places each admit on its shard.
        for (const TenantSpec &spec : pending_) {
            TenantReport rep;
            rep.spec = spec;
            reports_[spec.id] = rep;
            fleet_.control().atOrNow(spec.arrives_at,
                                     [this, spec] { arrive(spec); });
        }

        for (uint32_t s = 0; s < fleet_.size(); ++s)
            fleet_.engine(s).monitor().start();
        // Crashes fire on the control-plane machine (the
        // globally-earliest event when they do), so onFault may syncTo
        // any shard before acting on it. Its event queue fires them by
        // time, ties in plan order. Daemon events: faults never keep
        // an otherwise-finished run alive.
        for (const sim::FaultEvent &e : cfg_.fault.plan.events) {
            fleet_.control().at(
                e.at, [this, e] { onFault(e); }, /*daemon=*/true);
        }
        fleet_.run();

        for (uint32_t s = 0; s < fleet_.size(); ++s)
            sbhbm_assert(fleet_[s].tenants.empty(),
                         "sessions still running at drain");
        sbhbm_assert(registry_.queued() == 0,
                     "sessions still waiting at drain");
        sbhbm_assert(recovering_.empty(),
                     "failovers still pending at drain");
        // Every session freed what it allocated and handed its
        // reservation back. A crashed shard is exempt from the tier
        // check: it keeps what was in flight when it died.
        for (uint32_t s = 0; s < fleet_.size(); ++s) {
            const mem::HybridMemory &hm = fleet_.engine(s).memory();
            const uint64_t hbm = hm.gauge(mem::Tier::kHbm).used();
            const uint64_t dram = hm.gauge(mem::Tier::kDram).used();
            sbhbm_assert(registry_.shardDown(s) || (hbm == 0 && dram == 0),
                         "shard %u holds %llu HBM + %llu DRAM bytes at"
                         " drain",
                         s, (unsigned long long)hbm,
                         (unsigned long long)dram);
            sbhbm_assert(registry_.gauge(s).used() == 0,
                         "shard %u admission gauge holds %llu bytes at"
                         " drain",
                         s, (unsigned long long)registry_.gauge(s).used());
        }

        report_list_.clear();
        for (auto &[id, rep] : reports_)
            report_list_.push_back(rep);
    }

    /** Per-session reports, in tenant-id order (after run()). */
    const std::vector<TenantReport> &reports() const
    {
        return report_list_;
    }

    runtime::Engine &engine(uint32_t s) { return fleet_.engine(s); }
    uint32_t shardCount() const { return fleet_.size(); }
    const ServeConfig &config() const { return cfg_; }
    const TenantRegistry &registry() const { return registry_; }

    /**
     * Jain index over weight-normalized service (tasks completed /
     * weight) of the sessions that ran: 1.0 = perfectly
     * weighted-fair. Computed from the executors' per-stream totals,
     * not the FairScheduler's counters, so it measures the service
     * sessions actually received.
     */
    double
    fairnessIndex() const
    {
        std::vector<double> shares;
        for (const auto &rep : report_list_) {
            if (rep.admission == Admission::kAdmitted
                && rep.tasks > 0) {
                shares.push_back(static_cast<double>(rep.tasks)
                                 / rep.spec.weight);
            }
        }
        return runtime::jainIndex(shares);
    }

    /** Aggregate throughput: all records / serving makespan. */
    double
    aggregateMrps() const
    {
        uint64_t records = 0;
        SimTime t0 = kSimTimeNever, t1 = 0;
        for (const auto &rep : report_list_) {
            if (rep.admission != Admission::kAdmitted)
                continue;
            records += rep.records;
            t0 = std::min(t0, rep.started_at);
            t1 = std::max(t1, rep.finished_at);
        }
        const double sec = t1 > t0 ? simToSeconds(t1 - t0) : 0.0;
        return sec > 0 ? static_cast<double>(records) / sec / 1e6 : 0.0;
    }

    /** Is shard @p s dead (crashed by an injected fault)? */
    bool shardDead(uint32_t s) const { return registry_.shardDown(s); }

  private:
    /** How a crashed session restarts once the registry places it. */
    struct PendingRecovery
    {
        SimTime crashed_at = 0;
        ResumePoint resume;    //!< the cut (zero: scratch restart)
        uint64_t replay = 0;   //!< records the replay will repeat
        bool use_checkpoint = false;
    };

    static ServeConfig
    fillDefaults(ServeConfig cfg)
    {
        sbhbm_assert(cfg.shards >= 1, "server needs >= 1 shard");
        // Shard 0 hosts the control plane (modelled as replicated)
        // and never crashes; a plan must name shards the fleet has.
        for (const sim::FaultEvent &e : cfg.fault.plan.events) {
            if (e.shard == 0 || e.shard >= cfg.shards)
                sbhbm_fatal("fault plan: the crash at %llu ns names shard"
                            " %u, outside the crashable shards [1, %u)",
                            (unsigned long long)e.at, e.shard,
                            cfg.shards);
        }
        if (cfg.admission.hbm_budget_bytes == 0) {
            // Budget over the tier sessions actually allocate on.
            // Every shard brings its own machine, so the fleet budget
            // scales with the count.
            const auto &m = cfg.engine.machine;
            const uint64_t pool =
                m.tier(mem::stateTier(m, cfg.engine.mode)).capacity_bytes;
            cfg.admission.hbm_budget_bytes =
                std::max<uint64_t>(1, pool / 2) * cfg.shards;
        }
        return cfg;
    }

    /** Per-tenant workload seed: explicit, or derived from the id. */
    uint64_t
    seedFor(const TenantSpec &spec) const
    {
        if (spec.seed != 0)
            return spec.seed;
        return cfg_.engine.seed
               ^ (0x9e3779b97f4a7c15ULL * (uint64_t{spec.id} + 1));
    }

    void
    arrive(const TenantSpec &spec)
    {
        const Admission a = registry_.offer(spec);
        TenantReport &rep = reports_[spec.id];
        rep.admission = a;
        const SimTime now = fleet_.control().now();
        if (obs::Telemetry *tp = cfg_.telemetry) {
            const char *verdict = a == Admission::kAdmitted ? "admit"
                                  : a == Admission::kQueued ? "queue"
                                                            : "reject";
            const uint32_t shard = a == Admission::kAdmitted
                                       ? registry_.shardOf(spec.id)
                                       : 0;
            tp->trace.instant(now, shard, spec.id, "admission", verdict,
                              {{"hbm_reserve", spec.hbm_reserve_bytes}});
        }
        switch (a) {
          case Admission::kAdmitted:
            launch(registry_.shardOf(spec.id), spec, now);
            break;
          case Admission::kQueued:
            rep.was_queued = true;
            break;
          case Admission::kRejected:
            break;
        }
    }

    /**
     * Launch session @p spec on shard @p s at global time @p now: its
     * first start, or — for a recovering session — its restart at its
     * resume point, from its checkpoint (or from scratch), with its
     * outage and replay count. Callers hold the co-sim invariant (they
     * are inside the globally-earliest event), so syncing s's clock
     * forward is legal. The target shard never ran the session (see
     * the file comment), so its per-stream counters start at zero for
     * this segment.
     */
    void
    launch(uint32_t s, const TenantSpec &spec, SimTime now)
    {
        EngineShard &sh = fleet_[s];
        runtime::Engine &eng = sh.eng;
        eng.machine().syncTo(now);
        sbhbm_assert(eng.exec().allStreamStats().count(spec.id) == 0,
                     "tenant %u relaunched on shard %u, which ran it",
                     spec.id, s);
        TenantReport &rep = reports_[spec.id];
        rep.shard = s;
        const auto it = recovering_.find(spec.id);
        const PendingRecovery *pr =
            it != recovering_.end() ? &it->second : nullptr;

        auto tenant = std::make_unique<Tenant>(
            eng, spec, cfg_.window_ns, seedFor(spec),
            pr != nullptr ? pr->resume : ResumePoint{});
        Tenant &t = *tenant;
        if (pr != nullptr && pr->use_checkpoint)
            t.restoreFrom(ckpts_.at(spec.id));
        sh.tenants[spec.id] = std::move(tenant);
        eng.exec().scheduler().setWeight(spec.id, spec.weight);
        t.start();
        if (pr == nullptr) {
            rep.started_at = t.startedAt();
        } else {
            // The downtime lands in the fresh tracker's recovery
            // delta at its next observe.
            t.sla().noteOutage(now - pr->crashed_at);
            ++rep.recoveries;
            rep.records_replayed += pr->replay;
            trace("t=%llu recover tenant=%u shard=%u mode=%s pos=%llu"
                  " window=%llu replay=%llu",
                  (unsigned long long)now, spec.id, s,
                  pr->use_checkpoint ? "checkpoint" : "scratch",
                  (unsigned long long)pr->resume.record,
                  (unsigned long long)pr->resume.window,
                  (unsigned long long)pr->replay);
            recovering_.erase(it);
        }
        eng.machine().after(kNsPerMs,
                            [this, s, id = spec.id] { poll(s, id); });
        if (cfg_.fault.checkpoint_period > 0 && spec.logical_time)
            scheduleCheckpoint(s, spec.id);
    }

    /** Launch every session the registry just admitted, each on its
     *  placement shard, at global time @p now. */
    void
    launchAdmitted(const std::vector<TenantSpec> &admitted, SimTime now)
    {
        for (const TenantSpec &next : admitted)
            launch(registry_.shardOf(next.id), next, now);
    }

    void
    poll(uint32_t s, runtime::StreamId id)
    {
        EngineShard &sh = fleet_[s];
        auto it = sh.tenants.find(id);
        if (it == sh.tenants.end())
            return; // session crashed off this shard mid-poll
        Tenant &t = *it->second;
        t.sla().observe(t.pipe(), t.stallSnapshot());
        if (!t.drained()) {
            sh.eng.machine().after(kNsPerMs,
                                   [this, s, id] { poll(s, id); });
            return;
        }
        finish(s, id, t);
    }

    /** Every window: the commit horizon of a segment that drained
     *  normally (nothing to roll back). */
    static constexpr columnar::WindowId kAllWindows =
        ~columnar::WindowId{0};

    /**
     * Fold a drained segment on shard @p s into the report. Output
     * delivery is transactional: only windows below @p commit_before
     * count as delivered. A normal drain commits everything; a crash
     * passes its last checkpoint cut (or 0 for scratch-restart), so
     * the uncommitted suffix is rolled back and redelivered whole by
     * the recovered incarnation — never split across a mid-emission
     * crash boundary. A recovered segment never delivers a window
     * below its resume point: those were committed before the crash.
     */
    void
    accumulate(uint32_t s, runtime::StreamId id, Tenant &t,
               columnar::WindowId commit_before = kAllWindows)
    {
        runtime::Engine &eng = fleet_.engine(s);
        t.sla().observe(t.pipe(), t.stallSnapshot());
        TenantReport &rep = reports_[id];
        rep.records += t.recordsIngested();

        const auto &wrec = t.egress().windowRecords();
        const auto &wsum = t.egress().windowChecksums();
        sbhbm_assert(wrec.empty()
                         || wrec.begin()->first >= t.resume().window,
                     "tenant %u delivered window %llu below its resume"
                     " window %llu",
                     id, (unsigned long long)wrec.begin()->first,
                     (unsigned long long)t.resume().window);
        uint64_t committed = 0;
        for (const auto &[w, n] : wrec) {
            if (w >= commit_before)
                continue; // uncommitted: the recovery redelivers it
            rep.window_records[w] += n;
            if (auto cs = wsum.find(w); cs != wsum.end())
                rep.window_checksums[w] += cs->second;
            committed += n;
        }
        rep.output_records += commit_before == kAllWindows
                                  ? t.outputRecords()
                                  : committed;

        const SlaTracker &sla = t.sla();
        rep.windows += sla.windows();
        rep.sla_violations += sla.violations();
        for (double v : sla.latencies().samples())
            rep.latency_samples.push_back(v);

        // The shard never ran another segment of this stream (see
        // the file comment): its per-stream totals are this segment's.
        const auto &ss = eng.exec().streamStats(id);
        rep.tasks += ss.completed;
        rep.cpu_ns += ss.cpu_ns;
        rep.hbm_bytes += ss.hbm_bytes;
        rep.dram_bytes += ss.dram_bytes;
        rep.served_slots += eng.exec().scheduler().served(id);

        rep.hbm_peak_bytes = std::max(rep.hbm_peak_bytes,
                                      eng.memory().streamHbmHighWater(id));

        // Fault-tolerance accounting for this segment.
        rep.downtime_ns += sla.downtimeNs();

        // Breach attribution: fold the segment tracker's decomposed
        // latency into the report (a recovered session sums its
        // segments; components still sum to total latency).
        for (uint32_t c = 0; c < kStallCauses; ++c) {
            const auto cause = static_cast<StallCause>(c);
            rep.attribution_ns[c] += sla.componentNs(cause);
            rep.breach_attribution_ns[c] += sla.breachNs(cause);
        }
    }

    /** Tear a session's shard-local state down after a drain. */
    void
    teardown(uint32_t s, runtime::StreamId id)
    {
        EngineShard &sh = fleet_[s];
        sh.tenants.erase(id);
        sh.eng.setStreamBudget(id, 0);
    }

    void
    finish(uint32_t s, runtime::StreamId id, Tenant &t)
    {
        const SimTime now = fleet_.engine(s).machine().now();
        TenantReport &rep = reports_[id];
        const uint64_t offered = rep.spec.total_records;
        accumulate(s, id, t);
        teardown(s, id); // destroys t
        ckpts_.erase(id);

        // Record conservation: every offered record was ingested, and
        // recovery replays re-ingest on top.
        sbhbm_assert(rep.records == offered + rep.records_replayed,
                     "tenant %u: ingested %llu != offered %llu +"
                     " replayed %llu",
                     id, (unsigned long long)rep.records,
                     (unsigned long long)offered,
                     (unsigned long long)rep.records_replayed);

        rep.admission = Admission::kAdmitted;
        rep.finished_at = now;
        const double sec = simToSeconds(rep.finished_at - rep.started_at);
        rep.throughput_mrps =
            sec > 0 ? static_cast<double>(rep.records) / sec / 1e6 : 0.0;
        // Percentiles over the pooled per-window samples: for the
        // single-segment session this is the SLA tracker's own
        // SampleSet math on the same values, bit for bit.
        SampleSet pooled;
        for (double v : rep.latency_samples)
            pooled.add(v);
        rep.p50_s = pooled.percentile(50);
        rep.p99_s = pooled.percentile(99);

        // Name what mostly made violating windows late, over every
        // segment of the session.
        rep.dominant_cause = dominantCause(rep.breach_attribution_ns);

        // Hand the reservation back — which may admit waiting
        // sessions right now, at this virtual time, on any shard.
        launchAdmitted(registry_.release(id), now);
    }

    /**
     * Declare crashed session @p id lost at @p now: without logical
     * event time its replay could not reproduce the original
     * timestamps. It keeps what it delivered, and its released
     * reservation admits waiters.
     */
    void
    lose(runtime::StreamId id, SimTime now)
    {
        TenantReport &rep = reports_[id];
        rep.lost = true;
        rep.finished_at = now;
        trace("t=%llu lost tenant=%u (unrecoverable)",
              (unsigned long long)now, id);
        launchAdmitted(registry_.release(id), now);
    }

    // ---------------------------------------------------------------
    // Fault tolerance: crash injection, failover, checkpointing.
    // ---------------------------------------------------------------

    /** Record one deterministic "recovery" instant on the trace sink
     *  (nothing without telemetry installed). */
    void
    trace(const char *fmt, ...)
    {
        if (cfg_.telemetry == nullptr)
            return;
        char buf[192];
        va_list ap;
        va_start(ap, fmt);
        vsnprintf(buf, sizeof(buf), fmt, ap);
        va_end(ap);
        cfg_.telemetry->trace.instant(fleet_.control().now(), 0, 0,
                                      "recovery", buf);
    }

    /**
     * Fire one planned shard crash. Fires on the control-plane machine
     * inside the globally-earliest event, so crashShard may sync any
     * shard forward. With telemetry installed, records the firing as
     * a "fault" instant on the shard's track first.
     */
    void
    onFault(const sim::FaultEvent &e)
    {
        if (obs::Telemetry *tp = cfg_.telemetry)
            tp->trace.instant(e.at, e.shard, 0, "fault", "shard-crash");
        crashShard(e.shard);
    }

    /**
     * Kill shard @p s (never shard 0: the constructor checks the
     * plan): halt every resident session's source, settle their
     * metrics at the crash instant, and hand the recoverable ones back
     * to the registry kRecoveryDelay later, ahead of every waiting
     * arrival. The dead engine's event queue is NOT cleared —
     * in-flight (zombie) work drains naturally, since bandwidth-flow
     * callbacks keep task state alive — but its output is no longer
     * observed, and the shard takes no new sessions forever after.
     */
    void
    crashShard(uint32_t s)
    {
        if (registry_.shardDown(s))
            return;
        EngineShard &sh = fleet_[s];
        const SimTime now = fleet_.control().now();
        sh.eng.machine().syncTo(now);
        registry_.setShardDown(s);

        auto victims = std::move(sh.tenants);
        sh.tenants.clear();
        trace("t=%llu crash shard=%u sessions=%zu",
              (unsigned long long)now, s, victims.size());
        std::vector<TenantSpec> restart; // in id order, as victims is
        for (auto &[id, dead] : victims) {
            Tenant &t = *dead;
            t.source().halt();

            TenantReport &rep = reports_[id];
            ++rep.crashes;
            const uint64_t position = t.source().streamPosition();
            // Only logical-time sessions checkpoint (launch), so a
            // restorable cut implies a recoverable session.
            const bool recoverable = rep.spec.logical_time;
            const auto ck = ckpts_.find(id);
            const bool use_ck =
                ck != ckpts_.end() && ck->second.restorable;
            sbhbm_assert(!use_ck || ck->second.position <= position,
                         "tenant %u: checkpoint at %llu past its crash"
                         " position %llu",
                         id, (unsigned long long)ck->second.position,
                         (unsigned long long)position);
            // The resume point: the checkpoint's cut, or the stream's
            // start for a scratch restart.
            PendingRecovery pr;
            pr.crashed_at = now;
            pr.use_checkpoint = use_ck;
            if (use_ck)
                pr.resume = {ck->second.position, ck->second.next_close};
            pr.replay = position - pr.resume.record;
            // The transactional-sink cut: output at or past the
            // resume window is uncommitted — rolled back from the
            // report and redelivered by the recovery. Unrecoverable
            // sessions keep everything they managed to deliver.
            accumulate(s, id, t,
                       recoverable ? pr.resume.window : kAllWindows);
            fleet_.bury(std::move(dead));
            if (!recoverable) {
                // Physical-time sessions cannot replay bit-identically.
                lose(id, now);
                continue;
            }
            recovering_[id] = pr;
            restart.push_back(rep.spec);
        }
        if (restart.empty())
            return;
        // Non-daemon: a pending failover is live work — the fleet
        // must not drain out from under it.
        fleet_.control().after(kRecoveryDelay, [this, restart] {
            launchAdmitted(registry_.readmit(restart),
                           fleet_.control().now());
        });
    }

    void
    scheduleCheckpoint(uint32_t s, runtime::StreamId id)
    {
        // Daemon: the periodic cadence never keeps a drained fleet
        // alive; a checkpoint in progress (quiesceWait) does.
        fleet_.engine(s).machine().after(
            cfg_.fault.checkpoint_period,
            [this, s, id] { checkpointTick(s, id); },
            /*daemon=*/true);
    }

    /** Begin one checkpoint: pause the source, then wait for full
     *  quiescence so the cut is exact. */
    void
    checkpointTick(uint32_t s, runtime::StreamId id)
    {
        EngineShard &sh = fleet_[s];
        auto it = sh.tenants.find(id);
        if (it == sh.tenants.end())
            return; // drained or crashed
        it->second->source().pause();
        quiesceWait(s, id, sh.eng.machine().now());
    }

    void
    quiesceWait(uint32_t s, runtime::StreamId id, SimTime began)
    {
        EngineShard &sh = fleet_[s];
        auto it = sh.tenants.find(id);
        if (it == sh.tenants.end())
            return; // crashed mid-quiesce (halt() clears the pause)
        Tenant &t = *it->second;
        if (!t.quiesced()) {
            // Non-daemon: an in-progress cut holds the fleet until it
            // lands and the source resumes.
            sh.eng.machine().after(
                kQuiescePoll,
                [this, s, id, began] { quiesceWait(s, id, began); });
            return;
        }
        sim::CostLog log;
        const auto prev = ckpts_.find(id);
        TenantCheckpoint c = t.capture(
            prev == ckpts_.end() ? nullptr : &prev->second, log);
        TenantReport &rep = reports_[id];
        ++rep.checkpoints;
        rep.checkpoint_copied_bytes += c.copiedBytes();
        rep.checkpoint_reused_bytes += c.reusedBytes();
        if (obs::Telemetry *tp = cfg_.telemetry) {
            // The span covers pause -> quiesce -> capture; the copy
            // charge runs on after it DMA-style.
            tp->trace.span(began, sh.eng.machine().now() - began, s,
                           id, "checkpoint", "checkpoint",
                           {{"copied_bytes", c.copiedBytes()},
                            {"reused_bytes", c.reusedBytes()},
                            {"position", c.position}});
        }
        // Copy traffic is real work on the shard: charge it through
        // the machine DMA-style, without occupying a core slot.
        sh.eng.machine().execute(std::move(log), [] {});
        ckpts_.insert_or_assign(id, std::move(c));
        t.source().resume();
        scheduleCheckpoint(s, id);
    }

    ServeConfig cfg_;
    EngineFleet fleet_;
    TenantRegistry registry_;
    std::vector<TenantSpec> pending_;
    std::map<runtime::StreamId, TenantReport> reports_;
    std::vector<TenantReport> report_list_;
    bool ran_ = false;

    /** Each crashed session from its crash until its restart. */
    std::map<runtime::StreamId, PendingRecovery> recovering_;

    /** Each live session's latest checkpoint (erased at drain). */
    std::map<runtime::StreamId, TenantCheckpoint> ckpts_;
};

} // namespace sbhbm::serve

#endif // SBHBM_SERVE_SERVER_H
