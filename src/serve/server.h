/**
 * @file
 * The multi-tenant serving layer's composition root: a fleet of
 * engine shards, many sessions.
 *
 * A Server owns an array of EngineShards — each one a full
 * runtime::Engine (its own simulated machine, hybrid memory, executor
 * and pressure director; each session's fair-share weight is set on
 * its shard's executor) — and the fleet-wide admission controller
 * (TenantRegistry), which places every admitted session by its load
 * vector onto the least-loaded shard under per-shard slices of the
 * global HBM budget. Sessions are submitted up front (a deterministic
 * replay of an arrival schedule); run() offers each to the admission
 * controller at its arrival time, starts admitted sessions on their
 * placement shard, drives every shard's event loop in one global
 * time-ordered co-simulation, and leaves one TenantReport per
 * session: throughput, watermark-latency percentiles against the SLA,
 * per-tenant cost totals (the determinism audit), fair-share service
 * counts, and the shard the session ran on.
 *
 * Cross-shard control flow rides on a single causality invariant: the
 * co-simulation always processes the globally-earliest pending event,
 * so inside any event at time t every other shard's clock is at or
 * before t with nothing pending earlier — Machine::syncTo(t) is
 * always legal before acting on another shard (placement, failover).
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
 * Fault tolerance (ServeConfig::fault) layers four mechanisms on the
 * same invariants: a deterministic FaultInjector armed on the
 * control-plane machine; watermark-aligned per-session checkpoints
 * (quiesce → snapshot operator state → charge the copy traffic);
 * shard failover (a crashed shard's sessions restart on survivors
 * from their last checkpoint, replay their source past the cut under
 * logical event time, and deduplicate already-delivered windows at
 * the egress — recovered output is bit-identical to a fault-free
 * run); and graceful degradation (typed allocation failures shed
 * tasks instead of aborting, emergency relocation sweeps relieve
 * exhaustion, rejected arrivals retry with backoff, slow shards
 * degrade and recover). With telemetry installed, the injector
 * records every firing as a "fault" instant and the server every
 * fault, crash, recovery and loss as a "recovery" instant on the
 * trace sink — the reproducibility fingerprint; without telemetry
 * neither is recorded.
 */

#ifndef SBHBM_SERVE_SERVER_H
#define SBHBM_SERVE_SERVER_H

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "common/units.h"
#include "obs/trace.h"
#include "runtime/engine.h"
#include "serve/checkpoint.h"
#include "serve/tenant.h"
#include "serve/tenant_registry.h"
#include "sim/fault_injector.h"

namespace sbhbm::serve {

/**
 * Fault-tolerance knobs. The fault plan itself is deterministic (a
 * seeded schedule of virtual-time events), so a chaos run is exactly
 * as reproducible as a fault-free one: same plan, same seed, same
 * bits.
 */
struct FaultToleranceConfig
{
    /** Master switch: injector, checkpointing, failover, recovery. */
    bool enabled = false;

    /** The fault schedule (explicit or FaultPlan::scatter). */
    sim::FaultPlan plan;

    /**
     * Checkpoint cadence per session, virtual ns; 0 disables
     * checkpointing (crashed sessions then recover by
     * scratch-restart). Each checkpoint briefly quiesces the session
     * (pause source, drain in-flight work) so the cut is exact.
     */
    SimTime checkpoint_period = 0;

    /** Re-offer a rejected arrival up to this many times, with
     *  kAdmissionRetryBackoff linear backoff between attempts. */
    uint32_t admission_retries = 0;
};

// Fixed fault-tolerance timing. With fault tolerance enabled,
// checkpoints are always incremental (unchanged runs are reused from
// the previous cut without a copy charge) and allocation exhaustion is
// always typed: an exhausted tier first triggers an emergency
// relocation sweep, and a task whose allocation still fails is shed
// (counted, watermarks released) rather than fatal.

/** Poll interval while waiting for checkpoint quiescence. */
constexpr SimTime kQuiescePoll = kNsPerMs / 10;

/** Crash detection + failover latency before recovery starts. */
constexpr SimTime kRecoveryDelay = kNsPerMs;

/** Recovery placement retries before a session is declared lost
 *  (bounds termination when no live shard ever has headroom). */
constexpr uint32_t kMaxRecoveryAttempts = 64;

/** Linear backoff step between re-offers of a rejected arrival. */
constexpr SimTime kAdmissionRetryBackoff = 20 * kNsPerMs;

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
     * none) times the shard count. admission.mode selects
     * static-reservation vs live-pressure headroom; live mode samples
     * each shard's engine HBM gauge windowed high-water per admission
     * tick. admission.shards is overwritten from `shards` below.
     */
    AdmissionConfig admission{0, 64, 64};

    /**
     * Demote an SLA-breaching tenant's placement class to DRAM-lean
     * (its non-urgent KPAs stop competing for HBM) until its
     * latencies recover — the serving half of the memory control
     * plane's feedback loop.
     */
    bool sla_demotion = false;

    /** Engine shards; 1 reproduces the single-engine server. */
    uint32_t shards = 1;

    /** Fault injection, checkpointing and failover. */
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

    // Memory-control-plane accounting.

    /** Peak charged HBM occupancy of this tenant's KPAs, bytes. */
    uint64_t hbm_peak_bytes = 0;

    /** KPAs / gauge bytes the pressure director demoted to DRAM. */
    uint64_t demoted_kpas = 0;
    uint64_t demoted_bytes = 0;

    /** Times the SLA loop demoted this tenant's placement class. */
    uint64_t sla_demotions = 0;

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

    /** Crashed and could not be recovered (two-stream session, no
     *  logical time, or recovery placement never fit). */
    bool lost = false;

    /** Total virtual time spent dead (crash → restart). */
    SimTime downtime_ns = 0;

    /** Records re-ingested past a checkpoint during recovery; the
     *  conservation identity is records == offered + replayed when
     *  nothing was shed. */
    uint64_t records_replayed = 0;

    /** Records consumed but dropped (injected drops, failed ingest
     *  allocations). */
    uint64_t records_shed = 0;

    /** Tasks shed on allocation failure (graceful exhaustion). */
    uint64_t shed_tasks = 0;

    /** Replayed result records the egress deduplicated. */
    uint64_t suppressed_records = 0;

    /** Checkpoints captured, and their copy/reuse byte totals. */
    uint64_t checkpoints = 0;
    uint64_t checkpoint_copied_bytes = 0;
    uint64_t checkpoint_reused_bytes = 0;

    /** Rejected-arrival retries consumed. */
    uint32_t admission_retries = 0;

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
        : cfg_(fillDefaults(std::move(cfg))), registry_(cfg_.admission)
    {
        shards_.reserve(cfg_.shards);
        shard_dead_.assign(cfg_.shards, false);
        for (uint32_t s = 0; s < cfg_.shards; ++s) {
            runtime::EngineConfig ec = cfg_.engine;
            // Each shard gets an equal slice of the host pool (the
            // wall-clock fork-join threads; simulated cores are per
            // machine and not shared).
            if (ec.host_threads > 0)
                ec.host_threads =
                    std::max(1u, ec.host_threads / cfg_.shards);
            shards_.push_back(std::make_unique<EngineShard>(ec));
            EngineShard &sh = *shards_.back();
            if (cfg_.telemetry != nullptr)
                sh.eng->setTelemetry(cfg_.telemetry, s);
            if (cfg_.fault.enabled)
                sh.eng->enableGracefulExhaustion();
            if (cfg_.admission.mode == AdmissionMode::kLivePressure) {
                // Gauge-aware admission: headroom is the windowed
                // high-water of the tier sessions actually allocate
                // on, not the sum of paper reservations.
                registry_.setLivePressure(s, [this, s] {
                    return shards_[s]
                        ->eng->memory()
                        .gauge(pressureTier())
                        .highWaterSinceMark();
                });
            }
        }
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
        // Arrivals land on shard 0 — the control-plane machine; the
        // admission controller then places each admit on its shard.
        for (const TenantSpec &spec : pending_) {
            TenantReport rep;
            rep.spec = spec;
            reports_[spec.id] = rep;
            shards_[0]->eng->machine().atOrNow(
                spec.arrives_at, [this, spec] { arrive(spec); });
        }

        for (auto &sh : shards_)
            sh->eng->monitor().start();
        if (cfg_.admission.mode == AdmissionMode::kLivePressure)
            admissionTick();
        if (cfg_.fault.enabled && !cfg_.fault.plan.empty()) {
            // Faults fire on the control-plane machine (the
            // globally-earliest event when they do), so handlers may
            // syncTo any shard before acting on it.
            injector_ = std::make_unique<sim::FaultInjector>(
                shards_[0]->eng->machine(), cfg_.fault.plan,
                [this](const sim::FaultEvent &e) { onFault(e); },
                cfg_.telemetry);
            injector_->arm();
        }
        runFleet();

        for (auto &sh : shards_)
            sbhbm_assert(sh->tenants.empty(),
                         "sessions still running at drain");
        sbhbm_assert(registry_.queued() == 0,
                     "sessions still waiting at drain");
        sbhbm_assert(pending_recovery_.empty(),
                     "failovers still pending at drain");

        report_list_.clear();
        for (auto &[id, rep] : reports_)
            report_list_.push_back(rep);
    }

    /** Per-session reports, in tenant-id order (after run()). */
    const std::vector<TenantReport> &reports() const
    {
        return report_list_;
    }

    runtime::Engine &engine() { return *shards_[0]->eng; }
    runtime::Engine &engine(uint32_t s) { return *shards_[s]->eng; }
    uint32_t shardCount() const
    {
        return static_cast<uint32_t>(shards_.size());
    }
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
    bool shardDead(uint32_t s) const { return shard_dead_[s]; }

  private:
    /** One engine plus its shard-local serving state. */
    struct EngineShard
    {
        explicit EngineShard(const runtime::EngineConfig &ec)
            : eng(std::make_unique<runtime::Engine>(ec))
        {
        }

        std::unique_ptr<runtime::Engine> eng;
        std::map<runtime::StreamId, std::unique_ptr<Tenant>> tenants;
        std::map<runtime::StreamId, bool> demoted_class;
    };

    /**
     * A recovered session's report spans segments on several shards;
     * executor and director counters are cumulative per shard, so
     * each segment snapshots its baselines at start and contributes
     * deltas at drain. First segments on a fresh stream have all-zero
     * baselines — the single-shard path is unchanged.
     */
    struct SegmentBase
    {
        uint64_t tasks = 0;
        double cpu_ns = 0;
        uint64_t hbm_bytes = 0;
        uint64_t dram_bytes = 0;
        uint64_t served_slots = 0;
        uint64_t demoted_kpas = 0;
        uint64_t demoted_bytes = 0;
        uint64_t shed_tasks = 0;
    };

    /** A crashed session waiting for a live shard to restart on. */
    struct PendingRecovery
    {
        runtime::StreamId id = 0;
        TenantSpec cont;       //!< continuation spec (resume offset)
        SimTime crashed_at = 0;
        columnar::WindowId dedup_before = 0; //!< committed pre-crash
        uint64_t replay = 0;   //!< records the replay will repeat
        bool use_checkpoint = false;
        uint32_t attempts = 0;
    };

    static ServeConfig
    fillDefaults(ServeConfig cfg)
    {
        sbhbm_assert(cfg.shards >= 1, "server needs >= 1 shard");
        if (cfg.admission.hbm_budget_bytes == 0) {
            // Budget over the tier sessions actually allocate on:
            // HBM only in flat mode (cache / DRAM-only modes place
            // everything in DRAM). Every shard brings its own
            // machine, so the fleet budget scales with the count.
            const auto &m = cfg.engine.machine;
            const uint64_t pool =
                cfg.engine.mode == sim::MemoryMode::kFlat && m.hasHbm()
                    ? m.hbm.capacity_bytes
                    : m.dram.capacity_bytes;
            cfg.admission.hbm_budget_bytes =
                std::max<uint64_t>(1, pool / 2) * cfg.shards;
        }
        cfg.admission.shards = cfg.shards;
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
        if (obs::Telemetry *tp = cfg_.telemetry) {
            const char *verdict = a == Admission::kAdmitted ? "admit"
                                  : a == Admission::kQueued ? "queue"
                                                            : "reject";
            const uint32_t shard = a == Admission::kAdmitted
                                       ? registry_.shardOf(spec.id)
                                       : 0;
            tp->trace.instant(
                shards_[0]->eng->machine().now(), shard, spec.id,
                "admission", verdict,
                {{"hbm_reserve", spec.hbm_reserve_bytes},
                 {"retry", rep.admission_retries}});
        }
        switch (a) {
          case Admission::kAdmitted:
            start(registry_.shardOf(spec.id), spec,
                  shards_[0]->eng->machine().now());
            break;
          case Admission::kQueued:
            rep.was_queued = true;
            break;
          case Admission::kRejected:
            // Graceful degradation: a rejected arrival retries with
            // linear backoff instead of failing outright — a fleet
            // briefly saturated (or degraded by a fault) sheds the
            // arrival in time, not in kind.
            if (cfg_.fault.enabled
                && rep.admission_retries < cfg_.fault.admission_retries) {
                ++rep.admission_retries;
                const SimTime backoff =
                    kAdmissionRetryBackoff * rep.admission_retries;
                shards_[0]->eng->machine().after(
                    backoff, [this, spec] { arrive(spec); });
            }
            break;
        }
    }

    /** Snapshot shard @p s's cumulative counters as the baseline of a
     *  new segment of session @p id. */
    void
    snapSegmentBase(uint32_t s, runtime::StreamId id)
    {
        EngineShard &sh = *shards_[s];
        SegmentBase base;
        const auto &ss = sh.eng->exec().streamStats(id);
        base.tasks = ss.completed;
        base.cpu_ns = ss.cpu_ns;
        base.hbm_bytes = ss.hbm_bytes;
        base.dram_bytes = ss.dram_bytes;
        base.served_slots = sh.eng->exec().scheduler().served(id);
        base.demoted_kpas = sh.eng->director().demotedKpas(id);
        base.demoted_bytes = sh.eng->director().demotedBytes(id);
        base.shed_tasks = ss.shed;
        seg_base_[id] = base;
        reports_[id].shard = s;
    }

    /**
     * Start a newly admitted session on shard @p s at global time
     * @p now. Callers hold the co-sim invariant (they are inside the
     * globally-earliest event), so syncing s's clock forward is legal.
     * A crashed session's later segments start through recover().
     */
    void
    start(uint32_t s, const TenantSpec &spec, SimTime now)
    {
        EngineShard &sh = *shards_[s];
        sh.eng->machine().syncTo(now);
        snapSegmentBase(s, spec.id);

        auto tenant = std::make_unique<Tenant>(
            *sh.eng, spec, cfg_.window_ns, seedFor(spec));
        Tenant &t = *tenant;
        sh.tenants[spec.id] = std::move(tenant);
        sh.eng->exec().scheduler().setWeight(spec.id, spec.weight);
        t.start();
        reports_[spec.id].started_at = t.startedAt();
        // The shard's cumulative stall counters may carry history
        // (earlier segments, other incarnations): attribution for
        // this segment measures growth from here.
        t.sla().primeStalls(t.stallSnapshot());
        sh.eng->machine().after(kNsPerMs,
                                [this, s, id = spec.id] { poll(s, id); });
        if (cfg_.fault.enabled && cfg_.fault.checkpoint_period > 0
            && t.migratable() && spec.logical_time)
            scheduleCheckpoint(s, spec.id);
    }

    /**
     * Periodic admission pump (live-pressure mode only): admit
     * waiters that now fit under the measured pressure, then open a
     * fresh high-water window on every shard's gauge. Daemon-
     * scheduled on the control-plane shard: machines drain when
     * sessions do.
     */
    void
    admissionTick()
    {
        const SimTime now = shards_[0]->eng->machine().now();
        for (const TenantSpec &next : registry_.pumpAdmission())
            start(registry_.shardOf(next.id), next, now);
        for (uint32_t s = 0; s < cfg_.shards; ++s) {
            shards_[s]->eng->memory().markHighWater(pressureTier());
            // The fresh window's sample covers everything admitted up
            // to here: reset the registry's unmeasured-reserve term.
            registry_.noteGaugeMarked(s);
        }
        shards_[0]->eng->machine().after(
            cfg_.engine.monitor_period, [this] { admissionTick(); },
            /*daemon=*/true);
    }

    /** Tier live admission watches: where sessions' KPAs land.
     *  Outside flat mode every allocation is DRAM-resident, so the
     *  HBM gauge would sit at zero forever and live admission would
     *  silently wave everyone through. */
    mem::Tier
    pressureTier() const
    {
        return cfg_.engine.mode == sim::MemoryMode::kFlat
                       && cfg_.engine.machine.hasHbm()
                   ? mem::Tier::kHbm
                   : mem::Tier::kDram;
    }

    /**
     * The global event loop: always step the shard machine with the
     * earliest pending event (ties break on the lowest shard index),
     * until no machine has non-daemon work left — the exact
     * multi-machine generalization of EventQueue::run(), and
     * identical to it at one shard. Daemon events (monitors,
     * admission ticks) keep firing while any shard has live work, so
     * a drained shard's clock keeps pace with the fleet.
     */
    void
    runFleet()
    {
        for (;;) {
            bool any_live = false;
            size_t best = 0;
            SimTime best_t = kSimTimeNever;
            for (size_t s = 0; s < shards_.size(); ++s) {
                sim::Machine &m = shards_[s]->eng->machine();
                any_live = any_live || !m.idle();
                const SimTime t = m.events().nextTime();
                if (t < best_t) {
                    best_t = t;
                    best = s;
                }
            }
            if (!any_live)
                break;
            shards_[best]->eng->machine().step();
        }
    }

    void
    poll(uint32_t s, runtime::StreamId id)
    {
        EngineShard &sh = *shards_[s];
        auto it = sh.tenants.find(id);
        if (it == sh.tenants.end())
            return; // session crashed off this shard mid-poll
        Tenant &t = *it->second;
        t.sla().observe(t.pipe(), t.stallSnapshot());
        if (cfg_.sla_demotion) {
            // SLA feedback into placement: a breaching tenant's
            // non-urgent KPAs go DRAM-lean until it recovers.
            const bool want = t.sla().breached();
            bool &demoted = sh.demoted_class[id];
            if (want != demoted) {
                demoted = want;
                sh.eng->setStreamPlacementClass(
                    id, want ? mem::PlacementClass::kDramLean
                             : mem::PlacementClass::kNormal);
                if (want)
                    ++reports_[id].sla_demotions;
            }
        }
        if (!t.drained()) {
            sh.eng->machine().after(kNsPerMs,
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
     * crash boundary.
     */
    void
    accumulate(uint32_t s, runtime::StreamId id, Tenant &t,
               columnar::WindowId commit_before = kAllWindows)
    {
        EngineShard &sh = *shards_[s];
        t.sla().observe(t.pipe(), t.stallSnapshot());
        TenantReport &rep = reports_[id];
        rep.records += t.recordsIngested();

        const auto &wrec = t.egress().windowRecords();
        const auto &wsum = t.egress().windowChecksums();
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

        const auto &ss = sh.eng->exec().streamStats(id);
        const SegmentBase &base = seg_base_[id];
        rep.tasks += ss.completed - base.tasks;
        rep.cpu_ns += ss.cpu_ns - base.cpu_ns;
        rep.hbm_bytes += ss.hbm_bytes - base.hbm_bytes;
        rep.dram_bytes += ss.dram_bytes - base.dram_bytes;
        rep.served_slots +=
            sh.eng->exec().scheduler().served(id) - base.served_slots;

        rep.hbm_peak_bytes =
            std::max(rep.hbm_peak_bytes,
                     sh.eng->memory().streamHbmHighWater(id));
        rep.demoted_kpas +=
            sh.eng->director().demotedKpas(id) - base.demoted_kpas;
        rep.demoted_bytes +=
            sh.eng->director().demotedBytes(id) - base.demoted_bytes;

        // Fault-tolerance accounting for this segment.
        rep.shed_tasks += ss.shed - base.shed_tasks;
        rep.records_shed += t.recordsShed();
        rep.suppressed_records += t.egress().suppressedRecords();
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
        EngineShard &sh = *shards_[s];
        sh.tenants.erase(id);
        sh.eng->setStreamBudget(id, 0);
        if (cfg_.sla_demotion && sh.demoted_class[id]) {
            sh.eng->setStreamPlacementClass(id,
                                            mem::PlacementClass::kNormal);
            sh.demoted_class[id] = false;
        }
        // A teardown is a step change in usage: restart the pressure
        // window so the departed session's peak does not keep blocking
        // admission until the next tick.
        if (cfg_.admission.mode == AdmissionMode::kLivePressure) {
            sh.eng->memory().markHighWater(pressureTier());
            registry_.noteGaugeMarked(s);
        }
    }

    void
    finish(uint32_t s, runtime::StreamId id, Tenant &t)
    {
        const SimTime now = shards_[s]->eng->machine().now();
        TenantReport &rep = reports_[id];
        accumulate(s, id, t);
        teardown(s, id); // destroys t
        ckpts_.erase(id);

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
        for (const TenantSpec &next : registry_.release(id))
            start(registry_.shardOf(next.id), next, now);
    }

    // ---------------------------------------------------------------
    // Fault tolerance: injection, crash, failover, checkpointing.
    // ---------------------------------------------------------------

    static constexpr uint32_t kNoShard = ~0u;

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
        cfg_.telemetry->trace.instant(shards_[0]->eng->machine().now(),
                                      0, 0, "recovery", buf);
    }

    /** The session @p id currently runs as, wherever it is. */
    Tenant *
    findTenant(runtime::StreamId id)
    {
        for (auto &sh : shards_) {
            auto it = sh->tenants.find(id);
            if (it != sh->tenants.end())
                return it->second.get();
        }
        return nullptr;
    }

    /**
     * Dispatch one injected fault. Fires on the control-plane machine
     * inside the globally-earliest event, so syncing any shard forward
     * before acting on it is legal.
     */
    void
    onFault(const sim::FaultEvent &e)
    {
        const SimTime now = shards_[0]->eng->machine().now();
        trace("t=%llu fault %s shard=%u tenant=%u arg=%llu arg2=%llu",
              (unsigned long long)now, sim::faultKindName(e.kind),
              e.shard, e.tenant, (unsigned long long)e.arg,
              (unsigned long long)e.arg2);
        switch (e.kind) {
          case sim::FaultKind::kShardCrash:
            crashShard(e.shard);
            break;
          case sim::FaultKind::kAllocFail:
            if (e.shard < cfg_.shards && !shard_dead_[e.shard]) {
                shards_[e.shard]->eng->memory().failNextAllocs(
                    static_cast<uint32_t>(e.arg));
            }
            break;
          case sim::FaultKind::kIngestStall:
            if (Tenant *t = findTenant(e.tenant))
                t->sourceA().stallUntil(now
                                        + static_cast<SimTime>(e.arg));
            break;
          case sim::FaultKind::kIngestDrop:
            if (Tenant *t = findTenant(e.tenant))
                t->sourceA().dropBundles(e.arg);
            break;
          case sim::FaultKind::kSlowShard:
            if (e.shard < cfg_.shards && !shard_dead_[e.shard]) {
                EngineShard &sh = *shards_[e.shard];
                sh.eng->machine().syncTo(now);
                sh.eng->exec().setCoreLimit(
                    static_cast<unsigned>(e.arg));
                // Degradation is transient: restore the full core
                // count after the fault's duration.
                sh.eng->machine().after(
                    static_cast<SimTime>(e.arg2),
                    [this, s = e.shard] {
                        shards_[s]->eng->exec().setCoreLimit(0);
                    },
                    /*daemon=*/true);
            }
            break;
        }
    }

    /**
     * Kill shard @p s: halt every resident session's sources, settle
     * their metrics at the crash instant, and queue them for recovery
     * on the survivors. The dead engine's event queue is NOT cleared —
     * in-flight (zombie) work drains naturally, since bandwidth-flow
     * callbacks keep task state alive — but its output is no longer
     * observed, and the shard takes no new sessions and is skipped by
     * placement forever after. Shard 0 hosts the
     * control plane (modelled as replicated) and never crashes.
     */
    void
    crashShard(uint32_t s)
    {
        sbhbm_assert(s != 0, "the control-plane shard cannot crash");
        if (s >= cfg_.shards || shard_dead_[s])
            return;
        EngineShard &sh = *shards_[s];
        const SimTime now = shards_[0]->eng->machine().now();
        sh.eng->machine().syncTo(now);
        shard_dead_[s] = true;
        registry_.setShardDown(s);

        std::vector<runtime::StreamId> ids;
        for (auto &[id, t] : sh.tenants)
            ids.push_back(id);
        trace("t=%llu crash shard=%u sessions=%zu",
              (unsigned long long)now, s, ids.size());
        for (runtime::StreamId id : ids) {
            std::unique_ptr<Tenant> dead = std::move(sh.tenants[id]);
            sh.tenants.erase(id);
            Tenant &t = *dead;
            t.halt();

            TenantReport &rep = reports_[id];
            ++rep.crashes;
            const uint64_t position =
                t.migratable() ? t.sourceA().streamPosition() : 0;
            const bool recoverable =
                t.migratable() && rep.spec.logical_time;
            const TenantCheckpoint *ck =
                recoverable ? ckpts_.find(id) : nullptr;
            const bool use_ck = ck != nullptr && ck->restorable
                                && ck->position <= position;
            // The transactional-sink cut: output past the last
            // checkpoint (or all of it, for scratch-restart) is
            // uncommitted — rolled back from the report and
            // redelivered by the recovery. Unrecoverable sessions
            // keep everything they managed to deliver.
            const columnar::WindowId commit =
                !recoverable ? kAllWindows
                             : (use_ck ? ck->next_close : 0);
            accumulate(s, id, t, commit);
            // The Tenant object stays alive until Server destruction:
            // zombie tasks on the dead shard still reference its
            // operators and bundles.
            graveyard_.push_back(std::move(dead));
            if (!recoverable) {
                // Two-stream or physical-time sessions cannot replay
                // bit-identically: lost. Release the reservation so
                // waiters admit.
                rep.lost = true;
                rep.finished_at = now;
                trace("t=%llu lost tenant=%u (unrecoverable)",
                      (unsigned long long)now, id);
                for (const TenantSpec &next : registry_.release(id))
                    start(registry_.shardOf(next.id), next, now);
                continue;
            }

            PendingRecovery pr;
            pr.id = id;
            pr.crashed_at = now;
            pr.dedup_before = commit;
            pr.cont = rep.spec;
            pr.use_checkpoint = use_ck;
            if (pr.use_checkpoint) {
                pr.cont.start_record = ck->position;
                pr.cont.total_records =
                    rep.spec.total_records - ck->position;
            } else {
                // Scratch-restart: full replay, output deduplicated.
                pr.cont.start_record = 0;
                pr.cont.total_records = rep.spec.total_records;
            }
            pr.replay = position - pr.cont.start_record;
            pending_recovery_.push_back(std::move(pr));
        }
        scheduleRecovery();
    }

    /** Least-loaded live shard (registry load), or kNoShard. */
    uint32_t
    pickRecoveryShard() const
    {
        uint32_t best = kNoShard;
        double best_load = 0;
        for (uint32_t s = 0; s < cfg_.shards; ++s) {
            if (shard_dead_[s])
                continue;
            const double l = registry_.shardLoad(s);
            if (best == kNoShard || l < best_load) {
                best = s;
                best_load = l;
            }
        }
        return best;
    }

    void
    scheduleRecovery()
    {
        if (pending_recovery_.empty() || recovery_scheduled_)
            return;
        recovery_scheduled_ = true;
        // Non-daemon: a pending failover is live work — the fleet
        // must not drain out from under it.
        shards_[0]->eng->machine().after(kRecoveryDelay,
                                         [this] { recoveryTick(); });
    }

    /**
     * Try to place every pending recovery on a live shard (moving the
     * session's reservation with it). Placements that do not fit yet
     * retry with the recovery delay as backoff; after
     * kMaxRecoveryAttempts the session is declared lost so the run
     * always terminates.
     */
    void
    recoveryTick()
    {
        recovery_scheduled_ = false;
        const SimTime now = shards_[0]->eng->machine().now();
        std::vector<PendingRecovery> still;
        for (PendingRecovery &pr : pending_recovery_) {
            const uint32_t target = pickRecoveryShard();
            if (target == kNoShard
                || !registry_.migrate(pr.id, target)) {
                if (++pr.attempts >= kMaxRecoveryAttempts) {
                    TenantReport &rep = reports_[pr.id];
                    rep.lost = true;
                    rep.finished_at = now;
                    trace("t=%llu lost tenant=%u (no placement after"
                          " %u attempts)",
                          (unsigned long long)now, pr.id, pr.attempts);
                    for (const TenantSpec &next :
                         registry_.release(pr.id))
                        start(registry_.shardOf(next.id), next, now);
                } else {
                    still.push_back(std::move(pr));
                }
                continue;
            }
            recover(pr, target, now);
        }
        pending_recovery_ = std::move(still);
        scheduleRecovery();
    }

    /** Restart crashed session @p pr on live shard @p target. */
    void
    recover(const PendingRecovery &pr, uint32_t target, SimTime now)
    {
        TenantReport &rep = reports_[pr.id];
        const TenantCheckpoint *ck =
            pr.use_checkpoint ? ckpts_.find(pr.id) : nullptr;
        EngineShard &sh = *shards_[target];
        sh.eng->machine().syncTo(now);
        snapSegmentBase(target, pr.id);

        auto tenant = std::make_unique<Tenant>(
            *sh.eng, pr.cont, cfg_.window_ns, seedFor(rep.spec));
        Tenant &t = *tenant;
        if (ck != nullptr)
            t.restoreFrom(*ck);
        // Windows committed before the crash are never redelivered:
        // any replayed output for them is deduplicated at the sink.
        t.pipe().resumeFrom(pr.dedup_before);
        t.egress().setDedupBefore(pr.dedup_before);
        sh.tenants[pr.id] = std::move(tenant);
        sh.eng->exec().scheduler().setWeight(pr.id, rep.spec.weight);
        t.start();
        // Prime BEFORE noting the outage so the downtime lands in the
        // fresh tracker's recovery delta at the next observe.
        t.sla().primeStalls(t.stallSnapshot());
        t.sla().noteOutage(now - pr.crashed_at);
        ++rep.recoveries;
        rep.records_replayed += pr.replay;
        trace("t=%llu recover tenant=%u shard=%u mode=%s pos=%llu"
              " dedup<%llu replay=%llu",
              (unsigned long long)now, pr.id, target,
              ck != nullptr ? "checkpoint" : "scratch",
              (unsigned long long)pr.cont.start_record,
              (unsigned long long)pr.dedup_before,
              (unsigned long long)pr.replay);
        sh.eng->machine().after(
            kNsPerMs, [this, target, id = pr.id] { poll(target, id); });
        if (cfg_.fault.checkpoint_period > 0 && t.migratable()
            && pr.cont.logical_time)
            scheduleCheckpoint(target, pr.id);
    }

    void
    scheduleCheckpoint(uint32_t s, runtime::StreamId id)
    {
        // Daemon: the periodic cadence never keeps a drained fleet
        // alive; a checkpoint in progress (quiesceWait) does.
        shards_[s]->eng->machine().after(
            cfg_.fault.checkpoint_period,
            [this, s, id] { checkpointTick(s, id); },
            /*daemon=*/true);
    }

    /** Begin one checkpoint: pause the source, then wait for full
     *  quiescence so the cut is exact. */
    void
    checkpointTick(uint32_t s, runtime::StreamId id)
    {
        if (shard_dead_[s])
            return;
        EngineShard &sh = *shards_[s];
        auto it = sh.tenants.find(id);
        if (it == sh.tenants.end())
            return; // drained or crashed
        it->second->sourceA().pause();
        quiesceWait(s, id, sh.eng->machine().now());
    }

    void
    quiesceWait(uint32_t s, runtime::StreamId id, SimTime began)
    {
        if (shard_dead_[s])
            return;
        EngineShard &sh = *shards_[s];
        auto it = sh.tenants.find(id);
        if (it == sh.tenants.end())
            return; // crashed mid-quiesce (halt() clears the pause)
        Tenant &t = *it->second;
        if (!t.quiesced()) {
            // Non-daemon: an in-progress cut holds the fleet until it
            // lands and the source resumes.
            sh.eng->machine().after(
                kQuiescePoll,
                [this, s, id, began] { quiesceWait(s, id, began); });
            return;
        }
        sim::CostLog log;
        TenantCheckpoint c = t.capture(ckpts_.find(id), log);
        TenantReport &rep = reports_[id];
        ++rep.checkpoints;
        rep.checkpoint_copied_bytes += c.copiedBytes();
        rep.checkpoint_reused_bytes += c.reusedBytes();
        if (obs::Telemetry *tp = cfg_.telemetry) {
            // The span covers pause -> quiesce -> capture; the copy
            // charge runs on after it DMA-style.
            tp->trace.span(began, sh.eng->machine().now() - began, s,
                           id, "checkpoint", "checkpoint",
                           {{"copied_bytes", c.copiedBytes()},
                            {"reused_bytes", c.reusedBytes()},
                            {"position", c.position}});
        }
        // Copy traffic is real work on the shard: charge it through
        // the machine DMA-style, like the director's demotion sweeps.
        sh.eng->machine().execute(std::move(log), [] {});
        ckpts_.put(std::move(c));
        t.sourceA().resume();
        scheduleCheckpoint(s, id);
    }

    ServeConfig cfg_;
    std::vector<std::unique_ptr<EngineShard>> shards_;
    TenantRegistry registry_;
    std::vector<TenantSpec> pending_;
    std::map<runtime::StreamId, TenantReport> reports_;
    std::map<runtime::StreamId, SegmentBase> seg_base_;
    std::vector<TenantReport> report_list_;
    bool ran_ = false;

    // Fault tolerance. graveyard_ is declared after shards_ so dead
    // Tenants (whose operators zombie tasks referenced) are destroyed
    // while their engines are still alive.
    std::unique_ptr<sim::FaultInjector> injector_;
    std::vector<bool> shard_dead_;
    std::vector<std::unique_ptr<Tenant>> graveyard_;
    std::vector<PendingRecovery> pending_recovery_;
    bool recovery_scheduled_ = false;
    CheckpointStore ckpts_;
};

} // namespace sbhbm::serve

#endif // SBHBM_SERVE_SERVER_H
