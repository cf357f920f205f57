/**
 * @file
 * A tenant: one user's standing query session on the shared engine.
 *
 * The spec is the admission request — which query, how much traffic,
 * what HBM reservation, what fair-share weight. A Tenant object is an
 * *admitted* session: its own Pipeline (on a dedicated executor
 * stream), its own ingest::Source with a private in-flight budget (so
 * its backlog throttles only its own ingestion), and its own SLA
 * tracker. All tenants share the engine's cores, hybrid memory,
 * placement knob and virtual clock.
 *
 * Sessions run single-stream queries only: a two-stream query (the
 * temporal join, the windowed filter) could not be recovered after a
 * shard crash — its sources drain at different offsets, so no one
 * resume point splits the replay between them — and the server
 * refuses it rather than accept a session it cannot recover.
 *
 * Tenant ids are chosen by the submitter and are stable identities:
 * scheduling tie-breaks, RNG seed derivation and session start order
 * all key on the id, never on submission order — which is what makes
 * per-tenant results independent of the order sessions were offered.
 */

#ifndef SBHBM_SERVE_TENANT_H
#define SBHBM_SERVE_TENANT_H

#include <memory>
#include <string>
#include <utility>

#include "common/units.h"
#include "ingest/source.h"
#include "pipeline/egress.h"
#include "pipeline/operator.h"
#include "pipeline/pipeline.h"
#include "queries/query.h"
#include "runtime/engine.h"
#include "serve/checkpoint.h"
#include "serve/sla_tracker.h"

namespace sbhbm::serve {

/** An admission request: one session the serving layer may run. */
struct TenantSpec
{
    /** Stable identity and executor stream; unique, >= 1 (0 is the
     *  legacy single-pipeline stream). */
    runtime::StreamId id = 1;

    std::string name;

    /** Fair-share weight (task slots under contention ∝ weight). */
    double weight = 1.0;

    /** Which of the §6 queries this session runs. */
    queries::QueryId query = queries::QueryId::kSumPerKey;

    /** Session length, records. */
    uint64_t total_records = 500'000;

    uint32_t bundle_records = 10'000;

    /**
     * Offered ingestion rate, records/sec; 0 = NIC-limited. Hot
     * tenants offer more than their fair share can absorb.
     */
    double offered_rate = 0;

    /** Open-loop Poisson bundle arrivals (needs offered_rate > 0). */
    bool poisson_arrivals = false;

    /** Key/value ranges of the KV generators. */
    uint64_t key_range = 10'000;
    uint64_t value_range = 1'000'000;

    /**
     * HBM bytes this session asks the admission controller to
     * reserve. Admission fails (queues) while the aggregate over
     * running sessions would exceed the serving budget.
     */
    uint64_t hbm_reserve_bytes = 0;

    /** Per-tenant in-flight bundle budget (private back-pressure). */
    uint32_t max_inflight_bundles = 32;

    /**
     * Watermark cadence: 0 = one per window boundary (default); k > 0
     * emits one every k bundles, delaying window closure so the
     * session holds several windows of KPA state open at once — the
     * long-lived cold state the pressure director demotes. Must stay
     * below max_inflight_bundles or the session deadlocks (windows
     * can only close on a watermark).
     */
    uint32_t bundles_per_watermark = 0;

    /** Virtual time the session arrives at the admission controller. */
    SimTime arrives_at = 0;

    /** Workload seed; 0 derives one deterministically from the id. */
    uint64_t seed = 0;

    /**
     * Stamp records with logical event time (record i at
     * i/offered_rate seconds — a pure function of stream position, so
     * a replay reproduces the original timestamps bit for bit).
     * Requires offered_rate > 0. Fault-tolerant recovery needs it;
     * without it a session whose shard crashes is lost.
     */
    bool logical_time = false;
};

/**
 * Where a recovered session resumes: a checkpoint's cut, or the
 * stream's start for a first launch or a scratch restart.
 */
struct ResumePoint
{
    /** Records a previous incarnation already consumed: the generator
     *  fast-forwards past them and, under logical_time, timestamps
     *  continue the original timeline. */
    uint64_t record = 0;

    /** First window the previous incarnation did not commit; the
     *  pipeline's target watermark resumes there. */
    columnar::WindowId window = 0;
};

/** One admitted, running session. */
class Tenant
{
  public:
    /**
     * Build the session's pipeline + source on @p eng, resuming at
     * @p resume. Does not start ingesting yet (the server starts
     * sessions in id order). A two-stream query is fatal.
     */
    Tenant(runtime::Engine &eng, TenantSpec spec, SimTime window_ns,
           uint64_t seed, ResumePoint resume = {})
        : eng_(eng), spec_(std::move(spec)), resume_(resume),
          pipe_(std::make_unique<pipeline::Pipeline>(
              eng, columnar::WindowSpec{window_ns}, spec_.id)),
          sla_(eng.config().target_delay)
    {
        queries::QueryConfig qc;
        qc.id = spec_.query;
        qc.seed = seed;
        qc.key_range = spec_.key_range;
        qc.value_range = spec_.value_range;
        built_ = queries::buildQueryPipeline(qc, *pipe_);
        if (built_.entry_b != nullptr) {
            sbhbm_fatal("tenant %u: the server runs single-stream queries"
                        " only, not %s",
                        spec_.id, queries::queryName(spec_.query));
        }
        sbhbm_assert(resume_.record <= spec_.total_records,
                     "resume offset past the end of the stream");
        pipe_->resumeFrom(resume_.window);

        ingest::SourceConfig scfg;
        scfg.nic_bw = eng.config().machine.nic_rdma_bw;
        scfg.bundle_records = spec_.bundle_records;
        scfg.total_records = spec_.total_records - resume_.record;
        scfg.offered_rate = spec_.offered_rate;
        scfg.poisson_arrivals = spec_.poisson_arrivals;
        scfg.bundles_per_watermark = spec_.bundles_per_watermark;
        scfg.arrival_seed = seed ^ 0x9e3779b97f4a7c15ULL;
        scfg.logical_time = spec_.logical_time;
        scfg.start_record = resume_.record;
        src_ = std::make_unique<ingest::Source>(
            eng, *pipe_, *built_.gen_a, built_.entry_a, scfg,
            built_.port_a);

        eng.setStreamBudget(spec_.id, spec_.max_inflight_bundles);
    }

    Tenant(const Tenant &) = delete;
    Tenant &operator=(const Tenant &) = delete;

    /** Begin ingesting at the current virtual time. */
    void
    start()
    {
        started_at_ = eng_.machine().now();
        sla_.setIgnoreBefore(started_at_);
        src_->start();
    }

    /**
     * All records ingested and every task of this tenant's stream
     * completed: nothing can spawn further work (deliveries are done,
     * watermark cascades run synchronously with task completions), so
     * every window that can close has closed and externalized.
     */
    bool
    drained() const
    {
        const auto &ss = eng_.exec().streamStats(spec_.id);
        return src_->finished() && ss.spawned == ss.completed;
    }

    // ---------------------------------------------------------------
    // Fault tolerance.
    // ---------------------------------------------------------------

    /** The session's source (crash halt and position, checkpoint
     *  quiesce). */
    ingest::Source &source() { return *src_; }

    /** Where this incarnation resumed (zero for a first launch). */
    const ResumePoint &resume() const { return resume_; }

    /** The pipeline sink (output counts, checksums). */
    const pipeline::EgressOp &egress() const { return *built_.egress; }

    /**
     * True when the ingestion stage and the executor stream are both
     * empty: the session's state is exactly the result of the records
     * consumed so far, with nothing in flight.
     */
    bool
    quiesced() const
    {
        const auto &ss = eng_.exec().streamStats(spec_.id);
        return src_->deliveryIdle() && ss.spawned == ss.completed;
    }

    /**
     * Capture a checkpoint. Caller must hold the session quiesced()
     * (source paused, nothing in flight). @p prev is the previous
     * capture for incremental reuse (may be nullptr). Copy traffic is
     * charged to @p log DMA-style; the caller executes it on the
     * shard's machine.
     */
    TenantCheckpoint
    capture(const TenantCheckpoint *prev, sim::CostLog &log)
    {
        sbhbm_assert(quiesced(), "checkpoint of a non-quiesced session");
        TenantCheckpoint c;
        c.position = src_->streamPosition();
        c.next_close = pipe_->targetWindow();
        c.restorable = spec_.logical_time;
        const auto &ops = pipe_->operators();
        c.ops.resize(ops.size());
        for (size_t i = 0; i < ops.size(); ++i) {
            const pipeline::OperatorSnapshot *p =
                prev != nullptr && i < prev->ops.size() ? &prev->ops[i]
                                                        : nullptr;
            const pipeline::SnapshotSupport sup =
                ops[i]->snapshotState(c.ops[i], p, log);
            c.ops[i].op = ops[i]->name();
            c.ops[i].support = sup;
            if (sup == pipeline::SnapshotSupport::kUnsupported)
                c.restorable = false;
        }
        return c;
    }

    /**
     * Reinstall checkpointed operator state into this freshly built
     * session (before start()). The session must resume at the
     * checkpoint's position so replay continues exactly at the cut.
     */
    void
    restoreFrom(const TenantCheckpoint &c)
    {
        sbhbm_assert(c.restorable, "restoring a non-restorable cut");
        sbhbm_assert(resume_.record == c.position,
                     "resume offset %llu != checkpoint position %llu",
                     (unsigned long long)resume_.record,
                     (unsigned long long)c.position);
        const auto &ops = pipe_->operators();
        sbhbm_assert(c.ops.size() == ops.size(),
                     "checkpoint/pipeline shape mismatch");
        for (size_t i = 0; i < ops.size(); ++i)
            if (c.ops[i].support == pipeline::SnapshotSupport::kSupported)
                ops[i]->restoreState(c.ops[i]);
    }

    const TenantSpec &spec() const { return spec_; }
    const pipeline::Pipeline &pipe() const { return *pipe_; }
    SlaTracker &sla() { return sla_; }
    const SlaTracker &sla() const { return sla_; }
    SimTime startedAt() const { return started_at_; }

    uint64_t recordsIngested() const { return src_->recordsIngested(); }

    /** Cumulative ingest stall of the source, ns (attribution). */
    uint64_t ingestWaitNs() const { return src_->ingestWaitNs(); }

    /** The tenant's current stall counters for SLA attribution. */
    StallSnapshot
    stallSnapshot() const
    {
        StallSnapshot s;
        s.ingest_wait_ns = ingestWaitNs();
        s.queue_wait_ns =
            eng_.exec().streamStats(spec_.id).queue_wait_ns;
        s.memory_stall_ns = eng_.director().sweepStallNs(spec_.id);
        return s;
    }

    uint64_t outputRecords() const { return built_.egress->outputRecords(); }

  private:
    runtime::Engine &eng_;
    TenantSpec spec_;
    ResumePoint resume_;
    std::unique_ptr<pipeline::Pipeline> pipe_;
    queries::BuiltQuery built_;
    std::unique_ptr<ingest::Source> src_;
    SlaTracker sla_;
    SimTime started_at_ = 0;
};

} // namespace sbhbm::serve

#endif // SBHBM_SERVE_TENANT_H
