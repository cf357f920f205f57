/**
 * @file
 * A tenant: one user's standing query session on the shared engine.
 *
 * The spec is the admission request — which query, how much traffic,
 * what HBM reservation, what fair-share weight. A Tenant object is an
 * *admitted* session: its own Pipeline (on a dedicated executor
 * stream), its own ingest::Source instances with a private in-flight
 * budget (so its backlog throttles only its own ingestion), and its
 * own SLA tracker. All tenants share the engine's cores, hybrid
 * memory, placement knob and virtual clock.
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

    /**
     * Resume offset: records a previous incarnation of this session
     * already consumed (checkpoint restore / migration continuation).
     * The generators fast-forward past them and, under logical_time,
     * timestamps continue the original timeline. Single-stream
     * sessions only.
     */
    uint64_t start_record = 0;
};

/** One admitted, running session. */
class Tenant
{
  public:
    /**
     * Build the session's pipeline + sources on @p eng. Does not
     * start ingesting yet (the server starts sessions in id order).
     */
    Tenant(runtime::Engine &eng, TenantSpec spec, SimTime window_ns,
           uint64_t seed)
        : eng_(eng), spec_(std::move(spec)),
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

        ingest::SourceConfig scfg;
        scfg.nic_bw = eng.config().machine.nic_rdma_bw;
        if (built_.entry_b != nullptr)
            scfg.nic_bw /= 2; // two-stream queries share the NIC slice
        scfg.bundle_records = spec_.bundle_records;
        scfg.total_records = spec_.total_records;
        scfg.offered_rate = spec_.offered_rate;
        scfg.poisson_arrivals = spec_.poisson_arrivals;
        scfg.bundles_per_watermark = spec_.bundles_per_watermark;
        scfg.arrival_seed = seed ^ 0x9e3779b97f4a7c15ULL;
        scfg.logical_time = spec_.logical_time;
        scfg.start_record = spec_.start_record;

        src_a_ = std::make_unique<ingest::Source>(
            eng, *pipe_, *built_.gen_a, built_.entry_a, scfg,
            built_.port_a);
        if (built_.entry_b != nullptr) {
            sbhbm_assert(spec_.start_record == 0,
                         "two-stream sessions cannot resume mid-stream");
            scfg.arrival_seed ^= 0xbf58476d1ce4e5b9ULL;
            src_b_ = std::make_unique<ingest::Source>(
                eng, *pipe_, *built_.gen_b, built_.entry_b, scfg,
                built_.port_b);
        }

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
        src_a_->start();
        if (src_b_)
            src_b_->start();
    }

    /**
     * All records ingested and every task of this tenant's stream
     * completed: nothing can spawn further work (deliveries are done,
     * watermark cascades run synchronously with task completions), so
     * every window that can close has closed and externalized. Not
     * conditioned on in-flight bundles reaching zero: two-stream
     * queries can pin bundles in window state that no aligned
     * watermark ever closes; those are freed at session teardown.
     */
    bool
    drained() const
    {
        const auto &ss = eng_.exec().streamStats(spec_.id);
        return src_a_->finished() && (!src_b_ || src_b_->finished())
               && ss.spawned == ss.completed;
    }

    /**
     * Only single-source sessions can restart on another shard (crash
     * failover): a two-stream query's sources drain at different
     * offsets, so a continuation could not split the remaining records
     * between them without breaking per-stream conservation.
     */
    bool migratable() const { return src_b_ == nullptr; }

    // ---------------------------------------------------------------
    // Fault tolerance.
    // ---------------------------------------------------------------

    /**
     * The session's shard crashed: stop its sources forever. The
     * session's in-flight (zombie) work drains on the dead shard but
     * its output is no longer observed; the recovery layer restarts
     * the session elsewhere from its last checkpoint.
     */
    void
    halt()
    {
        src_a_->halt();
        if (src_b_)
            src_b_->halt();
    }

    /** Primary source (fault targeting, checkpoint quiesce). */
    ingest::Source &sourceA() { return *src_a_; }
    const ingest::Source &sourceA() const { return *src_a_; }

    /** The pipeline sink (output counts, checksums, dedup horizon). */
    pipeline::EgressOp &egress() { return *built_.egress; }
    const pipeline::EgressOp &egress() const { return *built_.egress; }

    /** Records consumed from the stream but dropped unprocessed. */
    uint64_t
    recordsShed() const
    {
        return src_a_->recordsShed()
               + (src_b_ ? src_b_->recordsShed() : 0);
    }

    /**
     * True when the ingestion stage and the executor stream are both
     * empty: the session's state is exactly the result of the records
     * consumed so far, with nothing in flight.
     */
    bool
    quiesced() const
    {
        const auto &ss = eng_.exec().streamStats(spec_.id);
        return src_a_->deliveryIdle()
               && (!src_b_ || src_b_->deliveryIdle())
               && ss.spawned == ss.completed;
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
        c.id = spec_.id;
        c.taken_at = eng_.machine().now();
        c.watermark = src_a_->emittedWatermark();
        c.position = src_a_->streamPosition();
        c.next_close = pipe_->targetWindow();
        c.restorable = migratable() && spec_.logical_time;
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
     * session (before start()). The spec's start_record must equal the
     * checkpoint's position so replay continues exactly at the cut.
     */
    void
    restoreFrom(const TenantCheckpoint &c)
    {
        sbhbm_assert(c.restorable, "restoring a non-restorable cut");
        sbhbm_assert(spec_.start_record == c.position,
                     "restore offset %llu != checkpoint position %llu",
                     (unsigned long long)spec_.start_record,
                     (unsigned long long)c.position);
        const auto &ops = pipe_->operators();
        sbhbm_assert(c.ops.size() == ops.size(),
                     "checkpoint/pipeline shape mismatch");
        for (size_t i = 0; i < ops.size(); ++i)
            if (c.ops[i].support == pipeline::SnapshotSupport::kSupported)
                ops[i]->restoreState(c.ops[i]);
    }

    const TenantSpec &spec() const { return spec_; }
    pipeline::Pipeline &pipe() { return *pipe_; }
    const pipeline::Pipeline &pipe() const { return *pipe_; }
    SlaTracker &sla() { return sla_; }
    const SlaTracker &sla() const { return sla_; }
    SimTime startedAt() const { return started_at_; }

    uint64_t
    recordsIngested() const
    {
        return src_a_->recordsIngested()
               + (src_b_ ? src_b_->recordsIngested() : 0);
    }

    /** Cumulative ingest stall of every source, ns (attribution). */
    uint64_t
    ingestWaitNs() const
    {
        return src_a_->ingestWaitNs()
               + (src_b_ ? src_b_->ingestWaitNs() : 0);
    }

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
    std::unique_ptr<pipeline::Pipeline> pipe_;
    queries::BuiltQuery built_;
    std::unique_ptr<ingest::Source> src_a_;
    std::unique_ptr<ingest::Source> src_b_;
    SlaTracker sla_;
    SimTime started_at_ = 0;
};

} // namespace sbhbm::serve

#endif // SBHBM_SERVE_TENANT_H
