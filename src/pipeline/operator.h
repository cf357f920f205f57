/**
 * @file
 * Operator base class: task tracking, watermark alignment, and
 * causally-correct emission.
 *
 * Execution model. An operator reacts to incoming messages by
 * spawning tagged tasks. A task's functional work runs at dispatch
 * time (host), but its *outputs are held back* until the simulated
 * machine finishes charging the task's cost — only then are they
 * emitted downstream. This keeps virtual-time causality: downstream
 * work can never start before its input exists in simulated time.
 *
 * Watermarks. A watermark is forwarded downstream only after every
 * task this operator spawned before (and because of) the watermark
 * has completed, so "all data before the watermark has been
 * processed" holds at every stage. Two-input operators forward the
 * minimum of their per-port watermarks.
 */

#ifndef SBHBM_PIPELINE_OPERATOR_H
#define SBHBM_PIPELINE_OPERATOR_H

#include <deque>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "columnar/window.h"
#include "common/logging.h"
#include "common/unique_function.h"
#include "kpa/primitives.h"
#include "mem/pressure_director.h"
#include "pipeline/message.h"
#include "pipeline/pipeline.h"
#include "pipeline/state_snapshot.h"
#include "runtime/executor.h"

namespace sbhbm::pipeline {

using columnar::Watermark;

/**
 * Base class of all pipeline operators.
 *
 * Every operator is also a ColdStateProvider registered with the
 * engine's PressureDirector: operators that accumulate window-state
 * KPAs override coldState() to expose the demotable ones (coldest
 * first), and the base class handles the actual migration plus
 * traffic charging when the director asks for HBM relief.
 */
class Operator : public mem::ColdStateProvider
{
  public:
    /** Output collector passed to task bodies. */
    class Emitter
    {
      public:
        void push(Msg m) { msgs_.push_back(std::move(m)); }

      private:
        friend class Operator;
        std::vector<Msg> msgs_;
    };

    /** Task body: do the work, log the cost, queue outputs. */
    using TaskBody = UniqueFunction<void(sim::CostLog &, Emitter &)>;

    Operator(Pipeline &pipe, std::string name, int num_ports = 1)
        : pipe_(pipe), eng_(pipe.engine()), name_(std::move(name)),
          num_ports_(num_ports)
    {
        sbhbm_assert(num_ports >= 1 && num_ports <= 2,
                     "1 or 2 input ports supported");
        eng_.director().registerProvider(this);
    }

    ~Operator() override { eng_.director().unregisterProvider(this); }
    Operator(const Operator &) = delete;
    Operator &operator=(const Operator &) = delete;

    const std::string &name() const { return name_; }

    /** Stream (tenant) this operator's state is accounted to. */
    uint32_t providerStream() const override { return pipe_.streamId(); }

    /**
     * The pressure director's demotion sweep over coldState(): migrate
     * cold HBM-resident KPAs to DRAM until ~@p want_charged_bytes of
     * HBM gauge capacity is freed.
     */
    mem::DemoteResult
    demoteColdState(uint64_t want_charged_bytes,
                    sim::CostLog &log) override
    {
        mem::DemoteResult res;
        for (kpa::Kpa *k : coldState()) {
            if (res.charged_bytes >= want_charged_bytes)
                break;
            if (k->tier() != mem::Tier::kHbm)
                continue;
            const uint64_t charged = k->chargedBytes();
            // Charge what the migration actually moves: the backing
            // allocation — entry_scale times larger than bytes() when
            // grouping state is full records (the NoKPA ablation).
            const uint64_t bytes = k->allocatedBytes();
            if (!k->migrate(mem::Tier::kDram))
                continue; // DRAM full: keep the KPA where it is
            eng_.memory().charge(log, mem::Tier::kHbm,
                                 sim::AccessPattern::kSequential, bytes);
            eng_.memory().charge(log, mem::Tier::kDram,
                                 sim::AccessPattern::kSequential,
                                 2 * bytes);
            res.charged_bytes += charged;
            ++res.kpas;
        }
        return res;
    }


    /**
     * Capture this operator's accumulated state into @p out for a
     * watermark-aligned checkpoint. Called only while the tenant is
     * quiesced (no task in flight, ingestion drained). @p prev is the
     * same operator's previous snapshot for incremental reuse (null
     * on the first checkpoint); copy traffic goes to @p log.
     *
     * The default declares the operator stateless (pass-through /
     * externally-reconstructible state). Stateful operators of
     * single-stream sessions either implement a real capture
     * (SortedRunsOp) or override to return kUnsupported (AvgAllOp),
     * which makes the owning tenant recover by scratch-restart (full
     * replay + output dedup) instead of checkpoint restore. The
     * two-stream operators (TemporalJoinOp, WindowedFilterOp) need no
     * override: the server never checkpoints a two-stream session,
     * and Tenant::capture marks such a cut non-restorable.
     */
    virtual SnapshotSupport
    snapshotState(OperatorSnapshot &out, const OperatorSnapshot *prev,
                  sim::CostLog &log)
    {
        (void)out;
        (void)prev;
        (void)log;
        return SnapshotSupport::kStateless;
    }

    /**
     * Reinstall state captured by snapshotState() into this (freshly
     * constructed) operator on the recovery shard.
     */
    virtual void restoreState(const OperatorSnapshot &snap) { (void)snap; }

    /** Wire this operator's output to @p down's input @p port. */
    void
    connectTo(Operator *down, int port = 0)
    {
        down_ = down;
        down_port_ = port;
    }

    /** Deliver a data message (called by upstream / the source). */
    void
    receive(Msg msg, int port = 0)
    {
        sbhbm_assert(port < num_ports_, "port %d out of range", port);
        process(std::move(msg), port);
    }

    /** Deliver a watermark (called by upstream / the source). */
    void
    receiveWatermark(Watermark wm, int port = 0)
    {
        sbhbm_assert(port < num_ports_, "port %d out of range", port);
        port_wm_[port] = std::max(port_wm_[port], wm.ts);

        EventTime aligned = port_wm_[0];
        for (int p = 1; p < num_ports_; ++p)
            aligned = std::min(aligned, port_wm_[p]);
        if (aligned <= aligned_wm_)
            return; // no progress (sources emit strictly positive wms)
        aligned_wm_ = aligned;

        pending_wms_.push_back(
            PendingWm{Watermark{aligned}, next_task_id_, false});
        flushWatermarks();
    }

  protected:
    /** React to a data message (spawn tasks via spawnTracked). */
    virtual void process(Msg msg, int port) = 0;

    /**
     * Window-state KPAs the pressure director may demote to DRAM,
     * coldest (furthest from externalization) first. Only state off
     * the close critical path may appear here: the director runs
     * between tasks, so returned KPAs must be quiescent (held
     * accumulation state, not inputs of in-flight tasks). Stateless
     * operators keep the default: nothing to demote.
     */
    virtual std::vector<kpa::Kpa *> coldState() { return {}; }

    /**
     * The aligned watermark advanced AND every task spawned before it
     * has completed: close any state with window end <= wm.ts by
     * spawning (usually Urgent) tasks.
     */
    virtual void onWatermark(Watermark wm) { (void)wm; }

    /**
     * May the watermark be forwarded downstream? Stateful operators
     * whose window close spawns *chains* of tasks (merge trees)
     * override this to hold the watermark until the chain drains,
     * then call flushWatermarks() when it does.
     */
    virtual bool
    readyToForward(Watermark wm) const
    {
        (void)wm;
        return true;
    }

    /**
     * Spawn a tracked task whose outputs are emitted on completion.
     * @param after optional hook run at (simulated) completion, after
     *        the task's messages were emitted — use it to chain
     *        dependent tasks without breaking virtual-time causality.
     */
    void
    spawnTracked(ImpactTag tag, TaskBody body,
                 std::function<void()> after = nullptr)
    {
        const uint64_t id = next_task_id_++;
        outstanding_.insert(id);
        auto emitter = std::make_shared<Emitter>();
        eng_.exec().spawn(
            tag,
            [body = std::move(body), emitter](sim::CostLog &log) {
                body(log, *emitter);
            },
            [this, id, emitter, after = std::move(after)] {
                for (auto &m : emitter->msgs_)
                    emitNow(std::move(m));
                if (after)
                    after();
                outstanding_.erase(id);
                flushWatermarks();
            },
            pipe_.streamId(),
            // The operator outlives its tasks (the done hook above
            // references it), so its name can label their spans.
            name_.c_str());
    }

    /** Immediately forward a message downstream (completion context). */
    void
    emitNow(Msg m)
    {
        if (down_ != nullptr)
            down_->receive(std::move(m), down_port_);
    }

    /** Impact tag for data whose earliest timestamp is @p ts. */
    ImpactTag classify(EventTime ts) const { return pipe_.classify(ts); }

    /**
     * Placement for a new KPA of this operator, tagged with the
     * pipeline's stream so per-tenant occupancy accounting and
     * placement classes apply.
     */
    kpa::Placement
    placeKpa(ImpactTag tag, uint64_t bytes_hint) const
    {
        return eng_.placeKpa(tag, bytes_hint, pipe_.streamId());
    }

    /** Primitive context charging to @p log with the right scale. */
    kpa::Ctx
    makeCtx(sim::CostLog &log, uint32_t record_cols) const
    {
        kpa::Ctx ctx{eng_.memory(), log};
        if (!eng_.useKpa()) {
            ctx.group_scale =
                static_cast<double>(record_cols) * sizeof(uint64_t)
                / sizeof(columnar::KpEntry);
        }
        // Kernels shard heavy host work (sliced merges, partition
        // passes) across the engine's host pool; simulated charges
        // are unaffected. Null on single-threaded hosts: the kernels
        // then take their serial paths with no pool ever constructed.
        ctx.pool = eng_.exec().hostPoolIfParallel();
        return ctx;
    }

    /**
     * Drive pending watermarks through their two stages:
     *  1. barrier reached -> onWatermark() (spawn close tasks),
     *  2. close barrier reached and readyToForward() -> forward.
     *
     * A barrier is the task-id horizon at the moment the watermark
     * was received: it is satisfied only when no task spawned before
     * that horizon is still outstanding. Completion order is NOT
     * spawn order (task costs and priorities differ), so this must
     * check the oldest outstanding id, not a completion count.
     */
    void
    flushWatermarks()
    {
        while (!pending_wms_.empty()) {
            PendingWm &front = pending_wms_.front();
            if (!front.closed) {
                if (outstandingBefore(front.barrier))
                    return;
                onWatermark(front.wm);
                front.closed = true;
                front.barrier = next_task_id_; // include the closes
            }
            if (outstandingBefore(front.barrier)
                || !readyToForward(front.wm)) {
                return;
            }
            const Watermark wm = front.wm;
            pending_wms_.pop_front();
            if (down_ != nullptr)
                down_->receiveWatermark(wm, down_port_);
        }
    }

    /** Is any task with id < @p barrier still outstanding? */
    bool
    outstandingBefore(uint64_t barrier) const
    {
        return !outstanding_.empty() && *outstanding_.begin() < barrier;
    }

    Pipeline &pipe_;
    Engine &eng_;

  private:
    struct PendingWm
    {
        Watermark wm;
        uint64_t barrier;
        bool closed;
    };

    std::string name_;
    int num_ports_;
    Operator *down_ = nullptr;
    int down_port_ = 0;

    EventTime port_wm_[2] = {0, 0};
    EventTime aligned_wm_ = 0;
    uint64_t next_task_id_ = 0;
    std::set<uint64_t> outstanding_;
    std::deque<PendingWm> pending_wms_;
};

} // namespace sbhbm::pipeline

#endif // SBHBM_PIPELINE_OPERATOR_H
