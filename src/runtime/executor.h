/**
 * @file
 * Task executor: maps tagged tasks onto the simulated machine's cores.
 *
 * Worker threads of the real StreamBox-HBM become "core slots" here:
 * at most `cores` tasks are in flight at once; queued tasks dispatch
 * in the one order the executor's own FairScheduler picks. On one
 * stream that is the paper's impact-tag priority (Urgent > High > Low,
 * FIFO within a tag); across the serving layer's tenants, Urgent
 * still preempts globally in arrival order and everything below it is
 * shared by weighted deficit round-robin. A task's closure runs
 * functionally at dispatch time and records its simulated cost; the
 * machine then charges that cost in virtual time and frees the core
 * slot when it completes.
 *
 * Every task belongs to a stream (tenant). Single-pipeline runs use
 * the default stream 0 throughout; the multi-tenant serving layer
 * gives each tenant its own stream id, sets its weight on scheduler()
 * and audits per-stream cost totals.
 *
 * A task lives in one slab slot from spawn() until its simulated
 * completion: its closure (and everything the closure holds alive),
 * done hook, stream, dispatch instant and label. The run queue and
 * the machine's completion event carry only the slot's 32-bit id, and
 * the slot is freed when the task completes, so nothing is
 * reference-counted. Slot and run-queue state belong to this one
 * executor.
 *
 * Besides the simulated core slots, the executor owns a host
 * WorkerPool (hostPool()): the real fork-join pool kernels use to
 * parallelize their functional work's wall-clock within a task,
 * without affecting simulated time or CostLog output.
 */

#ifndef SBHBM_RUNTIME_EXECUTOR_H
#define SBHBM_RUNTIME_EXECUTOR_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/slot_table.h"
#include "common/unique_function.h"
#include "common/worker_pool.h"
#include "mem/hybrid_memory.h"
#include "obs/trace.h"
#include "runtime/fair_scheduler.h"
#include "runtime/impact_tag.h"
#include "sim/cost_model.h"
#include "sim/machine.h"

namespace sbhbm::runtime {

/** Priority task executor bound to a simulated machine. */
class Executor
{
  public:
    /** A task: do work on host, describe its cost in @p log. */
    using TaskFn = UniqueFunction<void(sim::CostLog &log)>;
    using DoneFn = UniqueFunction<void()>;

    /** Per-stream execution totals (the tenant-level cost audit). */
    struct StreamStats
    {
        uint64_t spawned = 0;
        uint64_t completed = 0;
        uint64_t shed = 0;       //!< tasks aborted by AllocFailure
        double cpu_ns = 0;       //!< total charged CPU ns
        uint64_t hbm_bytes = 0;  //!< total charged HBM traffic
        uint64_t dram_bytes = 0; //!< total charged DRAM traffic

        /** Virtual ns the stream's tasks sat queued before dispatch
         *  (the sched-queue component of SLA attribution). */
        uint64_t queue_wait_ns = 0;
    };

    /**
     * @param machine timing model.
     * @param cores   core slots to use (<= machine.cores(); the
     *                evaluation sweeps this, Figs 2/7/8/9).
     */
    Executor(sim::Machine &machine, unsigned cores)
        : machine_(machine), cores_(cores), base_cores_(cores)
    {
        sbhbm_assert(cores >= 1 && cores <= machine.cores(),
                     "core count %u outside 1..%u", cores,
                     machine.cores());
    }

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /**
     * The dispatch order. Streams default to weight 1; the serving
     * layer sets each tenant's weight here and reads the task slots
     * each stream was granted (FairScheduler::served).
     */
    FairScheduler &scheduler() { return sched_; }

    /**
     * Install telemetry (non-owning; nullptr disables). @p shard is
     * the trace pid this executor's task spans land on. Spans are
     * recorded only from machine completion callbacks — the
     * single-threaded simulation control path — so traces are
     * byte-identical at any host thread count.
     */
    void
    setTelemetry(obs::Telemetry *t, uint32_t shard)
    {
        tele_ = t;
        shard_ = shard;
    }

    /**
     * Enqueue a task; @p done (optional) fires on completion.
     * @p label (a string literal or a name outliving the task, e.g.
     * the spawning operator's) names the task's trace span when
     * telemetry is installed.
     */
    void
    spawn(ImpactTag tag, TaskFn fn, DoneFn done = nullptr,
          StreamId stream = 0, const char *label = nullptr)
    {
        StreamStats &ss = stats_[stream];
        ++ss.spawned;
        ++spawned_;
        const uint32_t id = slots_.take();
        Slot &t = slots_[id];
        t.fn = std::move(fn);
        t.done = std::move(done);
        t.stats = &ss;
        t.stream = stream;
        t.at = machine_.now();
        t.label = label;
        sched_.push(stream, tag, id);
        pump();
    }

    // ---------------------------------------------------------------
    // Host worker pool (wall-clock parallelism).
    //
    // Simulated core slots time-share one host thread; the host pool
    // is the real fork-join pool kernels shard their functional work
    // across (the key swap, sort, merge and join of large KPAs).
    // Kernels receive it through kpa::Ctx and must produce
    // bit-identical results and CostLog charges at every thread
    // count; with 1 thread the pool degrades to inline execution.
    // ---------------------------------------------------------------

    /**
     * Fix the host pool at @p threads workers (1 = inline). Must be
     * called before the first hostPool() use; the default is
     * WorkerPool::defaultThreads() ($SBHBM_HOST_THREADS or the
     * hardware concurrency).
     */
    void
    setHostThreads(unsigned threads)
    {
        sbhbm_assert(host_pool_ == nullptr,
                     "host pool already instantiated");
        host_threads_ = threads >= 1 ? threads : 1;
    }

    /** The lazily-created host fork-join pool. */
    WorkerPool &
    hostPool()
    {
        if (host_pool_ == nullptr) {
            if (host_threads_ == 0)
                host_threads_ = WorkerPool::defaultThreads();
            host_pool_ = std::make_unique<WorkerPool>(host_threads_);
        }
        return *host_pool_;
    }

    /**
     * The host pool when it would actually parallelize, else nullptr
     * so kernels take their serial paths with zero indirection.
     * Cheap to call per task: pool construction is trivial and its
     * worker threads spawn only at the first job that really forks
     * (a kernel crossing its parallel threshold).
     */
    WorkerPool *
    hostPoolIfParallel()
    {
        if (host_threads_ == 0)
            host_threads_ = WorkerPool::defaultThreads();
        return host_threads_ > 1 ? &hostPool() : nullptr;
    }

    unsigned cores() const { return cores_; }
    unsigned busyCores() const { return busy_; }

    /**
     * Degrade to @p n usable core slots (the slow-shard fault): new
     * dispatches respect the lower limit while in-flight tasks finish
     * naturally. Clamped to [1, configured cores]; 0 restores the
     * full count. Restoring re-pumps so any backlog drains onto the
     * recovered slots immediately.
     */
    void
    setCoreLimit(unsigned n)
    {
        cores_ = n == 0 ? base_cores_ : std::clamp(n, 1u, base_cores_);
        pump();
    }

    /** Tasks shed by AllocFailure, summed over all streams. */
    uint64_t shedTasks() const { return shed_; }

    uint64_t queuedTasks() const { return sched_.size(); }

    uint64_t spawnedTasks() const { return spawned_; }
    uint64_t completedTasks() const { return completed_; }

    /** Execution totals of @p stream (zeros when never seen). */
    const StreamStats &
    streamStats(StreamId stream) const
    {
        static const StreamStats kEmpty{};
        auto it = stats_.find(stream);
        return it == stats_.end() ? kEmpty : it->second;
    }

    /** All per-stream totals, keyed by stream id. */
    const std::map<StreamId, StreamStats> &allStreamStats() const
    {
        return stats_;
    }

    /** True when no task is queued or in flight. */
    bool idle() const { return busy_ == 0 && sched_.empty(); }

  private:
    /** A task from spawn() until its simulated completion. */
    struct Slot
    {
        TaskFn fn;
        DoneFn done;
        StreamStats *stats = nullptr; //!< stats_ node: map nodes are stable
        StreamId stream = 0;
        SimTime at = 0; //!< spawn instant while queued, then dispatch
        const char *label = nullptr;
    };

    /** Dispatch queued tasks onto free core slots. */
    void
    pump()
    {
        while (busy_ < cores_ && !sched_.empty()) {
            const uint32_t id = sched_.pop().task;
            ++busy_;

            // A task body that spawns takes slots (and re-enters
            // pump()) without moving this one.
            Slot &t = slots_[id];
            StreamStats &ss = *t.stats;
            const SimTime t0 = machine_.now();
            ss.queue_wait_ns += t0 - t.at;
            t.at = t0;
            sim::CostLog cost;
            cost.cpu(sim::cost::kTaskDispatchNs);
            // Functional execution happens now, but the closure (and
            // everything it holds alive — bundles, KPAs) is released
            // only at simulated completion: a real worker's working
            // set is pinned while the task runs, and back-pressure
            // must see it.
            try {
                t.fn(cost);
            } catch (const mem::AllocFailure &) {
                // Graceful degradation: a task whose allocation
                // failed is shed, not fatal. Cost accrued before the
                // failure is still charged, and the done hook below
                // still fires so watermark barriers release.
                ++ss.shed;
                ++shed_;
            }
            ss.cpu_ns += cost.totalCpuNs();
            ss.hbm_bytes += cost.bytesOn(sim::Tier::kHbm);
            ss.dram_bytes += cost.bytesOn(sim::Tier::kDram);

            machine_.execute(std::move(cost), [this, id] { complete(id); });
        }
    }

    /** The machine finished slot @p id's task: release it, then refill. */
    void
    complete(uint32_t id)
    {
        Slot &t = slots_[id];
        t.fn.reset();
        --busy_;
        ++completed_;
        ++t.stats->completed;
        if (tele_ != nullptr) {
            tele_->trace.span(t.at, machine_.now() - t.at, shard_,
                              t.stream, "task",
                              t.label != nullptr ? t.label : "task");
        }
        // The hook may spawn into the freed slot, so it runs from a
        // local; its captures die after the refill.
        DoneFn done = std::move(t.done);
        slots_.free(id);
        if (done)
            done();
        pump();
    }

    sim::Machine &machine_;
    unsigned cores_;
    unsigned base_cores_;
    unsigned busy_ = 0;
    uint64_t spawned_ = 0;
    uint64_t completed_ = 0;
    uint64_t shed_ = 0;
    std::map<StreamId, StreamStats> stats_;
    SlotTable<Slot> slots_;
    FairScheduler sched_; //!< queues slot ids
    unsigned host_threads_ = 0; //!< 0 = WorkerPool::defaultThreads()
    std::unique_ptr<WorkerPool> host_pool_;
    obs::Telemetry *tele_ = nullptr;
    uint32_t shard_ = 0;
};

} // namespace sbhbm::runtime

#endif // SBHBM_RUNTIME_EXECUTOR_H
