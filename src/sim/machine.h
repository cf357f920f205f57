/**
 * @file
 * The simulated machine: virtual clock, per-tier bandwidth arbiters,
 * and execution of CostLogs in virtual time.
 *
 * The Machine does not know about cores or scheduling policy — the
 * runtime's Executor decides what runs when and merely asks the
 * Machine "how long does this work take, given everything else that
 * is in flight?" by submitting a CostLog. Phase completion times
 * emerge from the fluid bandwidth model, so concurrent tasks slow
 * each other down exactly when they contend for the same tier.
 *
 * Each executing task's state sits in a slab slot the machine owns,
 * addressed by a 32-bit id that its CPU events and flows carry. The
 * slot is freed when the task's last phase ends, as its completion
 * callback moves into the deferred completion event; nothing is
 * reference-counted. The slab belongs to this one machine, so
 * machines (shards) share no task state.
 */

#ifndef SBHBM_SIM_MACHINE_H
#define SBHBM_SIM_MACHINE_H

#include <cstdint>
#include <vector>

#include "common/slot_table.h"
#include "common/units.h"
#include "sim/bandwidth_arbiter.h"
#include "sim/event_queue.h"
#include "sim/machine_config.h"
#include "sim/traffic.h"

namespace sbhbm::sim {

/** Discrete-event model of one hybrid-memory server. */
class Machine
{
  public:
    using Callback = EventQueue::Callback;

    explicit Machine(MachineConfig cfg);

    const MachineConfig &config() const { return cfg_; }
    unsigned cores() const { return cfg_.cores; }

    /** Current virtual time (ns). */
    SimTime now() const { return events_.now(); }

    /**
     * Schedule a callback at absolute virtual time. Daemon events
     * (periodic monitors) do not keep run() alive.
     */
    void at(SimTime when, Callback cb, bool daemon = false);

    /** Schedule a callback @p delay ns from now. */
    void after(SimTime delay, Callback cb, bool daemon = false);

    /**
     * Schedule a callback at absolute virtual time @p when, clamped
     * to now when @p when already passed (session arrivals replayed
     * from a fixed schedule, e.g. the serving layer's load driver).
     */
    void atOrNow(SimTime when, Callback cb, bool daemon = false);

    /**
     * Execute @p cost in virtual time; invokes @p on_done when the
     * final phase finishes. The caller is responsible for modelling
     * core occupancy (one in-flight execute() per simulated core).
     */
    void execute(CostLog cost, Callback on_done);

    /** Drive the event loop. */
    void run() { events_.run(); }
    void runUntil(SimTime limit) { events_.runUntil(limit); }
    bool step() { return events_.step(); }
    bool idle() const { return events_.empty(); }

    /**
     * Synchronize this machine's clock to global time @p when (a
     * forward jump; no-op when already there). Legal only while no
     * event earlier than @p when is pending — see
     * EventQueue::advanceTo. Arbiters advance lazily to now() at
     * their next use, so jumping the idle clock is safe.
     */
    void syncTo(SimTime when) { events_.advanceTo(when); }

    EventQueue &events() { return events_; }

    /** Instantaneous granted bandwidth on @p tier, bytes/sec. */
    double tierRate(Tier tier) const;

    /** Cumulative bytes transferred on @p tier since boot. */
    double tierCumulativeBytes(Tier tier) const;

    /** Per-flow bandwidth cap for one core on @p tier / @p pattern. */
    double flowCap(Tier tier, AccessPattern pattern) const;

  private:
    /** One executing task: a slab slot from execute() to its end. */
    struct TaskState
    {
        CostLog cost;
        size_t phase_idx = 0;
        int outstanding = 0; //!< unfinished parts of the current phase
        Callback on_done;
    };

    using TaskId = uint32_t;

    void startPhase(TaskId id);
    void finishPart(TaskId id);

    /** Advance arbiters to now, fire drained flows, re-arm the timer. */
    void pump();

    /** Recompute allocations and schedule the next completion check. */
    void armTimer();

    MachineConfig cfg_;
    EventQueue events_;
    BandwidthArbiter arbiters_[kNumTiers];

    /** Time of the earliest pending completion-check event. */
    SimTime timer_at_ = kSimTimeNever;

    SlotTable<TaskState> tasks_;
    std::vector<TaskId> reaped_; //!< pump()'s drained-flow scratch
};

} // namespace sbhbm::sim

#endif // SBHBM_SIM_MACHINE_H
