/**
 * @file
 * Discrete-event queue driving the virtual clock.
 *
 * Events at equal timestamps fire in insertion order (a monotone
 * sequence number breaks ties) so the whole simulation is
 * deterministic.
 *
 * The heap holds only trivially copyable (when, seq, slot) entries;
 * each callback waits in a slot of a table that the queue reuses, and
 * callbacks are UniqueFunctions, whose inline storage holds the
 * simulator's small captures. So scheduling an event with such a
 * capture allocates nothing once the heap and the table have grown to
 * the run's peak.
 */

#ifndef SBHBM_SIM_EVENT_QUEUE_H
#define SBHBM_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <functional> // std::greater
#include <queue>
#include <vector>

#include "common/logging.h"
#include "common/slot_table.h"
#include "common/unique_function.h"
#include "common/units.h"

namespace sbhbm::sim {

/** Min-heap of (time, seq) keys over a table of callbacks. */
class EventQueue
{
  public:
    using Callback = UniqueFunction<void()>;

    /**
     * Schedule @p cb at absolute virtual time @p when.
     *
     * @param daemon daemon events (periodic monitors, samplers) do
     *        not keep the simulation alive: run() stops once only
     *        daemon events remain, the way a real process exits
     *        regardless of its background threads.
     */
    void
    schedule(SimTime when, Callback cb, bool daemon = false)
    {
        sbhbm_assert(when >= now_, "scheduling into the past: %llu < %llu",
                     (unsigned long long)when, (unsigned long long)now_);
        const uint32_t slot = callbacks_.take();
        callbacks_[slot] = std::move(cb);
        heap_.push(Entry{when, next_seq_++, slot, daemon});
        if (!daemon)
            ++live_;
    }

    /** @return true when no non-daemon work remains. */
    bool empty() const { return live_ == 0; }
    size_t size() const { return heap_.size(); }

    /** Current virtual time. */
    SimTime now() const { return now_; }

    /** Time of the earliest pending event, or kSimTimeNever. */
    SimTime
    nextTime() const
    {
        return heap_.empty() ? kSimTimeNever : heap_.top().when;
    }

    /**
     * Pop and run the earliest event, advancing the clock.
     * @return false when the queue was empty.
     */
    bool
    step()
    {
        if (heap_.empty())
            return false;
        const Entry entry = heap_.top();
        heap_.pop();
        now_ = entry.when;
        if (!entry.daemon)
            --live_;
        // Its slot is free before it runs, and its captures die after
        // it returns.
        Callback cb = std::move(callbacks_[entry.slot]);
        callbacks_.free(entry.slot);
        cb();
        return true;
    }

    /**
     * Run events until the queue drains or the clock passes @p limit.
     * Daemon events DO run here (the horizon bounds the loop), so a
     * monitor can be driven without other work pending.
     */
    void
    runUntil(SimTime limit)
    {
        while (!heap_.empty() && heap_.top().when <= limit) {
            if (!step())
                break;
        }
        if (now_ < limit)
            now_ = limit;
    }

    /** Run until only daemon events (if any) remain. */
    void
    run()
    {
        while (live_ > 0 && step()) {}
    }

    /**
     * Jump the clock forward to @p when without running anything.
     * Only legal while no event earlier than @p when is pending —
     * the multi-machine co-simulation uses this to synchronize a
     * lagging machine's clock to the global time before scheduling
     * cross-machine work on it (the caller holds the invariant: it is
     * processing the globally earliest event, so every other queue's
     * head is at or after @p when).
     */
    void
    advanceTo(SimTime when)
    {
        if (when <= now_)
            return;
        sbhbm_assert(nextTime() >= when,
                     "advanceTo(%llu) would skip an event at %llu",
                     (unsigned long long)when,
                     (unsigned long long)nextTime());
        now_ = when;
    }

  private:
    struct Entry
    {
        SimTime when;
        uint64_t seq;  //!< unique, so (when, seq) is a total order
        uint32_t slot; //!< the callback's index in callbacks_
        bool daemon;

        bool
        operator>(const Entry &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
    SlotTable<Callback> callbacks_;
    SimTime now_ = 0;
    uint64_t next_seq_ = 0;
    uint64_t live_ = 0;
};

} // namespace sbhbm::sim

#endif // SBHBM_SIM_EVENT_QUEUE_H
