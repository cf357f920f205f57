/**
 * @file
 * The executor's run queue: weighted fair share across streams, with
 * the paper's impact-tag priority inside each stream.
 *
 * The executor pushes each spawned task's id with its stream and tag,
 * and pops whichever task pop() chooses. Urgent tasks — window closes
 * on the output critical path — preempt globally in arrival order;
 * everything below Urgent is arbitrated by weighted deficit
 * round-robin:
 *
 *  - each backlogged stream holds a deficit counter (service credit);
 *  - a stream is served when its credit covers one task, paying 1;
 *  - when no backlogged stream has credit, every backlogged stream is
 *    replenished in proportion to its weight (the heaviest gets
 *    exactly 1, so a replenish always unblocks someone);
 *  - a stream whose backlog empties forfeits its credit (classic DRR:
 *    no banking service while idle);
 *  - within the chosen stream, High dispatches before Low.
 *
 * On one stream — every single-pipeline run, which uses stream 0
 * throughout — this is exactly the paper's order (§5): Urgent FIFO,
 * then High, then Low, FIFO within a tag. With many tenants, stream i
 * receives task slots in proportion to weight_i over any busy
 * interval: a hot tenant's flood of High tasks cannot push beyond its
 * share while others are backlogged, yet inherits idle capacity when
 * they are not. Ties scan cyclically from just past the last served
 * stream (by id), so equal-weight streams interleave deterministically
 * and independently of registration order.
 *
 * There is no per-dispatch view of the backlog. The queue keeps its
 * state current as tasks arrive and leave:
 *
 *  - one global FIFO of Urgent tasks, popped in O(1) (each stream's
 *    Urgent work is FIFO and only pop() removes tasks, so its front is
 *    the oldest Urgent head over all streams);
 *  - the candidates, streams with High or Low work, for replenish;
 *  - the credited candidates, deficit >= 1 - kEps, in stream-id order,
 *    so a deficit round-robin pick is one O(log n) search.
 *
 * Forfeiture is lazy, as in the scan it replaces: a stream loses its
 * credit at the next round-robin pick at which it has no High/Low
 * work, so a stream that empties and refills between two round-robin
 * picks (Urgent picks between them do not count) keeps its credit.
 * Only a round-robin pick takes High/Low work, so at most one stream
 * empties per pick; it is settled at the next one.
 */

#ifndef SBHBM_RUNTIME_FAIR_SCHEDULER_H
#define SBHBM_RUNTIME_FAIR_SCHEDULER_H

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "runtime/impact_tag.h"

namespace sbhbm::runtime {

/** Identifies the pipeline (tenant) a task belongs to; 0 = default. */
using StreamId = uint32_t;

/**
 * Jain's fairness index over per-tenant (weight-normalized) service:
 * (Σx)² / (n·Σx²) — 1.0 when all shares are equal, 1/n when one
 * tenant takes everything.
 */
inline double
jainIndex(const std::vector<double> &xs)
{
    if (xs.empty())
        return 1.0;
    double sum = 0, sq = 0;
    for (double x : xs) {
        sum += x;
        sq += x * x;
    }
    if (sq <= 0)
        return 1.0;
    return sum * sum / (static_cast<double>(xs.size()) * sq);
}

/** Weighted deficit round-robin over streams, tag priority within. */
class FairScheduler
{
  public:
    /** The caller's id for a queued task (the executor's slot). */
    using TaskId = uint32_t;

    struct Choice
    {
        StreamId stream = 0;
        ImpactTag tag = ImpactTag::kUrgent;
        TaskId task = 0;
    };

    FairScheduler() = default;
    // The queues hold pointers into lanes_, which a copy would share.
    FairScheduler(const FairScheduler &) = delete;
    FairScheduler &operator=(const FairScheduler &) = delete;

    /** Set @p stream's fair-share weight (> 0; unset streams get 1). */
    void
    setWeight(StreamId stream, double weight)
    {
        sbhbm_assert(weight > 0, "non-positive weight %f for stream %u",
                     weight, stream);
        lane(stream).weight = weight;
    }

    double
    weight(StreamId stream) const
    {
        auto it = lanes_.find(stream);
        return it == lanes_.end() ? 1.0 : it->second.weight;
    }

    /** Tasks dispatched for @p stream (all tags). */
    uint64_t
    served(StreamId stream) const
    {
        auto it = lanes_.find(stream);
        return it == lanes_.end() ? 0 : it->second.served;
    }

    /** Queue @p task of @p stream at @p tag. */
    void
    push(StreamId stream, ImpactTag tag, TaskId task)
    {
        Lane &l = lane(stream);
        ++size_;
        if (tag == ImpactTag::kUrgent) {
            urgent_.emplace_back(&l, task);
            return;
        }
        if (!l.hasWork()) {
            l.candidate = candidates_.size();
            candidates_.push_back(&l);
        }
        (tag == ImpactTag::kHigh ? l.high : l.low).push_back(task);
    }

    /** Remove and return the next task to dispatch (never empty). */
    Choice
    pop()
    {
        sbhbm_assert(size_ > 0, "pop from an empty run queue");
        --size_;

        // Urgent preempts globally, FIFO by enqueue order: window
        // closes on the output critical path keep the paper's
        // priority semantics no matter which tenant they serve.
        if (!urgent_.empty()) {
            const auto [l, task] = urgent_.front();
            urgent_.pop_front();
            ++l->served;
            return Choice{l->id, ImpactTag::kUrgent, task};
        }

        // Deficit round-robin over tenants with High/Low backlog. A
        // tenant whose backlog emptied since the last such pick, and
        // stayed empty, forfeits banked credit.
        if (drained_ != nullptr) {
            if (!drained_->hasWork())
                forfeit(*drained_);
            drained_ = nullptr;
        }
        Lane *l = nextCredited();
        if (l == nullptr) {
            replenish();
            l = nextCredited();
        }
        // Unreachable: replenish() gives the heaviest candidate >= 1.
        sbhbm_assert(l != nullptr,
                     "deficit round-robin failed to pick a tenant");
        return serve(*l);
    }

    bool empty() const { return size_ == 0; }
    uint64_t size() const { return size_; }

  private:
    /** Credit threshold with float-accumulation slack. */
    static constexpr double kEps = 1e-9;

    struct Lane;
    using CreditMap = std::map<StreamId, Lane *>;

    /** One stream's queues and fair-share state. */
    struct Lane
    {
        explicit Lane(StreamId s) : id(s) {}

        StreamId id;
        double weight = 1.0;
        double deficit = 0;
        uint64_t served = 0;
        std::deque<TaskId> high, low;
        size_t candidate = 0;       //!< index in candidates_, if there
        bool credited = false;      //!< present in credited_
        CreditMap::node_type spare; //!< credited_ node when out

        bool hasWork() const { return !high.empty() || !low.empty(); }
    };

    Lane &
    lane(StreamId stream)
    {
        return lanes_.try_emplace(stream, stream).first->second;
    }

    /**
     * The first credited candidate past the last served tenant (by
     * id), wrapping to the lowest id; nullptr when none has credit.
     */
    Lane *
    nextCredited() const
    {
        auto it = credited_.upper_bound(last_served_);
        if (it == credited_.end())
            it = credited_.begin();
        return it == credited_.end() ? nullptr : it->second;
    }

    /** Grant every backlogged tenant credit in weight proportion. */
    void
    replenish()
    {
        double wmax = 0;
        for (const Lane *l : candidates_)
            wmax = std::max(wmax, l->weight);
        for (Lane *l : candidates_) {
            l->deficit += l->weight / wmax;
            if (!l->credited && l->deficit >= 1.0 - kEps)
                credit(*l);
        }
    }

    Choice
    serve(Lane &l)
    {
        l.deficit -= 1.0;
        if (l.deficit < 1.0 - kEps)
            uncredit(l);
        last_served_ = l.id;
        ++l.served;
        const ImpactTag tag =
            l.high.empty() ? ImpactTag::kLow : ImpactTag::kHigh;
        std::deque<TaskId> &q = l.high.empty() ? l.low : l.high;
        const TaskId task = q.front();
        q.pop_front();
        if (!l.hasWork()) {
            // Swap-remove from the (unordered) candidate list.
            Lane *last = candidates_.back();
            candidates_[l.candidate] = last;
            last->candidate = l.candidate;
            candidates_.pop_back();
            drained_ = &l;
        }
        return Choice{l.id, tag, task};
    }

    void
    forfeit(Lane &l)
    {
        l.deficit = 0;
        if (l.credited)
            uncredit(l);
    }

    // The credited set reuses each lane's map node, so crediting and
    // uncrediting allocate nothing after a lane's first credit.
    void
    credit(Lane &l)
    {
        l.credited = true;
        if (l.spare)
            credited_.insert(std::move(l.spare));
        else
            credited_.emplace(l.id, &l);
    }

    void
    uncredit(Lane &l)
    {
        l.credited = false;
        l.spare = credited_.extract(l.id);
    }

    std::map<StreamId, Lane> lanes_; //!< nodes are stable: Lane * is safe
    std::deque<std::pair<Lane *, TaskId>> urgent_;
    std::vector<Lane *> candidates_; //!< lanes with High/Low work
    CreditMap credited_;
    Lane *drained_ = nullptr; //!< emptied by the last DRR pick
    StreamId last_served_ = 0;
    uint64_t size_ = 0;
};

} // namespace sbhbm::runtime

#endif // SBHBM_RUNTIME_FAIR_SCHEDULER_H
