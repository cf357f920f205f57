/**
 * @file
 * The executor's dispatch order: weighted fair share across streams,
 * with the paper's impact-tag priority inside each stream.
 *
 * The executor presents its backlog as one entry per stream with
 * pending work and pops the oldest task of whichever (stream, tag)
 * queue pick() names. Urgent tasks — window closes on the output
 * critical path — preempt globally in arrival order; everything below
 * Urgent is arbitrated by weighted deficit round-robin:
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
 */

#ifndef SBHBM_RUNTIME_FAIR_SCHEDULER_H
#define SBHBM_RUNTIME_FAIR_SCHEDULER_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
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
    /** head_seq value of an empty per-tag queue. */
    static constexpr uint64_t kNoTask = ~uint64_t{0};

    /** One stream's pending work, as pick() sees it. */
    struct StreamBacklog
    {
        // The brace-init below must name every element: a shorter
        // list would zero-fill, and head_seq 0 means "oldest task".
        static_assert(kNumTags == 3, "update head_seq initializer");

        StreamId stream = 0;

        /** Global enqueue seq of the oldest pending task per tag. */
        std::array<uint64_t, kNumTags> head_seq{kNoTask, kNoTask, kNoTask};

        /** Queue depth per tag. */
        std::array<uint32_t, kNumTags> depth{0, 0, 0};

        bool
        hasTag(ImpactTag t) const
        {
            return depth[static_cast<int>(t)] > 0;
        }
    };

    struct Choice
    {
        StreamId stream = 0;
        ImpactTag tag = ImpactTag::kUrgent;
    };

    /** Set @p stream's fair-share weight (> 0; unset streams get 1). */
    void
    setWeight(StreamId stream, double weight)
    {
        sbhbm_assert(weight > 0, "non-positive weight %f for stream %u",
                     weight, stream);
        weights_[stream] = weight;
    }

    double
    weight(StreamId stream) const
    {
        auto it = weights_.find(stream);
        return it == weights_.end() ? 1.0 : it->second;
    }

    /** Tasks dispatched for @p stream (all tags). */
    uint64_t
    served(StreamId stream) const
    {
        auto it = served_.find(stream);
        return it == served_.end() ? 0 : it->second;
    }

    /**
     * Choose the next task to dispatch. @p backlog has one entry per
     * stream with at least one pending task, sorted by stream id, and
     * is never empty.
     */
    Choice
    pick(const std::vector<StreamBacklog> &backlog)
    {
        // Urgent preempts globally, FIFO by enqueue order: window
        // closes on the output critical path keep the paper's
        // priority semantics no matter which tenant they serve.
        {
            uint64_t best = kNoTask;
            StreamId stream = 0;
            for (const auto &b : backlog) {
                const uint64_t s =
                    b.head_seq[static_cast<int>(ImpactTag::kUrgent)];
                if (s < best) {
                    best = s;
                    stream = b.stream;
                }
            }
            if (best != kNoTask) {
                ++served_[stream];
                return Choice{stream, ImpactTag::kUrgent};
            }
        }

        // Deficit round-robin over tenants with High/Low backlog.
        candidates_.clear();
        for (const auto &b : backlog) {
            if (b.hasTag(ImpactTag::kHigh) || b.hasTag(ImpactTag::kLow))
                candidates_.push_back(&b);
        }
        sbhbm_assert(!candidates_.empty(),
                     "no urgent and no high/low backlog");

        // A tenant whose backlog emptied forfeits banked credit.
        for (auto it = deficit_.begin(); it != deficit_.end();) {
            if (!isCandidate(it->first))
                it = deficit_.erase(it);
            else
                ++it;
        }

        for (int round = 0; round < 2; ++round) {
            if (const StreamBacklog *b = scanForCredit())
                return serve(*b);
            replenish();
        }
        // Unreachable: replenish() gives the heaviest candidate >= 1.
        sbhbm_fatal("deficit round-robin failed to pick a tenant");
        return Choice{};
    }

  private:
    /** Credit threshold with float-accumulation slack. */
    static constexpr double kEps = 1e-9;

    bool
    isCandidate(StreamId stream) const
    {
        for (const StreamBacklog *b : candidates_)
            if (b->stream == stream)
                return true;
        return false;
    }

    /**
     * Cyclic scan (by stream id, starting just past the last served
     * tenant) for the first candidate whose credit covers one task.
     */
    const StreamBacklog *
    scanForCredit() const
    {
        const size_t n = candidates_.size();
        size_t start = 0;
        for (size_t i = 0; i < n; ++i) {
            if (candidates_[i]->stream > last_served_) {
                start = i;
                break;
            }
        }
        for (size_t i = 0; i < n; ++i) {
            const StreamBacklog *b = candidates_[(start + i) % n];
            auto it = deficit_.find(b->stream);
            if (it != deficit_.end() && it->second >= 1.0 - kEps)
                return b;
        }
        return nullptr;
    }

    /** Grant every backlogged tenant credit in weight proportion. */
    void
    replenish()
    {
        double wmax = 0;
        for (const StreamBacklog *b : candidates_)
            wmax = std::max(wmax, weight(b->stream));
        for (const StreamBacklog *b : candidates_)
            deficit_[b->stream] += weight(b->stream) / wmax;
    }

    Choice
    serve(const StreamBacklog &b)
    {
        deficit_[b.stream] -= 1.0;
        last_served_ = b.stream;
        ++served_[b.stream];
        const ImpactTag tag = b.hasTag(ImpactTag::kHigh)
                                  ? ImpactTag::kHigh
                                  : ImpactTag::kLow;
        return Choice{b.stream, tag};
    }

    std::map<StreamId, double> weights_;
    std::map<StreamId, double> deficit_;
    std::map<StreamId, uint64_t> served_;
    StreamId last_served_ = 0;
    std::vector<const StreamBacklog *> candidates_;
};

} // namespace sbhbm::runtime

#endif // SBHBM_RUNTIME_FAIR_SCHEDULER_H
