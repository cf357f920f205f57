#include "runtime/fair_scheduler.h"

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <map>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace sbhbm::runtime {
namespace {

using Choice = FairScheduler::Choice;

/** Queue @p n tasks of @p tag on @p stream, ids @p first, first + 1, .... */
void
fill(FairScheduler &s, StreamId stream, ImpactTag tag, uint32_t n,
     uint32_t first)
{
    for (uint32_t i = 0; i < n; ++i)
        s.push(stream, tag, first + i);
}

/**
 * Pop one task and queue it again at the same stream and tag, so the
 * backlog keeps its shape: every stream stays as backlogged as the
 * scenario describes, however many picks it takes.
 */
Choice
popKeepingBacklog(FairScheduler &s)
{
    const Choice c = s.pop();
    s.push(c.stream, c.tag, c.task);
    return c;
}

TEST(FairScheduler, UrgentPreemptsGlobally)
{
    FairScheduler s;
    s.setWeight(1, 100.0); // heavy high-backlog tenant...
    fill(s, 1, ImpactTag::kHigh, 50, 10);
    fill(s, 2, ImpactTag::kUrgent, 1, 99); // ...still loses to urgent
    const Choice c = s.pop();
    EXPECT_EQ(c.stream, 2u);
    EXPECT_EQ(c.tag, ImpactTag::kUrgent);
    EXPECT_EQ(c.task, 99u);
}

TEST(FairScheduler, UrgentFifoAcrossTenants)
{
    FairScheduler s;
    fill(s, 2, ImpactTag::kUrgent, 1, 3); // enqueued earlier
    fill(s, 1, ImpactTag::kUrgent, 1, 7);
    EXPECT_EQ(s.pop().stream, 2u);
}

TEST(FairScheduler, HighDispatchesBeforeLowWithinTenant)
{
    FairScheduler s;
    fill(s, 1, ImpactTag::kLow, 4, 2);
    fill(s, 1, ImpactTag::kHigh, 1, 9);
    const Choice c = s.pop();
    EXPECT_EQ(c.stream, 1u);
    EXPECT_EQ(c.tag, ImpactTag::kHigh);
    EXPECT_EQ(c.task, 9u);
}

TEST(FairScheduler, ServiceProportionalToWeights)
{
    FairScheduler s;
    s.setWeight(1, 1.0);
    s.setWeight(2, 1.0);
    s.setWeight(3, 2.0);
    // All three permanently backlogged: service must converge to
    // 1 : 1 : 2.
    fill(s, 1, ImpactTag::kHigh, 100, 1);
    fill(s, 2, ImpactTag::kHigh, 100, 101);
    fill(s, 3, ImpactTag::kHigh, 100, 201);
    std::map<StreamId, int> count;
    for (int i = 0; i < 400; ++i)
        ++count[popKeepingBacklog(s).stream];
    EXPECT_EQ(count[1], 100);
    EXPECT_EQ(count[2], 100);
    EXPECT_EQ(count[3], 200);
}

TEST(FairScheduler, EqualWeightsInterleaveEvenly)
{
    FairScheduler s;
    fill(s, 4, ImpactTag::kLow, 10, 1);
    fill(s, 9, ImpactTag::kLow, 10, 11);
    std::map<StreamId, int> count;
    for (int i = 0; i < 10; ++i)
        ++count[popKeepingBacklog(s).stream];
    EXPECT_EQ(count[4], 5);
    EXPECT_EQ(count[9], 5);
}

TEST(FairScheduler, IdleTenantForfeitsBankedCredit)
{
    FairScheduler s;
    s.setWeight(1, 1.0);
    s.setWeight(2, 1.0);
    // Tenant 1 served alone for a while...
    fill(s, 1, ImpactTag::kHigh, 100, 1);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(popKeepingBacklog(s).stream, 1u);
    // ...then tenant 2 appears: service splits evenly from here on
    // (tenant 1 banked nothing while 2 was absent, and vice versa).
    fill(s, 2, ImpactTag::kHigh, 100, 101);
    std::map<StreamId, int> count;
    for (int i = 0; i < 100; ++i)
        ++count[popKeepingBacklog(s).stream];
    EXPECT_EQ(count[1], 50);
    EXPECT_EQ(count[2], 50);
}

TEST(FairScheduler, ServedCountsTracked)
{
    FairScheduler s;
    fill(s, 1, ImpactTag::kHigh, 10, 1);
    fill(s, 2, ImpactTag::kUrgent, 10, 11);
    for (int i = 0; i < 6; ++i)
        popKeepingBacklog(s);
    EXPECT_EQ(s.served(1), 0u) << "urgent backlog starves high";
    EXPECT_EQ(s.served(2), 6u);
}

TEST(FairScheduler, RefillBeforeTheNextRoundRobinPickKeepsCredit)
{
    // Weights 1 and 1.5: a replenish gives stream 1 two thirds and
    // stream 2 one, so stream 1 can drain with credit left over.
    FairScheduler s;
    s.setWeight(2, 1.5);
    fill(s, 1, ImpactTag::kHigh, 1, 0);
    fill(s, 2, ImpactTag::kHigh, 4, 10);
    EXPECT_EQ(s.pop().stream, 2u); // replenish: 2/3 and 1
    EXPECT_EQ(s.pop().stream, 1u); // replenish: 4/3 and 1; 1 drains
    // An Urgent pick between round-robin picks settles nothing...
    fill(s, 3, ImpactTag::kUrgent, 1, 20);
    EXPECT_EQ(s.pop().stream, 3u);
    // ...and stream 1 refills before the next round-robin pick, so it
    // keeps its 1/3.
    fill(s, 1, ImpactTag::kHigh, 1, 1);
    EXPECT_EQ(s.pop().stream, 2u); // stream 2 spends its credit
    // Replenish: 1/3 + 2/3 covers one task, and stream 1 is next past
    // stream 2 (wrapping). Had it forfeited, stream 2 would go again.
    EXPECT_EQ(s.pop().stream, 1u);
}

TEST(JainIndex, BoundsAndExtremes)
{
    EXPECT_DOUBLE_EQ(jainIndex({}), 1.0);
    EXPECT_DOUBLE_EQ(jainIndex({5.0, 5.0, 5.0, 5.0}), 1.0);
    EXPECT_DOUBLE_EQ(jainIndex({1.0, 0.0, 0.0, 0.0}), 0.25);
    const double mixed = jainIndex({4.0, 1.0, 1.0});
    EXPECT_GT(mixed, 0.25);
    EXPECT_LT(mixed, 1.0);
}

// -------------------------------------------------------------------
// The scan the run queue replaced, kept as the differential oracle.
// pick() and its helpers are the former FairScheduler's, verbatim:
// every dispatch rebuilt one StreamBacklog per backlogged stream and
// scanned it.
// -------------------------------------------------------------------

class ScanOracle
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

/** Per-stream, per-tag FIFOs of task ids: the backlog both sides see. */
struct Backlog
{
    std::map<StreamId, std::array<std::deque<uint32_t>, kNumTags>> q;

    std::vector<ScanOracle::StreamBacklog>
    view() const
    {
        std::vector<ScanOracle::StreamBacklog> out;
        for (const auto &[stream, tags] : q) {
            ScanOracle::StreamBacklog b;
            b.stream = stream;
            for (int t = 0; t < kNumTags; ++t) {
                if (!tags[t].empty()) {
                    b.head_seq[t] = tags[t].front();
                    b.depth[t] = static_cast<uint32_t>(tags[t].size());
                }
            }
            if (b.depth[0] + b.depth[1] + b.depth[2] > 0)
                out.push_back(b);
        }
        return out;
    }
};

/**
 * Random spawns, dispatches and weight changes on @p streams streams,
 * both schedulers side by side; every dispatch must agree. The spawn
 * share swings between phases, so backlogs build up and drain, and
 * streams empty and refill between round-robin picks.
 */
void
runDifferential(uint32_t streams, uint64_t seed, int steps)
{
    Rng rng(seed);
    ScanOracle oracle;
    FairScheduler rq;
    Backlog bl;
    uint32_t next_task = 0;
    uint64_t queued = 0;
    // Sparse ids with stream 0 included, to exercise the wrap.
    auto idOf = [](uint64_t i) { return static_cast<StreamId>(i * 3); };
    auto randomWeight = [&rng] {
        static constexpr double kWeights[] = {0.25, 0.5, 1.0, 1.0,
                                              1.5,  2.0, 4.0, 7.3};
        return kWeights[rng.nextBounded(8)];
    };
    for (uint32_t i = 0; i < streams; ++i) {
        if (rng.nextBounded(2) == 0) {
            const double w = randomWeight();
            oracle.setWeight(idOf(i), w);
            rq.setWeight(idOf(i), w);
        }
    }

    uint64_t spawn_pct = 50;
    uint64_t urgent_pct = 20;
    for (int step = 0; step < steps; ++step) {
        if (step % 1000 == 0) {
            spawn_pct = 30 + rng.nextBounded(41); // 30..70%
            urgent_pct = rng.nextBounded(80);
        }
        const uint64_t r = rng.nextBounded(1000);
        if (r < 5) {
            // A weight change mid-run (it takes effect at the next
            // replenish on both sides).
            const StreamId s = idOf(rng.nextBounded(streams));
            const double w = randomWeight();
            oracle.setWeight(s, w);
            rq.setWeight(s, w);
        } else if (queued == 0 || r < 5 + spawn_pct * 10) {
            const StreamId s = idOf(rng.nextBounded(streams));
            const uint64_t t = rng.nextBounded(100);
            const ImpactTag tag =
                t < urgent_pct ? ImpactTag::kUrgent
                : rng.nextBounded(2) == 0 ? ImpactTag::kHigh
                                          : ImpactTag::kLow;
            const uint32_t task = next_task++;
            bl.q[s][static_cast<int>(tag)].push_back(task);
            rq.push(s, tag, task);
            ++queued;
        } else {
            const ScanOracle::Choice want = oracle.pick(bl.view());
            auto &q = bl.q[want.stream][static_cast<int>(want.tag)];
            ASSERT_FALSE(q.empty());
            const uint32_t want_task = q.front();
            q.pop_front();
            --queued;
            const Choice got = rq.pop();
            ASSERT_EQ(got.stream, want.stream) << "step " << step;
            ASSERT_EQ(got.tag, want.tag) << "step " << step;
            ASSERT_EQ(got.task, want_task) << "step " << step;
            ASSERT_EQ(rq.served(got.stream), oracle.served(want.stream))
                << "step " << step;
        }
        ASSERT_EQ(rq.size(), queued);
    }
    for (uint32_t i = 0; i < streams; ++i) {
        EXPECT_EQ(rq.served(idOf(i)), oracle.served(idOf(i)));
        EXPECT_EQ(rq.weight(idOf(i)), oracle.weight(idOf(i)));
    }
}

TEST(FairScheduler, RunQueueMatchesTheScanOracle)
{
    // 8 x 15k = 120k steps over 1 to 300 streams.
    const uint32_t kStreams[] = {1, 2, 3, 5, 17, 64, 150, 300};
    uint64_t seed = 1;
    for (const uint32_t n : kStreams) {
        SCOPED_TRACE(testing::Message() << n << " streams");
        runDifferential(n, seed++, 15000);
        if (HasFatalFailure())
            return;
    }
}

TEST(FairSchedulerDeath, PopFromEmptyPanics)
{
    FairScheduler s;
    EXPECT_DEATH(s.pop(), "empty run queue");
}

} // namespace
} // namespace sbhbm::runtime
