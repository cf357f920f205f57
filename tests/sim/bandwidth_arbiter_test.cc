#include "sim/bandwidth_arbiter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace sbhbm::sim {
namespace {

constexpr double kPeakSeq = 100e9; // 100 GB/s
constexpr double kPeakRand = 40e9; // 40 GB/s

TEST(BandwidthArbiter, SingleFlowRunsAtItsCap)
{
    BandwidthArbiter arb(kPeakSeq, kPeakRand);
    arb.add(10e9, 10e9, AccessPattern::kSequential, 7);
    arb.recompute();
    EXPECT_DOUBLE_EQ(arb.currentRate(), 10e9);

    // 10 GB at 10 GB/s => 1 second.
    const SimTime fin = arb.nextCompletion();
    EXPECT_NEAR(static_cast<double>(fin), 1e9, 1e3);

    arb.advanceTo(fin);
    std::vector<uint32_t> done;
    arb.reapCompleted(done);
    EXPECT_EQ(done, std::vector<uint32_t>{7});
    EXPECT_EQ(arb.activeFlows(), 0u);
}

TEST(BandwidthArbiter, FlowsShareEqualUnderContention)
{
    BandwidthArbiter arb(kPeakSeq, kPeakRand);
    // 20 flows, each capped at 10 GB/s => demand 200 GB/s > 100 peak.
    for (int i = 0; i < 20; ++i)
        arb.add(1e9, 10e9, AccessPattern::kSequential, 0);
    arb.recompute();
    // Aggregate pinned at the tier peak.
    EXPECT_NEAR(arb.currentRate(), kPeakSeq, 1);
    // Each flow gets 5 GB/s => 1 GB in 0.2 s.
    EXPECT_NEAR(static_cast<double>(arb.nextCompletion()), 0.2e9, 1e3);
}

TEST(BandwidthArbiter, UncappedDemandBelowPeakIsFullyGranted)
{
    BandwidthArbiter arb(kPeakSeq, kPeakRand);
    for (int i = 0; i < 4; ++i)
        arb.add(1e9, 10e9, AccessPattern::kSequential, 0);
    arb.recompute();
    EXPECT_NEAR(arb.currentRate(), 40e9, 1);
}

TEST(BandwidthArbiter, RandomMixCappedAtRandomPeak)
{
    BandwidthArbiter arb(kPeakSeq, kPeakRand);
    // 50 random flows wanting 2 GB/s each = 100 GB/s demand, but the
    // random-access aggregate is only 40 GB/s.
    for (int i = 0; i < 50; ++i)
        arb.add(1e9, 2e9, AccessPattern::kRandom, 0);
    arb.recompute();
    EXPECT_NEAR(arb.currentRate(), kPeakRand, 1);
}

TEST(BandwidthArbiter, SequentialTrafficUnaffectedByRandomCap)
{
    BandwidthArbiter arb(kPeakSeq, kPeakRand);
    for (int i = 0; i < 50; ++i)
        arb.add(1e9, 2e9, AccessPattern::kRandom, 0);
    for (int i = 0; i < 10; ++i)
        arb.add(1e9, 6e9, AccessPattern::kSequential, 0);
    arb.recompute();
    // Random mix saturates at 40, sequential adds its full 60.
    EXPECT_NEAR(arb.currentRate(), 100e9, 1e6);
}

TEST(BandwidthArbiter, MaxMinHonorsSmallCaps)
{
    BandwidthArbiter arb(kPeakSeq, kPeakRand);
    // One tiny-cap flow and three big ones; the tiny one must get its
    // full cap, the rest split the remainder.
    arb.add(1e9, 1e9, AccessPattern::kSequential, 0);
    for (int i = 0; i < 3; ++i)
        arb.add(1e9, 50e9, AccessPattern::kSequential, 0);
    arb.recompute();
    EXPECT_NEAR(arb.currentRate(), 1e9 + 3 * 33e9, 1e8);
}

TEST(BandwidthArbiter, RatesRecomputeWhenAFlowLeaves)
{
    BandwidthArbiter arb(kPeakSeq, kPeakRand);
    std::vector<uint32_t> done;
    // Flow A: 1 GB; Flow B: 10 GB; both capped 60 GB/s. They share
    // 50/50 until A drains, then B runs at its cap.
    arb.add(1e9, 60e9, AccessPattern::kSequential, 1);
    arb.add(10e9, 60e9, AccessPattern::kSequential, 2);
    arb.recompute();

    // Shared phase: each at 50 GB/s; A finishes at 20 ms.
    SimTime t1 = arb.nextCompletion();
    EXPECT_NEAR(static_cast<double>(t1), 0.02e9, 1e4);
    arb.advanceTo(t1);
    arb.reapCompleted(done);
    EXPECT_EQ(done, std::vector<uint32_t>{1});
    arb.recompute();
    EXPECT_NEAR(arb.currentRate(), 60e9, 1);

    // B had 10 - 1 = 9 GB left, now at 60 GB/s => 150 ms more.
    SimTime t2 = arb.nextCompletion();
    EXPECT_NEAR(static_cast<double>(t2 - t1), 0.15e9, 1e5);
    arb.advanceTo(t2);
    arb.reapCompleted(done);
    EXPECT_EQ(done, (std::vector<uint32_t>{1, 2}));
}

TEST(BandwidthArbiter, CumulativeBytesTracksDrainedTraffic)
{
    BandwidthArbiter arb(kPeakSeq, kPeakRand);
    arb.add(2e9, 10e9, AccessPattern::kSequential, 0);
    arb.recompute();
    arb.advanceTo(100 * kNsPerMs); // 0.1 s at 10 GB/s = 1 GB
    EXPECT_NEAR(arb.cumulativeBytes(), 1e9, 1e6);
    arb.advanceTo(arb.nextCompletion());
    EXPECT_NEAR(arb.cumulativeBytes(), 2e9, 1e6);
    // Cumulative counter never overshoots the flow's byte count.
    arb.advanceTo(arb.nextCompletion());
}

// -------------------------------------------------------------------
// The map-based arbiter the flow vector replaced, as a reference: one
// std::map node per flow, keyed by a FlowId in arrival order, and two
// fresh vectors per recompute(). Only the completion callback became
// the task id.
// -------------------------------------------------------------------

class MapArbiter
{
  public:
    using FlowId = uint64_t;

    MapArbiter(double peak_seq_bw, double peak_rand_bw)
        : peak_seq_bw_(peak_seq_bw), peak_rand_bw_(peak_rand_bw)
    {
    }

    FlowId
    add(double bytes, double cap_bps, AccessPattern pattern, uint32_t task)
    {
        FlowId id = next_id_++;
        flows_.emplace(id, FlowState{bytes, cap_bps, 0.0, pattern, task});
        return id;
    }

    void
    advanceTo(SimTime now)
    {
        const double dt = static_cast<double>(now - last_update_) * 1e-9;
        last_update_ = now;
        if (dt <= 0)
            return;
        for (auto &[id, f] : flows_) {
            const double moved = f.rate * dt;
            cumulative_bytes_ += std::min(moved, f.remaining);
            f.remaining -= moved;
            if (f.remaining < kEpsilonBytes)
                f.remaining = 0;
        }
    }

    std::vector<uint32_t>
    reapCompleted()
    {
        std::vector<uint32_t> done;
        for (auto it = flows_.begin(); it != flows_.end();) {
            if (it->second.remaining <= 0) {
                done.push_back(it->second.task);
                it = flows_.erase(it);
            } else {
                ++it;
            }
        }
        return done;
    }

    void
    recompute()
    {
        if (flows_.empty()) {
            current_rate_ = 0;
            return;
        }
        std::vector<FlowState *> rand_flows;
        for (auto &[id, f] : flows_) {
            f.effective_cap = f.cap;
            if (f.pattern == AccessPattern::kRandom)
                rand_flows.push_back(&f);
        }
        if (!rand_flows.empty() && peak_rand_bw_ > 0)
            waterfill(rand_flows, peak_rand_bw_, true);
        std::vector<FlowState *> all;
        all.reserve(flows_.size());
        for (auto &[id, f] : flows_)
            all.push_back(&f);
        current_rate_ = waterfill(all, peak_seq_bw_, false);
    }

    SimTime
    nextCompletion() const
    {
        double min_dt = -1;
        for (const auto &[id, f] : flows_) {
            if (f.rate <= 0)
                continue;
            const double dt = f.remaining / f.rate;
            if (min_dt < 0 || dt < min_dt)
                min_dt = dt;
        }
        if (min_dt < 0)
            return kSimTimeNever;
        return last_update_ + static_cast<SimTime>(min_dt * 1e9) + 1;
    }

    double currentRate() const { return current_rate_; }
    double cumulativeBytes() const { return cumulative_bytes_; }

    double
    cumulativeBytesAt(SimTime now) const
    {
        const double dt = now >= last_update_
                              ? static_cast<double>(now - last_update_)
                                    * 1e-9
                              : 0.0;
        if (dt <= 0)
            return cumulative_bytes_;
        double extra = 0;
        for (const auto &[id, f] : flows_)
            extra += std::min(f.rate * dt, f.remaining);
        return cumulative_bytes_ + extra;
    }

    size_t activeFlows() const { return flows_.size(); }

  private:
    static constexpr double kEpsilonBytes = 1e-3;

    struct FlowState
    {
        double remaining;
        double cap;
        double rate;
        AccessPattern pattern;
        uint32_t task;
        double effective_cap = 0;
    };

    static double
    waterfill(std::vector<FlowState *> &flows, double pool,
              bool write_effective_cap)
    {
        std::sort(flows.begin(), flows.end(),
                  [](const FlowState *a, const FlowState *b) {
                      return a->effective_cap < b->effective_cap;
                  });
        double remaining = pool;
        double total = 0;
        size_t left = flows.size();
        for (FlowState *f : flows) {
            const double fair = remaining / static_cast<double>(left);
            const double grant = std::min(f->effective_cap, fair);
            if (write_effective_cap)
                f->effective_cap = grant;
            else
                f->rate = grant;
            remaining -= grant;
            total += grant;
            --left;
        }
        return total;
    }

    double peak_seq_bw_;
    double peak_rand_bw_;
    std::map<FlowId, FlowState> flows_;
    FlowId next_id_ = 0;
    SimTime last_update_ = 0;
    double current_rate_ = 0;
    double cumulative_bytes_ = 0;
};

/**
 * Random adds, advances, reaps and recomputes on both arbiters. Flows
 * come in batches with bytes and caps drawn from short lists, so equal
 * caps tie in the waterfill's sort and equal flows drain at the same
 * instant; every observable must match bit for bit.
 */
void
runAgainstMapArbiter(double peak_rand, uint64_t seed, int steps)
{
    static constexpr double kBytes[] = {4096, 65536, 1e6, 1e6, 3.3e6, 5e7};
    static constexpr double kCaps[] = {2e9, 5e9, 10e9, 10e9, 25e9};
    Rng rng(seed);
    BandwidthArbiter arb(kPeakSeq, peak_rand);
    MapArbiter ref(kPeakSeq, peak_rand);
    SimTime now = 0;
    uint32_t next_task = 0;
    std::vector<uint32_t> got;
    for (int step = 0; step < steps; ++step) {
        // At most about 50 flows in flight, as on a 16-core shard.
        const uint64_t op = rng.nextBounded(4);
        switch (op == 0 && ref.activeFlows() >= 48 ? 1 : op) {
        case 0: { // a batch of flows, some identical
            const uint64_t n = 1 + rng.nextBounded(4);
            const double bytes = kBytes[rng.nextBounded(6)];
            for (uint64_t i = 0; i < n; ++i) {
                const double cap = kCaps[rng.nextBounded(5)];
                const AccessPattern pat = rng.nextBounded(3) == 0
                                              ? AccessPattern::kRandom
                                              : AccessPattern::kSequential;
                const double b = rng.nextBounded(2) == 0 ? bytes
                                                         : kBytes[i % 6];
                arb.add(b, cap, pat, next_task);
                ref.add(b, cap, pat, next_task);
                ++next_task;
            }
            break;
        }
        case 1: { // to the next completion, or a little way
            const SimTime next = ref.nextCompletion();
            now = next != kSimTimeNever && rng.nextBounded(4) != 0
                      ? std::max(now, next)
                      : now + 1 + rng.nextBounded(200000);
            arb.advanceTo(now);
            ref.advanceTo(now);
            break;
        }
        case 2:
            got.clear();
            arb.reapCompleted(got);
            ASSERT_EQ(got, ref.reapCompleted()) << "step " << step;
            break;
        default:
            arb.recompute();
            ref.recompute();
            break;
        }
        ASSERT_EQ(arb.currentRate(), ref.currentRate()) << "step " << step;
        ASSERT_EQ(arb.nextCompletion(), ref.nextCompletion())
            << "step " << step;
        ASSERT_EQ(arb.cumulativeBytes(), ref.cumulativeBytes())
            << "step " << step;
        ASSERT_EQ(arb.cumulativeBytesAt(now + 12345),
                  ref.cumulativeBytesAt(now + 12345))
            << "step " << step;
        ASSERT_EQ(arb.activeFlows(), ref.activeFlows()) << "step " << step;
    }
}

TEST(BandwidthArbiter, FlowVectorMatchesTheMapArbiterBitForBit)
{
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        runAgainstMapArbiter(kPeakRand, seed, 20000);
        if (HasFatalFailure())
            return;
    }
    // No random-access budget: stage 1 is skipped.
    runAgainstMapArbiter(0, 5, 20000);
}

TEST(BandwidthArbiterDeath, ZeroByteFlowPanics)
{
    BandwidthArbiter arb(kPeakSeq, kPeakRand);
    EXPECT_DEATH(arb.add(0, 1e9, AccessPattern::kSequential, 0),
                 "positive bytes");
}

} // namespace
} // namespace sbhbm::sim
