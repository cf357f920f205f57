/**
 * @file
 * Fluid-flow bandwidth sharing for one memory tier.
 *
 * Every active memory stream ("flow") has a remaining byte count and a
 * per-flow rate cap (what a single core can pull for that access
 * pattern). The tier grants max-min fair shares of its aggregate
 * bandwidth, with the random-access sub-mix additionally capped at the
 * tier's random-access peak. The Machine advances flows between
 * events and asks for the next completion time.
 *
 * Flows live in one vector in arrival order, which is the order of
 * every pass: the waterfill's input, each floating-point sum and the
 * order in which drained flows are reaped. A flow names the Machine
 * task it belongs to by a 32-bit id instead of holding a callback,
 * and recompute() sorts in a member scratch vector, so the arbiter
 * allocates nothing once its vectors have grown to the run's peak.
 */

#ifndef SBHBM_SIM_BANDWIDTH_ARBITER_H
#define SBHBM_SIM_BANDWIDTH_ARBITER_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/units.h"
#include "sim/tier.h"

namespace sbhbm::sim {

/** Max-min fair fluid bandwidth model for a single tier. */
class BandwidthArbiter
{
  public:
    BandwidthArbiter(double peak_seq_bw, double peak_rand_bw)
        : peak_seq_bw_(peak_seq_bw), peak_rand_bw_(peak_rand_bw)
    {
    }

    /**
     * Register a new flow. Caller must have advanced the arbiter to
     * the current time first and must recompute() afterwards.
     *
     * @param bytes    bytes to transfer.
     * @param cap_bps  per-flow bandwidth cap (bytes/sec).
     * @param pattern  sequential or random; random flows share the
     *                 (smaller) random-access aggregate budget.
     * @param task     the owner's id for the flow, handed back by
     *                 reapCompleted() once the flow drains.
     */
    void
    add(double bytes, double cap_bps, AccessPattern pattern,
        uint32_t task)
    {
        sbhbm_assert(bytes > 0 && cap_bps > 0,
                     "flow needs positive bytes/cap");
        flows_.push_back(FlowState{bytes, cap_bps, 0.0, pattern, task});
        changed_ = true;
    }

    /** Drain bytes at the current rate allocation up to time @p now. */
    void
    advanceTo(SimTime now)
    {
        sbhbm_assert(now >= last_update_, "arbiter time went backwards");
        const double dt = static_cast<double>(now - last_update_) * 1e-9;
        last_update_ = now;
        if (dt <= 0)
            return;
        for (FlowState &f : flows_) {
            const double moved = f.rate * dt;
            cumulative_bytes_ += std::min(moved, f.remaining);
            f.remaining -= moved;
            if (f.remaining < kEpsilonBytes)
                f.remaining = 0;
        }
    }

    /**
     * Remove drained flows and append their task ids to @p done, in
     * arrival order, for the Machine to finish (outside the arbiter,
     * since finishing a task may add new flows).
     */
    void
    reapCompleted(std::vector<uint32_t> &done)
    {
        size_t kept = 0;
        for (const FlowState &f : flows_) {
            if (f.remaining <= 0)
                done.push_back(f.task);
            else
                flows_[kept++] = f;
        }
        changed_ = changed_ || kept != flows_.size();
        flows_.resize(kept);
    }

    /**
     * Recompute the max-min fair allocation. Two stages: random flows
     * first share peak_rand_bw among themselves (their grants become
     * caps), then all flows share peak_seq_bw. The allocation depends
     * only on the flows' caps and patterns, in order, so it is kept
     * while no flow has arrived or left since the last one.
     */
    void
    recompute()
    {
        if (!changed_)
            return;
        changed_ = false;
        if (flows_.empty()) {
            current_rate_ = 0;
            return;
        }

        // Stage 1: cap the random-access sub-mix.
        scratch_.clear();
        for (FlowState &f : flows_) {
            f.effective_cap = f.cap;
            if (f.pattern == AccessPattern::kRandom)
                scratch_.push_back(&f);
        }
        if (!scratch_.empty() && peak_rand_bw_ > 0) {
            waterfill(scratch_, peak_rand_bw_,
                      /* write_effective_cap = */ true);
        }

        // Stage 2: all flows share the tier's peak bandwidth.
        scratch_.clear();
        for (FlowState &f : flows_)
            scratch_.push_back(&f);
        current_rate_ = waterfill(scratch_, peak_seq_bw_,
                                  /* write_effective_cap = */ false);
    }

    /** @return absolute time of the earliest flow completion. */
    SimTime
    nextCompletion() const
    {
        double min_dt = -1;
        for (const FlowState &f : flows_) {
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

    /** Instantaneous aggregate granted bandwidth, bytes/sec. */
    double currentRate() const { return current_rate_; }

    /** Total bytes ever transferred through this tier. */
    double cumulativeBytes() const { return cumulative_bytes_; }

    /**
     * Total bytes transferred as of time @p now, including the accrual
     * of in-flight flows since the last advanceTo — what a bandwidth
     * counter read at @p now would report. Does not mutate state.
     */
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
        for (const FlowState &f : flows_)
            extra += std::min(f.rate * dt, f.remaining);
        return cumulative_bytes_ + extra;
    }

    size_t activeFlows() const { return flows_.size(); }

  private:
    static constexpr double kEpsilonBytes = 1e-3;

    struct FlowState
    {
        double remaining;      //!< bytes left
        double cap;            //!< per-flow cap, bytes/sec
        double rate;           //!< currently granted rate
        AccessPattern pattern;
        uint32_t task;            //!< the owner's id, from add()
        double effective_cap = 0; //!< cap after the random-mix stage
    };

    /**
     * Max-min fair waterfill of @p pool bytes/sec across @p flows,
     * honoring each flow's effective_cap.
     * @return the total allocated rate.
     */
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
    std::vector<FlowState> flows_; //!< in arrival order
    std::vector<FlowState *> scratch_; //!< recompute()'s waterfill input
    bool changed_ = false; //!< a flow arrived or left since recompute()
    SimTime last_update_ = 0;
    double current_rate_ = 0;
    double cumulative_bytes_ = 0;
};

} // namespace sbhbm::sim

#endif // SBHBM_SIM_BANDWIDTH_ARBITER_H
