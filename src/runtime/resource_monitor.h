/**
 * @file
 * Resource monitor (paper §5.1): samples HBM capacity usage and DRAM
 * bandwidth usage every 10 ms and refreshes the demand balance knob.
 *
 * On the real machine these come from the allocator's free-memory
 * counter and Intel PCM; here they come from the capacity gauges and
 * the machine's bandwidth arbiters — the same quantities, same
 * sampling interval.
 */

#ifndef SBHBM_RUNTIME_RESOURCE_MONITOR_H
#define SBHBM_RUNTIME_RESOURCE_MONITOR_H

#include <functional>
#include <vector>

#include "common/stats.h"
#include "common/units.h"
#include "mem/hybrid_memory.h"
#include "runtime/balance_knob.h"
#include "sim/machine.h"

namespace sbhbm::runtime {

/** One monitor sample (the raw series behind Fig 10). */
struct ResourceSample
{
    SimTime t = 0;
    uint64_t hbm_used_bytes = 0;
    double hbm_bw = 0;     //!< bytes/sec over the last interval
    double dram_bw = 0;    //!< bytes/sec over the last interval
    double k_low = 1.0;
    double k_high = 1.0;
};

/** Periodic sampler driving the balance knob. */
class ResourceMonitor
{
  public:
    /** Returns true when output delay has >= 10% headroom. */
    using HeadroomFn = std::function<bool()>;

    ResourceMonitor(sim::Machine &machine, mem::HybridMemory &hm,
                    BalanceKnob &knob, HeadroomFn headroom,
                    SimTime period = 10 * kNsPerMs)
        : machine_(machine), hm_(hm), knob_(knob),
          headroom_(std::move(headroom)), period_(period)
    {
    }

    ResourceMonitor(const ResourceMonitor &) = delete;
    ResourceMonitor &operator=(const ResourceMonitor &) = delete;

    /** Begin periodic sampling (idempotent). */
    void
    start()
    {
        if (running_)
            return;
        running_ = true;
        last_t_ = machine_.now();
        last_dram_bytes_ = machine_.tierCumulativeBytes(mem::Tier::kDram);
        last_hbm_bytes_ = machine_.tierCumulativeBytes(mem::Tier::kHbm);
        machine_.after(period_, [this] { tick(); }, /*daemon=*/true);
    }

    /** Stop sampling after the next tick. */
    void stop() { running_ = false; }

    bool running() const { return running_; }

    const std::vector<ResourceSample> &samples() const { return samples_; }

    /** Peak/average DRAM bandwidth over all samples, bytes/sec. */
    const RunningStat &dramBwStat() const { return dram_bw_stat_; }
    const RunningStat &hbmBwStat() const { return hbm_bw_stat_; }
    const RunningStat &hbmUsedStat() const { return hbm_used_stat_; }

  private:
    void
    tick()
    {
        if (!running_)
            return;

        const SimTime now = machine_.now();
        const double dram_cum =
            machine_.tierCumulativeBytes(mem::Tier::kDram);
        const double hbm_cum =
            machine_.tierCumulativeBytes(mem::Tier::kHbm);
        const double dt = simToSeconds(now - last_t_);

        ResourceSample s;
        s.t = now;
        s.hbm_used_bytes = hm_.gauge(mem::Tier::kHbm).used();
        s.dram_bw = dt > 0 ? (dram_cum - last_dram_bytes_) / dt : 0.0;
        s.hbm_bw = dt > 0 ? (hbm_cum - last_hbm_bytes_) / dt : 0.0;

        const auto &cfg = machine_.config();
        const double hbm_cap_frac =
            hm_.gauge(mem::Tier::kHbm).usedFraction();
        const double dram_bw_frac =
            cfg.dram.peak_seq_bw > 0 ? s.dram_bw / cfg.dram.peak_seq_bw
                                     : 0.0;
        knob_.update(hbm_cap_frac, dram_bw_frac,
                     headroom_ ? headroom_() : true);
        s.k_low = knob_.kLow();
        s.k_high = knob_.kHigh();

        samples_.push_back(s);
        dram_bw_stat_.add(s.dram_bw);
        hbm_bw_stat_.add(s.hbm_bw);
        hbm_used_stat_.add(static_cast<double>(s.hbm_used_bytes));

        last_t_ = now;
        last_dram_bytes_ = dram_cum;
        last_hbm_bytes_ = hbm_cum;
        machine_.after(period_, [this] { tick(); }, /*daemon=*/true);
    }

    sim::Machine &machine_;
    mem::HybridMemory &hm_;
    BalanceKnob &knob_;
    HeadroomFn headroom_;
    SimTime period_;
    bool running_ = false;

    SimTime last_t_ = 0;
    double last_dram_bytes_ = 0;
    double last_hbm_bytes_ = 0;

    std::vector<ResourceSample> samples_;
    RunningStat dram_bw_stat_;
    RunningStat hbm_bw_stat_;
    RunningStat hbm_used_stat_;
};

} // namespace sbhbm::runtime

#endif // SBHBM_RUNTIME_RESOURCE_MONITOR_H
