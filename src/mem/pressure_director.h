/**
 * @file
 * The pressure director: the feedback half of the memory control
 * plane. The balance knob only steers *future* allocations — once a
 * KPA landed in HBM it used to stay there until freed, so a burst of
 * long-lived window state could pin HBM at capacity while the knob
 * helplessly spilled everything new. The director closes the loop
 * (working-set-driven pressure control in the spirit of the PML
 * study): when HBM usage crosses the high-water threshold it walks
 * the registered cold-state providers (pipeline operators holding
 * window state) and *demotes* cold KPAs to DRAM via
 * HybridMemory::migrate until usage drops back to the low-water
 * target, charging the migration traffic to the machine.
 *
 * The director is ticked by the runtime's ResourceMonitor at every
 * sample, right after the knob refresh. With `enabled = false` (the
 * default) tick() is a no-op and every figure and example reproduces
 * the pre-control-plane output bit for bit.
 */

#ifndef SBHBM_MEM_PRESSURE_DIRECTOR_H
#define SBHBM_MEM_PRESSURE_DIRECTOR_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/logging.h"
#include "mem/hybrid_memory.h"
#include "sim/traffic.h"

namespace sbhbm::mem {

/** What one provider demoted during a sweep. */
struct DemoteResult
{
    uint64_t charged_bytes = 0; //!< gauge bytes freed from HBM
    uint32_t kpas = 0;          //!< blocks migrated
};

/**
 * Something that owns demotable HBM state (a pipeline operator's
 * accumulated window runs). Providers register with the director and
 * are swept in registration order — which is operator construction
 * order, hence deterministic.
 */
class ColdStateProvider
{
  public:
    virtual ~ColdStateProvider() = default;

    /** Stream (tenant) the demoted state is accounted to. */
    virtual uint32_t providerStream() const { return 0; }

    /**
     * Demote cold HBM state until about @p want_charged_bytes of
     * gauge capacity is freed, charging the migration traffic (read
     * source tier, write destination) to @p log. Must demote coldest
     * state first and never touch state on the close critical path.
     */
    virtual DemoteResult demoteColdState(uint64_t want_charged_bytes,
                                         sim::CostLog &log) = 0;

    /**
     * Generalized relief: move cold state off @p from onto @p to until
     * ~@p want_charged_bytes of @p from's gauge capacity is freed. The
     * exhaustion path uses this in both directions (DRAM exhaustion is
     * relieved by *promoting* cold state into spare HBM). Providers
     * with nothing relocatable keep the default no-op.
     */
    virtual DemoteResult
    relocateColdState(Tier from, Tier to, uint64_t want_charged_bytes,
                      sim::CostLog &log)
    {
        (void)from;
        (void)to;
        (void)want_charged_bytes;
        (void)log;
        return {};
    }
};

/** Demotion control knobs. */
struct PressureConfig
{
    /** Master switch; off reproduces pre-control-plane behavior. */
    bool enabled = false;

    /** HBM used fraction above which demotion starts (matches the
     *  balance knob's hbm_high default, so the knob and the director
     *  engage at the same pressure). */
    double high_water = 0.80;

    /** Used fraction demotion drives back down to. */
    double low_water = 0.65;

    /** Migration budget per tick, charged gauge bytes. */
    uint64_t max_bytes_per_tick = 64ull << 20;
};

/** Sweeps cold-state providers when HBM runs hot. */
class PressureDirector
{
  public:
    PressureDirector(HybridMemory &hm, PressureConfig cfg)
        : hm_(hm), cfg_(cfg)
    {
        sbhbm_assert(cfg.low_water <= cfg.high_water,
                     "low water above high water");
    }

    PressureDirector(const PressureDirector &) = delete;
    PressureDirector &operator=(const PressureDirector &) = delete;

    const PressureConfig &config() const { return cfg_; }

    /** Register a provider (swept in registration order). */
    void
    registerProvider(ColdStateProvider *p)
    {
        providers_.push_back(p);
    }

    /** Remove a registered provider (pipeline teardown). */
    void
    unregisterProvider(ColdStateProvider *p)
    {
        for (auto it = providers_.begin(); it != providers_.end(); ++it) {
            if (*it == p) {
                providers_.erase(it);
                return;
            }
        }
    }

    /**
     * One control decision: demote cold state when HBM usage is above
     * the high-water threshold, down to the low-water target (bounded
     * by the per-tick budget). @return the migration traffic to charge
     * to the machine; empty when no demotion happened.
     */
    sim::CostLog
    tick()
    {
        sim::CostLog log;
        if (!cfg_.enabled || hm_.mode() != sim::MemoryMode::kFlat)
            return log;
        const CapacityGauge &g = hm_.gauge(Tier::kHbm);
        if (g.capacity() == 0 || g.usedFraction() <= cfg_.high_water)
            return log;

        const auto target = static_cast<uint64_t>(
            cfg_.low_water * static_cast<double>(g.capacity()));
        uint64_t want = g.used() > target ? g.used() - target : 0;
        want = std::min(want, cfg_.max_bytes_per_tick);
        if (want == 0)
            return log;
        ++pressure_ticks_;

        for (ColdStateProvider *p : providers_) {
            if (want == 0)
                break;
            const DemoteResult r = p->demoteColdState(want, log);
            want -= std::min(want, r.charged_bytes);
            demoted_bytes_ += r.charged_bytes;
            demoted_kpas_ += r.kpas;
            if (r.kpas > 0) {
                StreamStats &ss = by_stream_[p->providerStream()];
                ss.charged_bytes += r.charged_bytes;
                ss.kpas += r.kpas;
                last_sweep_[p->providerStream()] += r.charged_bytes;
            }
        }
        return log;
    }

    /**
     * Exhaustion relief: free about @p want gauge bytes on the
     * @p exhausted tier by relocating cold state to the other tier,
     * charging the copy traffic to @p log. Unlike tick() this runs
     * even when the steady-state loop is disabled — it is the last
     * resort before load shedding, invoked from HybridMemory's
     * exhaustion handler.
     */
    DemoteResult
    emergencySweep(Tier exhausted, uint64_t want, sim::CostLog &log)
    {
        DemoteResult total;
        if (hm_.mode() != sim::MemoryMode::kFlat || want == 0)
            return total;
        const Tier to =
            exhausted == Tier::kHbm ? Tier::kDram : Tier::kHbm;
        for (ColdStateProvider *p : providers_) {
            if (total.charged_bytes >= want)
                break;
            const DemoteResult r = p->relocateColdState(
                exhausted, to, want - total.charged_bytes, log);
            total.charged_bytes += r.charged_bytes;
            total.kpas += r.kpas;
            if (r.kpas > 0)
                last_sweep_[p->providerStream()] += r.charged_bytes;
        }
        return total;
    }

    /** Ticks that found pressure above the high-water threshold. */
    uint64_t pressureTicks() const { return pressure_ticks_; }

    /** Total gauge bytes demoted from HBM since boot. */
    uint64_t demotedBytes() const { return demoted_bytes_; }

    /** Total KPAs demoted since boot. */
    uint64_t demotedKpas() const { return demoted_kpas_; }

    /** Per-stream demotion totals. */
    uint64_t
    demotedBytes(uint32_t stream) const
    {
        auto it = by_stream_.find(stream);
        return it == by_stream_.end() ? 0 : it->second.charged_bytes;
    }

    uint64_t
    demotedKpas(uint32_t stream) const
    {
        auto it = by_stream_.find(stream);
        return it == by_stream_.end() ? 0 : it->second.kpas;
    }

    // ---------------------------------------------------------------
    // Sweep stall attribution. A sweep's migration traffic runs
    // DMA-style in virtual time; the streams whose state moved see
    // that as memory stall. The sweep caller (monitor tick, engine
    // exhaustion handler) takes the per-stream byte shares recorded
    // by the last sweep, then — once the machine finishes charging
    // the copy — hands the measured duration back to be split across
    // those streams proportionally to bytes moved.
    // ---------------------------------------------------------------

    /** Per-stream gauge bytes moved by the last sweep (then reset). */
    std::map<uint32_t, uint64_t>
    takeLastSweepShares()
    {
        std::map<uint32_t, uint64_t> out;
        out.swap(last_sweep_);
        return out;
    }

    /** Split @p ns of sweep stall across @p shares by byte weight. */
    void
    addSweepStallNs(const std::map<uint32_t, uint64_t> &shares,
                    uint64_t ns)
    {
        uint64_t total = 0;
        for (const auto &[stream, bytes] : shares)
            total += bytes;
        if (total == 0)
            return;
        for (const auto &[stream, bytes] : shares) {
            stall_ns_by_stream_[stream] +=
                static_cast<uint64_t>(static_cast<double>(ns)
                                      * static_cast<double>(bytes)
                                      / static_cast<double>(total));
        }
    }

    /** Cumulative sweep-stall ns attributed to @p stream. */
    uint64_t
    sweepStallNs(uint32_t stream) const
    {
        auto it = stall_ns_by_stream_.find(stream);
        return it == stall_ns_by_stream_.end() ? 0 : it->second;
    }

  private:
    struct StreamStats
    {
        uint64_t charged_bytes = 0;
        uint64_t kpas = 0;
    };

    HybridMemory &hm_;
    PressureConfig cfg_;
    std::vector<ColdStateProvider *> providers_;
    uint64_t pressure_ticks_ = 0;
    uint64_t demoted_bytes_ = 0;
    uint64_t demoted_kpas_ = 0;
    std::map<uint32_t, StreamStats> by_stream_;
    std::map<uint32_t, uint64_t> last_sweep_;
    std::map<uint32_t, uint64_t> stall_ns_by_stream_;
};

} // namespace sbhbm::mem

#endif // SBHBM_MEM_PRESSURE_DIRECTOR_H
