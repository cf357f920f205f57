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
 * sample, right after the knob refresh. Disabled (the default; the
 * engine enables it with EngineConfig::control_plane) tick() is a
 * no-op and every figure and example reproduces the
 * pre-control-plane output bit for bit. The monitor charges each
 * sweep's copy traffic through chargeSweep().
 */

#ifndef SBHBM_MEM_PRESSURE_DIRECTOR_H
#define SBHBM_MEM_PRESSURE_DIRECTOR_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/logging.h"
#include "common/units.h"
#include "mem/hybrid_memory.h"
#include "obs/trace.h"
#include "runtime/balance_knob.h"
#include "sim/machine.h"
#include "sim/traffic.h"

namespace sbhbm::mem {

/** What one provider demoted during a sweep. */
struct DemoteResult
{
    uint64_t charged_bytes = 0; //!< gauge bytes freed from HBM
    uint32_t kpas = 0;          //!< blocks migrated
};

/**
 * Something that owns demotable HBM state (a grouping operator's
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
     * Demote cold state from HBM to DRAM until about
     * @p want_charged_bytes of HBM gauge capacity is freed, charging
     * the migration traffic (read HBM, write DRAM) to @p log. Must
     * move coldest state first and never touch state on the close
     * critical path.
     */
    virtual DemoteResult demoteColdState(uint64_t want_charged_bytes,
                                         sim::CostLog &log) = 0;
};

/** Sweeps cold-state providers when HBM runs hot. */
class PressureDirector
{
  public:
    /** HBM used fraction above which demotion starts: the balance
     *  knob's own threshold, so the two engage at the same pressure. */
    static constexpr double kHighWater = runtime::BalanceKnob::kHbmHigh;

    /** Used fraction a sweep drives HBM back down to. */
    static constexpr double kLowWater = 0.65;
    static_assert(kLowWater <= kHighWater, "low water above high water");

    /** Migration budget per tick, charged gauge bytes. */
    static constexpr uint64_t kMaxBytesPerTick = 64ull << 20;

    /** @param enabled off makes every tick() a no-op. */
    PressureDirector(HybridMemory &hm, bool enabled)
        : hm_(hm), enabled_(enabled)
    {
    }

    PressureDirector(const PressureDirector &) = delete;
    PressureDirector &operator=(const PressureDirector &) = delete;

    /** Install the telemetry plane sweep spans are recorded on (null
     *  disables recording); @p shard labels them. */
    void
    setTelemetry(obs::Telemetry *t, uint32_t shard)
    {
        tele_ = t;
        shard_ = shard;
    }

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

    /** What one tick demoted. */
    struct Sweep
    {
        sim::CostLog log; //!< migration traffic to charge
        std::map<uint32_t, uint64_t> shares; //!< bytes moved per stream
    };

    /**
     * One control decision: demote cold state when HBM usage is above
     * the high-water threshold, down to the low-water target (bounded
     * by the per-tick budget). @return the sweep to charge to the
     * machine; its log is empty when no demotion happened.
     */
    Sweep
    tick()
    {
        Sweep sweep;
        if (!enabled_ || hm_.mode() != sim::MemoryMode::kFlat)
            return sweep;
        const CapacityGauge &g = hm_.gauge(Tier::kHbm);
        if (g.capacity() == 0 || g.usedFraction() <= kHighWater)
            return sweep;

        const auto target = static_cast<uint64_t>(
            kLowWater * static_cast<double>(g.capacity()));
        uint64_t want = g.used() > target ? g.used() - target : 0;
        want = std::min(want, kMaxBytesPerTick);
        if (want == 0)
            return sweep;
        ++pressure_ticks_;

        for (ColdStateProvider *p : providers_) {
            if (want == 0)
                break;
            const DemoteResult r = p->demoteColdState(want, sweep.log);
            want -= std::min(want, r.charged_bytes);
            demoted_bytes_ += r.charged_bytes;
            demoted_kpas_ += r.kpas;
            if (r.kpas > 0) {
                StreamStats &ss = by_stream_[p->providerStream()];
                ss.charged_bytes += r.charged_bytes;
                ss.kpas += r.kpas;
                sweep.shares[p->providerStream()] += r.charged_bytes;
            }
        }
        return sweep;
    }

    /**
     * Charge @p sweep's migration traffic to @p machine DMA-style: it
     * consumes tier bandwidth in virtual time without occupying a core
     * slot. The copy time is memory stall for the streams whose state
     * moved: once the charge completes, its duration is split across
     * them by the bytes each moved, and with telemetry installed the
     * sweep is recorded as a "pressure" span (single-threaded control
     * path, so trace-safe).
     */
    void
    chargeSweep(sim::Machine &machine, Sweep sweep)
    {
        const SimTime t0 = machine.now();
        machine.execute(
            std::move(sweep.log),
            [this, &machine, t0, shares = std::move(sweep.shares)] {
                const SimTime dur = machine.now() - t0;
                addSweepStallNs(shares, dur);
                if (tele_ == nullptr)
                    return;
                uint64_t bytes = 0;
                for (const auto &[stream, b] : shares)
                    bytes += b;
                tele_->trace.span(t0, dur, shard_, 0, "pressure",
                                  "pressure_sweep",
                                  {{"charged_bytes", bytes},
                                   {"streams", shares.size()}});
            });
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

    HybridMemory &hm_;
    bool enabled_;
    std::vector<ColdStateProvider *> providers_;
    uint64_t pressure_ticks_ = 0;
    uint64_t demoted_bytes_ = 0;
    uint64_t demoted_kpas_ = 0;
    std::map<uint32_t, StreamStats> by_stream_;
    std::map<uint32_t, uint64_t> stall_ns_by_stream_;
    obs::Telemetry *tele_ = nullptr;
    uint32_t shard_ = 0;
};

} // namespace sbhbm::mem

#endif // SBHBM_MEM_PRESSURE_DIRECTOR_H
