/**
 * @file
 * The hybrid HBM+DRAM memory system seen by the engine.
 *
 * Responsibilities:
 *  - placement: allocate blocks on a requested tier, spilling to DRAM
 *    when HBM is out of (non-reserved) capacity;
 *  - accounting: per-tier capacity gauges the resource monitor samples;
 *  - traffic charging: translate "this code touched N bytes of that
 *    object" into CostLog flows, honoring the memory mode.
 *
 * Memory modes (paper §6, "flat" vs "cache"):
 *  - kFlat: both tiers addressable; the engine controls placement.
 *  - kCache: HBM is a hardware-managed cache in front of DRAM. All
 *    objects live logically in DRAM; accesses hit HBM with a
 *    working-set-dependent probability and pay DRAM for the misses.
 *  - kDramOnly: HBM disabled (the StreamBox-HBM DRAM ablation).
 */

#ifndef SBHBM_MEM_HYBRID_MEMORY_H
#define SBHBM_MEM_HYBRID_MEMORY_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <utility>

#include "common/logging.h"
#include "mem/capacity_gauge.h"
#include "mem/slab_allocator.h"
#include "sim/machine_config.h"
#include "sim/traffic.h"

namespace sbhbm::mem {

using sim::AccessPattern;
using sim::Tier;

/**
 * Typed allocation failure. Thrown instead of aborting when the owner
 * opted into recoverable exhaustion (setThrowOnExhaustion) — the
 * serving layer's shed path catches it at the task dispatch boundary,
 * counts the task as shed and keeps the pipeline draining. Default
 * behaviour (no opt-in) is still the hard sbhbm_fatal, so every
 * single-pipeline run reproduces the pre-fault-tolerance output.
 */
struct AllocFailure
{
    Tier want = Tier::kDram;   //!< tier the allocation asked for
    uint64_t bytes = 0;        //!< charged size-class bytes requested
    bool injected = false;     //!< fired by fault injection, not capacity
};

/** A placed allocation. */
struct Block
{
    void *ptr = nullptr;
    uint64_t bytes = 0;        //!< requested size
    uint64_t charged_bytes = 0; //!< size-class size charged to the gauge
    Tier tier = Tier::kDram;   //!< tier actually granted
    uint32_t stream = 0;       //!< owning stream (tenant); 0 = default

    explicit operator bool() const { return ptr != nullptr; }
};

/**
 * Tier where state lives under memory mode @p mode on machine @p m:
 * HBM when it is software-visible (flat mode on a machine with HBM),
 * DRAM otherwise — cache and DRAM-only modes place everything in DRAM.
 */
inline Tier
stateTier(const sim::MachineConfig &m, sim::MemoryMode mode)
{
    return mode == sim::MemoryMode::kFlat && m.hasHbm() ? Tier::kHbm
                                                        : Tier::kDram;
}

/** Hybrid-memory manager: placement, accounting, traffic charging. */
class HybridMemory
{
  public:
    /** Fraction of HBM reserved for Urgent allocations (paper §5). */
    static constexpr double kUrgentReserveFraction = 0.05;

    HybridMemory(const sim::MachineConfig &cfg, sim::MemoryMode mode)
        : cfg_(cfg), mode_(mode)
    {
        const uint64_t hbm_cap = stateTier(cfg, mode) == Tier::kHbm
                                     ? cfg.hbm.capacity_bytes
                                     : 0;
        const auto reserve = static_cast<uint64_t>(
            static_cast<double>(hbm_cap) * kUrgentReserveFraction);
        gauges_[sim::tierIndex(Tier::kHbm)] =
            CapacityGauge(hbm_cap, reserve);
        gauges_[sim::tierIndex(Tier::kDram)] =
            CapacityGauge(cfg.dram.capacity_bytes, 0);
    }

    HybridMemory(const HybridMemory &) = delete;
    HybridMemory &operator=(const HybridMemory &) = delete;

    sim::MemoryMode mode() const { return mode_; }

    /**
     * Allocate @p bytes, preferring tier @p want.
     *
     * In flat mode an HBM request spills to DRAM when HBM is full
     * (paper §5: "When HBM is full, all future KPAs regardless of
     * their performance impact tag are forced to spill to DRAM").
     * In cache / DRAM-only mode everything is DRAM-resident.
     *
     * @param urgent may dip into the HBM urgent reserve.
     * @param stream owning stream (tenant) for per-stream occupancy.
     */
    Block
    alloc(uint64_t bytes, Tier want, bool urgent = false,
          uint32_t stream = 0)
    {
        sbhbm_assert(bytes > 0, "zero-byte allocation");
        Tier tier = want;
        if (mode_ != sim::MemoryMode::kFlat)
            tier = Tier::kDram;

        const uint64_t charged = SlabAllocator::classSize(bytes);
        if (fail_next_allocs_ > 0) {
            // Injected fault: this allocation fails regardless of
            // capacity. The relief hook still runs (an emergency
            // demotion sweep frees HBM for what comes after), but the
            // failing request itself is lost — the caller's shed path
            // decides what that means.
            --fail_next_allocs_;
            ++injected_failures_;
            if (exhaustion_handler_)
                exhaustion_handler_(want, charged);
            if (throw_on_exhaustion_)
                throw AllocFailure{want, charged, /*injected=*/true};
            sbhbm_fatal("injected allocation failure: %llu bytes on %s",
                        (unsigned long long)charged, sim::tierName(want));
        }
        if (tier == Tier::kHbm
            && !mutableGauge(Tier::kHbm).tryReserve(charged, urgent)) {
            tier = Tier::kDram; // spill
        }
        if (tier == Tier::kDram
            && !mutableGauge(Tier::kDram).tryReserve(charged, urgent)) {
            // Genuine exhaustion: give the relief hook one chance to
            // free capacity (emergency demotion of cold state), then
            // retry once before declaring failure.
            if (exhaustion_handler_
                && exhaustion_handler_(Tier::kDram, charged)
                && mutableGauge(Tier::kDram).tryReserve(charged, urgent)) {
                // relieved
            } else if (throw_on_exhaustion_) {
                throw AllocFailure{Tier::kDram, charged};
            } else {
                sbhbm_fatal(
                    "simulated DRAM exhausted: %llu used + %llu",
                    (unsigned long long)gauge(Tier::kDram).used(),
                    (unsigned long long)charged);
            }
        }

        Block b;
        b.ptr = slabs_[sim::tierIndex(tier)].alloc(bytes);
        b.bytes = bytes;
        b.charged_bytes = charged;
        b.tier = tier;
        b.stream = stream;
        chargeStream(stream, tier, charged);
        return b;
    }

    /** Free a block and release its capacity. */
    void
    free(Block &b)
    {
        if (!b)
            return;
        slabs_[sim::tierIndex(b.tier)].free(b.ptr, b.bytes);
        mutableGauge(b.tier).release(b.charged_bytes);
        releaseStream(b.stream, b.tier, b.charged_bytes);
        b = Block{};
    }

    /**
     * Move a live block to tier @p to: reserve capacity there, copy
     * the payload, release the old tier. The charged size-class bytes
     * are conserved exactly — what the source gauge releases is what
     * the destination gauge charged — and per-stream occupancy moves
     * with the block. The memory-control-plane demotion path (KPA
     * HBM -> DRAM under capacity pressure) runs through here.
     *
     * @return true when the block now lives on @p to. Migrating a
     * block already on @p to is an idempotent no-op (true); failure
     * to reserve on the destination leaves the block untouched
     * (false). Only flat mode has two addressable tiers to migrate
     * between.
     */
    bool
    migrate(Block &b, Tier to, bool urgent = false)
    {
        if (!b)
            return false;
        if (b.tier == to)
            return true;
        if (mode_ != sim::MemoryMode::kFlat)
            return false;
        if (!mutableGauge(to).tryReserve(b.charged_bytes, urgent))
            return false;

        void *np = slabs_[sim::tierIndex(to)].alloc(b.bytes);
        std::memcpy(np, b.ptr, b.bytes);
        slabs_[sim::tierIndex(b.tier)].free(b.ptr, b.bytes);
        mutableGauge(b.tier).release(b.charged_bytes);
        releaseStream(b.stream, b.tier, b.charged_bytes);
        chargeStream(b.stream, to, b.charged_bytes);
        b.ptr = np;
        b.tier = to;
        return true;
    }

    /**
     * Charge @p bytes of access to an object living on @p object_tier
     * into @p log, honoring the memory mode.
     */
    void
    charge(sim::CostLog &log, Tier object_tier, AccessPattern pattern,
           uint64_t bytes) const
    {
        if (bytes == 0)
            return;
        switch (mode_) {
          case sim::MemoryMode::kFlat:
            log.mem(object_tier, pattern, bytes);
            return;
          case sim::MemoryMode::kDramOnly:
            log.mem(Tier::kDram, pattern, bytes);
            return;
          case sim::MemoryMode::kCache: {
            // Hardware-managed HBM cache: every touched line moves
            // through HBM; the miss fraction is additionally serviced
            // by DRAM (fill + writeback).
            const double h = cacheHitRatio();
            const auto miss_bytes = static_cast<uint64_t>(
                static_cast<double>(bytes) * (1.0 - h));
            log.mem(Tier::kHbm, pattern, bytes);
            if (miss_bytes > 0)
                log.mem(Tier::kDram, pattern, miss_bytes);
            return;
          }
        }
    }

    /**
     * Estimated HBM-cache hit ratio in cache mode: the fraction of
     * the resident working set that fits in HBM. The whole stream
     * state (full record bundles included) competes for the cache,
     * which is exactly why the paper's NoKPA-on-cache-mode variant
     * collapses: full records blow the working set past 16 GB.
     */
    double
    cacheHitRatio() const
    {
        if (!cfg_.hasHbm())
            return 0.0;
        const auto ws = static_cast<double>(gauge(Tier::kDram).used());
        if (ws <= 0)
            return 1.0;
        return std::min(1.0,
                        static_cast<double>(cfg_.hbm.capacity_bytes) / ws);
    }

    const CapacityGauge &
    gauge(Tier t) const
    {
        return gauges_[sim::tierIndex(t)];
    }

    /** Start a new windowed high-water period on @p t's gauge. */
    void markHighWater(Tier t) { mutableGauge(t).markHighWater(); }

    /** Charged bytes @p stream currently holds on @p t. */
    uint64_t
    streamUsed(uint32_t stream, Tier t) const
    {
        if (stream == 0)
            return stream0_.used[sim::tierIndex(t)];
        auto it = streams_.find(stream);
        return it == streams_.end() ? 0
                                    : it->second.used[sim::tierIndex(t)];
    }

    /** Peak charged HBM bytes @p stream ever held (occupancy audit). */
    uint64_t
    streamHbmHighWater(uint32_t stream) const
    {
        if (stream == 0)
            return stream0_.hbm_high_water;
        auto it = streams_.find(stream);
        return it == streams_.end() ? 0 : it->second.hbm_high_water;
    }

    /** @return true if a non-urgent HBM allocation of @p bytes fits. */
    bool
    hbmHasRoom(uint64_t bytes) const
    {
        return mode_ == sim::MemoryMode::kFlat
               && gauge(Tier::kHbm).hasRoom(SlabAllocator::classSize(bytes));
    }

    /**
     * Tier where small hot state (e.g. the external-join KV table)
     * lives: HBM when software-visible HBM exists, DRAM otherwise.
     */
    Tier smallStateTier() const { return stateTier(cfg_, mode_); }

    const SlabAllocator &slab(Tier t) const
    {
        return slabs_[sim::tierIndex(t)];
    }

    // ---------------------------------------------------------------
    // Recoverable exhaustion (fault tolerance).
    // ---------------------------------------------------------------

    /**
     * Opt into typed exhaustion: alloc() throws AllocFailure instead
     * of aborting when capacity (or an injected fault) denies it. The
     * serving layer enables this; standalone pipelines keep the fatal.
     */
    void setThrowOnExhaustion(bool on) { throw_on_exhaustion_ = on; }

    /**
     * Last-resort relief hook, called with (tier wanted, charged
     * bytes) before an exhaustion is declared. Returns true when it
     * freed capacity worth retrying for — the engine wires an
     * emergency demotion sweep through the pressure director here.
     */
    using ExhaustionHandler = std::function<bool(Tier, uint64_t)>;

    void
    setExhaustionHandler(ExhaustionHandler h)
    {
        exhaustion_handler_ = std::move(h);
    }

    /** Fault injection: fail the next @p n allocations outright. */
    void failNextAllocs(uint32_t n) { fail_next_allocs_ += n; }

    /** Injected allocation failures fired so far. */
    uint64_t injectedFailures() const { return injected_failures_; }

  private:
    /** Per-stream (tenant) occupancy, in charged size-class bytes. */
    struct StreamUsage
    {
        uint64_t used[sim::kNumTiers] = {0, 0};
        uint64_t hbm_high_water = 0;
    };

    CapacityGauge &
    mutableGauge(Tier t)
    {
        return gauges_[sim::tierIndex(t)];
    }

    void
    chargeStream(uint32_t stream, Tier t, uint64_t charged)
    {
        // Stream 0 (every single-pipeline run, and all bundle
        // allocations) stays off the map: alloc/free are hot enough
        // that this file carries a slab allocator, and the default
        // stream should not pay a tree lookup per allocation.
        StreamUsage &su = stream == 0 ? stream0_ : streams_[stream];
        su.used[sim::tierIndex(t)] += charged;
        if (t == Tier::kHbm)
            su.hbm_high_water = std::max(
                su.hbm_high_water, su.used[sim::tierIndex(Tier::kHbm)]);
    }

    void
    releaseStream(uint32_t stream, Tier t, uint64_t charged)
    {
        StreamUsage *su = &stream0_;
        if (stream != 0) {
            auto it = streams_.find(stream);
            sbhbm_assert(it != streams_.end(),
                         "stream %u tier accounting underflow", stream);
            su = &it->second;
        }
        sbhbm_assert(su->used[sim::tierIndex(t)] >= charged,
                     "stream %u tier accounting underflow", stream);
        su->used[sim::tierIndex(t)] -= charged;
    }

    const sim::MachineConfig &cfg_;
    sim::MemoryMode mode_;
    CapacityGauge gauges_[sim::kNumTiers];
    SlabAllocator slabs_[sim::kNumTiers];
    StreamUsage stream0_;
    std::map<uint32_t, StreamUsage> streams_;
    ExhaustionHandler exhaustion_handler_;
    uint32_t fail_next_allocs_ = 0;
    uint64_t injected_failures_ = 0;
    bool throw_on_exhaustion_ = false;
};

} // namespace sbhbm::mem

#endif // SBHBM_MEM_HYBRID_MEMORY_H
