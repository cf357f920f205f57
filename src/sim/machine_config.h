/**
 * @file
 * Static description of a simulated machine (Table 3 of the paper).
 *
 * Substitution note (see DESIGN.md §2): the paper evaluates on real
 * hardware; we reproduce its resource envelope — core count, per-tier
 * bandwidth/latency/capacity, NIC rates — as a parameterized model.
 * All constants below are taken from Table 3 or calibrated against the
 * measurements in Figure 2.
 */

#ifndef SBHBM_SIM_MACHINE_CONFIG_H
#define SBHBM_SIM_MACHINE_CONFIG_H

#include <cstdint>
#include <string>

#include "common/units.h"
#include "sim/tier.h"

namespace sbhbm::sim {

/** Bandwidth/latency/capacity envelope of one memory tier. */
struct TierSpec
{
    /** Addressable capacity in bytes. */
    uint64_t capacity_bytes = 0;

    /** Aggregate sequential (streaming) bandwidth in bytes/sec. */
    double peak_seq_bw = 0;

    /**
     * Aggregate bandwidth achievable with a pure random-access mix,
     * in bytes/sec. DRAM-type memories lose roughly half their peak
     * to row-buffer misses and channel under-utilization.
     */
    double peak_rand_bw = 0;

    /** Unloaded access latency in nanoseconds. */
    double latency_ns = 0;

    /**
     * Per-core sequential streaming bandwidth cap in bytes/sec: one
     * core cannot issue enough line fills to use the whole bus. On
     * KNL this is what makes HBM useless at low parallelism (Fig 2).
     */
    double per_core_seq_bw = 0;

    /**
     * Effective memory-level parallelism of one core performing
     * dependent random accesses (hash probes, pointer chasing).
     * Per-core random bandwidth = mlp * 64B / latency.
     */
    double random_mlp = 0;

    /** Per-core random-access bandwidth in bytes/sec. */
    double
    perCoreRandBw() const
    {
        return random_mlp * 64.0 / (latency_ns * 1e-9);
    }
};

/** Whether HBM is software-visible (flat) or a hardware cache. */
enum class MemoryMode : uint8_t {
    kFlat = 0,   //!< both tiers addressable; software places data
    kCache = 1,  //!< HBM is a hardware-managed cache in front of DRAM
    kDramOnly = 2, //!< HBM disabled (ablation: StreamBox-HBM DRAM)
};

/** Full machine description. */
struct MachineConfig
{
    std::string name;

    /** Number of physical cores the runtime may use. */
    unsigned cores = 1;

    /**
     * Scalar-work speed factor relative to a KNL core (1.3 GHz,
     * in-order-ish Silvermont derivative). Big Xeon cores run
     * branchy scalar code (e.g. parsing) 3-4x faster (Fig 11).
     */
    double scalar_speed = 1.0;

    /** Vectorized-kernel speed factor relative to a KNL core. */
    double vector_speed = 1.0;

    TierSpec hbm;
    TierSpec dram;

    /** Ingestion NIC payload bandwidth, bytes/sec. */
    double nic_rdma_bw = 0;
    double nic_ethernet_bw = 0;

    bool hasHbm() const { return hbm.capacity_bytes > 0; }

    const TierSpec &
    tier(Tier t) const
    {
        return t == Tier::kHbm ? hbm : dram;
    }

    /**
     * The KNL box of Table 3: Xeon Phi 7210, 64 cores @ 1.3 GHz,
     * 16 GB HBM (375 GB/s, 172 ns), 96 GB DDR4 (80 GB/s, 143 ns),
     * 40 Gb/s Infiniband + 10 GbE.
     */
    static MachineConfig
    knl()
    {
        MachineConfig m;
        m.name = "KNL";
        m.cores = 64;
        m.scalar_speed = 1.0;
        m.vector_speed = 1.0;
        m.hbm = TierSpec{
            .capacity_bytes = 16_GiB,
            // MCDRAM's bandwidth advantage exists only for streaming:
            // under a dependent random-access mix its higher latency
            // eats the wider bus, and measured random throughput is
            // on par with DDR4 (why Hash gains ~10% from HBM, Fig 2).
            .peak_seq_bw = 375_GBps,
            .peak_rand_bw = 46_GBps,
            .latency_ns = 172.0,
            // Calibrated against Fig 2: sort on HBM == sort on DRAM
            // below ~16 cores, and HBM sort keeps scaling to 64 cores
            // (aggregate ~350 GB/s at 64 cores => ~5.5 GB/s/core).
            .per_core_seq_bw = 5.6_GBps,
            .random_mlp = 4.0,
        };
        m.dram = TierSpec{
            .capacity_bytes = 96_GiB,
            .peak_seq_bw = 80_GBps,
            .peak_rand_bw = 44_GBps,
            .latency_ns = 143.0,
            .per_core_seq_bw = 5.6_GBps,
            .random_mlp = 4.0,
        };
        // Effective RDMA payload of the 40 Gb/s Infiniband link:
        // 8b/10b encoding plus transport headers leave ~2.6 GB/s of
        // record payload — exactly the 110 M rec/s x 24 B ingestion
        // ceiling the paper reports for Windowed Average.
        m.nic_rdma_bw = 2.6_GBps;
        m.nic_ethernet_bw = 10_Gbps;
        return m;
    }

    /**
     * The X56 box of Table 3: 4-socket Broadwell E7-4830v4, 56 cores
     * @ 2.0 GHz, 256 GB DDR4 (87 GB/s, 131 ns), 10 GbE. No HBM.
     */
    static MachineConfig
    x56()
    {
        MachineConfig m;
        m.name = "X56";
        m.cores = 56;
        m.scalar_speed = 3.5; // Fig 11: parsing 3-4x faster than KNL
        m.vector_speed = 1.6; // wide OoO core, but AVX2 not AVX-512
        m.hbm = TierSpec{};   // no HBM tier
        m.dram = TierSpec{
            .capacity_bytes = 256_GiB,
            .peak_seq_bw = 87_GBps,
            .peak_rand_bw = 52_GBps,
            .latency_ns = 131.0,
            .per_core_seq_bw = 9.0_GBps,
            .random_mlp = 8.0,
        };
        m.nic_rdma_bw = 0;
        m.nic_ethernet_bw = 10_Gbps;
        return m;
    }
};

} // namespace sbhbm::sim

#endif // SBHBM_SIM_MACHINE_CONFIG_H
