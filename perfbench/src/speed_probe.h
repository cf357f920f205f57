/**
 * @file
 * The host's speed, measured beside the program. On a shared VM the
 * whole machine runs faster or slower for a minute at a time: every
 * workload, the generators included, speeds up and slows down together
 * by up to a third. A fixed piece of reference work, run in short slices
 * interleaved with the program, is slowed by the same phases, so the
 * ratio of its mean slice time to its nominal time says how fast the
 * host ran during the run. End-to-end host times are reported at the
 * nominal speed; the raw figures and the ratio are printed beside them.
 *
 * The reference work is a dependent chain of register-only arithmetic:
 * it touches no memory, so the program's cache footprint cannot change
 * its time, and it is the benchmark's own code, so no change to the
 * program can change it either. It follows the CPU's speed (frequency,
 * a busy sibling thread), not memory contention.
 */

#ifndef PERFBENCH_SPEED_PROBE_H
#define PERFBENCH_SPEED_PROBE_H

#include <cstdint>

#include "stats.h"

namespace pb {

class SpeedProbe
{
  public:
    /** Mean slice time on the reference host (4-vCPU x86-64 VM), ns. */
    static constexpr double kNominalSliceNs = 14'000;

    /** Minimum host time between slices of the serving workloads. */
    static constexpr int64_t kServePeriodNs = 2'000'000;

    /** Run one slice of the reference work; returns its host ns. */
    int64_t
    slice()
    {
        const int64_t t0 = hostNs();
        uint64_t x = rng_;
        for (uint32_t i = 0; i < kSteps; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x *= 0x2545F4914F6CDD1Dull;
        }
        rng_ = x;
        const int64_t ns = hostNs() - t0;
        ns_ += ns;
        ++slices_;
        return ns;
    }

    /** Host slowness so far: mean slice time over nominal (1 = nominal). */
    double
    factor() const
    {
        return slices_ == 0 ? 1.0
                            : static_cast<double>(ns_)
                                  / static_cast<double>(slices_)
                                  / kNominalSliceNs;
    }

    uint64_t slices() const { return slices_; }

  private:
    static constexpr uint32_t kSteps = 4096;

    uint64_t rng_ = 0x9E3779B97F4A7C15ull; //!< keeps the chain live
    int64_t ns_ = 0;
    uint64_t slices_ = 0;
};

} // namespace pb

#endif // PERFBENCH_SPEED_PROBE_H
