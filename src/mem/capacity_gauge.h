/**
 * @file
 * Capacity accounting for one memory tier.
 *
 * The gauge is what the resource monitor samples ("HBM capacity
 * usage") and what forces KPA spills to DRAM when HBM runs out. A
 * small reservation is carved out for Urgent allocations (tasks on
 * the critical path always get HBM, paper §5).
 */

#ifndef SBHBM_MEM_CAPACITY_GAUGE_H
#define SBHBM_MEM_CAPACITY_GAUGE_H

#include <cstdint>

#include "common/logging.h"

namespace sbhbm::mem {

/** Tracks used/free bytes of a tier with an urgent-only reserve. */
class CapacityGauge
{
  public:
    CapacityGauge() = default;

    /**
     * @param capacity total tier bytes.
     * @param reserve  bytes only urgent allocations may dip into.
     */
    CapacityGauge(uint64_t capacity, uint64_t reserve)
        : capacity_(capacity), reserve_(reserve)
    {
        sbhbm_assert(reserve <= capacity, "reserve exceeds capacity");
    }

    /**
     * Try to account an allocation.
     * @param urgent when true, the urgent reserve is also available.
     * @return true when the allocation fits and was charged.
     */
    bool
    tryReserve(uint64_t bytes, bool urgent)
    {
        // Headroom subtraction, never used_ + bytes: the sum wraps
        // for a huge request and a wrapped sum compares as "fits".
        // used_ can legitimately sit above the non-urgent limit
        // (urgent allocations dip into the reserve), so guard the
        // subtraction too.
        const uint64_t limit = urgent ? capacity_ : capacity_ - reserve_;
        if (used_ > limit || bytes > limit - used_)
            return false;
        used_ += bytes;
        if (used_ > high_water_)
            high_water_ = used_;
        return true;
    }

    /** Release previously charged bytes. */
    void
    release(uint64_t bytes)
    {
        sbhbm_assert(bytes <= used_, "releasing more than used");
        used_ -= bytes;
    }

    uint64_t used() const { return used_; }
    uint64_t capacity() const { return capacity_; }
    uint64_t highWater() const { return high_water_; }

    /** Fraction of total capacity in use, in [0, 1]. */
    double
    usedFraction() const
    {
        return capacity_ == 0
                   ? 0.0
                   : static_cast<double>(used_)
                         / static_cast<double>(capacity_);
    }

    /** @return true when a non-urgent allocation of @p bytes fits. */
    bool
    hasRoom(uint64_t bytes) const
    {
        // Same overflow-safe headroom form as tryReserve().
        const uint64_t limit = capacity_ - reserve_;
        return used_ <= limit && bytes <= limit - used_;
    }

  private:
    uint64_t capacity_ = 0;
    uint64_t reserve_ = 0;
    uint64_t used_ = 0;
    uint64_t high_water_ = 0;
};

} // namespace sbhbm::mem

#endif // SBHBM_MEM_CAPACITY_GAUGE_H
