/**
 * @file
 * Performance impact tags (paper §5).
 *
 * The scheduler tags every task by when the window containing its
 * data will be externalized. Urgent tasks sit on the critical path of
 * pipeline output (e.g. the close of the window the target watermark
 * points at); High tasks belong to windows externalized in the near
 * future; Low tasks work on younger windows.
 */

#ifndef SBHBM_RUNTIME_IMPACT_TAG_H
#define SBHBM_RUNTIME_IMPACT_TAG_H

#include <cstdint>

namespace sbhbm::runtime {

enum class ImpactTag : uint8_t {
    kUrgent = 0, //!< on the critical path of pipeline output
    kHigh = 1,   //!< externalized in the near future (next 1-2 windows)
    kLow = 2,    //!< externalized in the far future
};

constexpr int kNumTags = 3;

} // namespace sbhbm::runtime

#endif // SBHBM_RUNTIME_IMPACT_TAG_H
