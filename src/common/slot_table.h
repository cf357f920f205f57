/**
 * @file
 * Objects addressed by 32-bit ids, with freed ids reused.
 *
 * The simulator's and executor's per-task and per-event state lives in
 * these tables: the owner takes a slot when the work starts, names it
 * by id wherever the work goes (an event, a flow, the run queue), and
 * frees it at the one point the work ends, so nothing is
 * reference-counted. Slots sit in a std::deque, so a reference to one
 * stays valid while others are taken; a freed slot keeps its object
 * until the id is taken again.
 */

#ifndef SBHBM_COMMON_SLOT_TABLE_H
#define SBHBM_COMMON_SLOT_TABLE_H

#include <cstdint>
#include <deque>
#include <vector>

namespace sbhbm {

template <typename T>
class SlotTable
{
  public:
    /** Take a slot: the most recently freed one, else a new one. */
    uint32_t
    take()
    {
        if (free_.empty()) {
            slots_.emplace_back();
            return static_cast<uint32_t>(slots_.size() - 1);
        }
        const uint32_t id = free_.back();
        free_.pop_back();
        return id;
    }

    /** Give slot @p id back; its object stays until the id is retaken. */
    void free(uint32_t id) { free_.push_back(id); }

    T &operator[](uint32_t id) { return slots_[id]; }

  private:
    std::deque<T> slots_;
    std::vector<uint32_t> free_;
};

} // namespace sbhbm

#endif // SBHBM_COMMON_SLOT_TABLE_H
