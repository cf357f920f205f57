/**
 * @file
 * Open-addressing hash table with linear probing.
 *
 * This is the random-access grouping structure the paper's baselines
 * use (§2.2: "Hash partitions input records and inserts them into an
 * open-addressing, pre-allocated hash table", derived from the
 * KNL-optimized implementation of Kim et al.). StreamBox-HBM itself
 * uses it only for the external key-value join of YSB; the hash
 * GroupBy baseline of Fig 2 and the Flink-like engine build on it.
 * Every lookup walks one probe chain; the slot layout depends only on
 * the order of the inserts.
 */

#ifndef SBHBM_ALGO_HASH_TABLE_H
#define SBHBM_ALGO_HASH_TABLE_H

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace sbhbm::algo {

/** Multiplicative hash (Fibonacci hashing) for 64-bit keys. */
inline uint64_t
hashKey(uint64_t key)
{
    return key * 0x9e3779b97f4a7c15ULL;
}

/**
 * Pre-allocated open-addressing table mapping uint64 keys to V.
 * Capacity is fixed at construction (power of two); inserting past
 * ~87% load factor is a programming error.
 */
template <typename V>
class HashTable
{
  public:
    /** @param capacity_hint sized up to a power of two >= 8/7 hint. */
    explicit HashTable(size_t capacity_hint)
    {
        size_t cap = 16;
        while (cap < capacity_hint + capacity_hint / 7)
            cap <<= 1;
        slots_.resize(cap);
        used_.assign(cap, 0);
        mask_ = cap - 1;
    }

    /**
     * Find @p key, inserting a default-initialized V when absent.
     * @return reference to the value slot.
     */
    V &
    findOrInsert(uint64_t key)
    {
        size_t idx = hashKey(key) & mask_;
        size_t n = 1;
        while (used_[idx] && slots_[idx].key != key) {
            idx = (idx + 1) & mask_;
            ++n;
            sbhbm_assert(n <= slots_.size(), "hash table full");
        }
        if (!used_[idx]) {
            used_[idx] = 1;
            slots_[idx].key = key;
            slots_[idx].value = V{};
            ++size_;
            sbhbm_assert(size_ * 8 <= slots_.size() * 7,
                         "hash table overloaded: %zu of %zu", size_,
                         slots_.size());
        }
        return slots_[idx].value;
    }

    /** @return pointer to the value for @p key, or nullptr. */
    V *
    find(uint64_t key)
    {
        size_t idx = hashKey(key) & mask_;
        size_t n = 0;
        while (used_[idx]) {
            if (slots_[idx].key == key)
                return &slots_[idx].value;
            idx = (idx + 1) & mask_;
            if (++n > slots_.size())
                break;
        }
        return nullptr;
    }

    const V *
    find(uint64_t key) const
    {
        return const_cast<HashTable *>(this)->find(key);
    }

    /** Visit every occupied slot as fn(key, value). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (size_t i = 0; i < slots_.size(); ++i)
            if (used_[i])
                fn(slots_[i].key, slots_[i].value);
    }

    size_t size() const { return size_; }
    size_t capacity() const { return slots_.size(); }

    /** Bytes of table storage (for traffic/capacity accounting). */
    uint64_t
    footprintBytes() const
    {
        return slots_.size() * sizeof(Slot) + used_.size();
    }

  private:
    struct Slot
    {
        uint64_t key;
        V value;
    };

    std::vector<Slot> slots_;
    std::vector<uint8_t> used_;
    size_t mask_ = 0;
    size_t size_ = 0;
};

} // namespace sbhbm::algo

#endif // SBHBM_ALGO_HASH_TABLE_H
