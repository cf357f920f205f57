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
 *
 * Probe batching. On a latency-bound core, a table bigger than the
 * cache makes every probe chain a serialized string of DRAM round
 * trips. The batched entry points (findBatch / findOrInsertBatch)
 * software-pipeline groups of kProbeBatch lookups Cimple-style:
 * hash and prefetch all lanes' head slots first, then walk the
 * chains, so up to kProbeBatch misses are in flight at once.
 * Results are exactly the scalar results — lanes are independent
 * for reads, and the mutating batch resolves lanes in key order so
 * the slot layout stays bit-identical to a scalar insert loop. (See
 * findBatch for why the static group-prefetch schedule beat the
 * dynamic one-step-per-sweep state machine in measurement.) A table
 * prefetches only when it outgrows the last-level cache the
 * constructor is given (llcBytes() by default); a cache-resident
 * table, or one on a host whose LLC size is unknown, takes the
 * scalar loop.
 */

#ifndef SBHBM_ALGO_HASH_TABLE_H
#define SBHBM_ALGO_HASH_TABLE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/logging.h"

namespace sbhbm::algo {

/**
 * Last-level cache size of this host as reported by sysconf, or 0
 * when the platform won't say (sysconf missing, or reporting 0/-1).
 * 0 means "unknown": the prefetch gate then stays off — the scalar
 * probe path is always correct, just unhidden — rather than guessing
 * a capacity the host may not have.
 */
inline uint64_t
llcBytes()
{
    static const uint64_t bytes = [] {
#if defined(_SC_LEVEL3_CACHE_SIZE)
        const long l3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
        if (l3 > 0)
            return static_cast<uint64_t>(l3);
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
        const long l2 = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
        if (l2 > 0)
            return static_cast<uint64_t>(l2);
#endif
        return uint64_t{0};
    }();
    return bytes;
}

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
    /**
     * @param capacity_hint sized up to a power of two >= 8/7 hint.
     * @param llc_bytes     last-level cache capacity the prefetch gate
     *                      compares the table against; 0 = unknown.
     */
    explicit HashTable(size_t capacity_hint,
                       uint64_t llc_bytes = llcBytes())
    {
        size_t cap = 16;
        while (cap < capacity_hint + capacity_hint / 7)
            cap <<= 1;
        slots_.resize(cap);
        used_.assign(cap, 0);
        mask_ = cap - 1;
        // Batched probes prefetch only when the table exceeds the LLC
        // and can actually miss: for a cache-resident table (the
        // common per-window grouping state) the prefetch instructions
        // are pure overhead with nothing to hide — measured ~0.6x on
        // mid-size tables when gated too low.
        // Unknown capacity (llc_bytes == 0) keeps the gate off.
        prefetch_ = llc_bytes > 0 && footprintBytes() > llc_bytes;
    }

    /**
     * Find @p key, inserting a default-initialized V when absent.
     * @param[out] probes optional: number of slots inspected.
     * @return reference to the value slot.
     */
    V &
    findOrInsert(uint64_t key, size_t *probes = nullptr)
    {
        size_t idx = hashKey(key) & mask_;
        size_t n = 1;
        while (used_[idx] && slots_[idx].key != key) {
            idx = (idx + 1) & mask_;
            ++n;
            sbhbm_assert(n <= slots_.size(), "hash table full");
        }
        if (probes != nullptr)
            *probes = n;
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

    /** Lookups software-pipelined per batch (see file comment). */
    static constexpr uint32_t kProbeBatch = 16;

    /** Whether batched probes group-prefetch (see file comment). */
    bool prefetchEnabled() const { return prefetch_; }

    /** Issue the loads probing @p key will need (its home slot). */
    void
    prefetchKey(uint64_t key) const
    {
        if (prefetch_)
            prefetchSlot(hashKey(key) & mask_);
    }

    /**
     * Batched find: out[i] = find(keys[i]) for i in [0, n). Each
     * group of kProbeBatch lookups is software-pipelined in two
     * stages — hash and prefetch every lane's home slot, then walk
     * the chains — so up to kProbeBatch head-of-chain misses are in
     * flight at once where a latency-bound core would serialize
     * them. Read-only: results are exactly the scalar find()'s.
     *
     * This is the *static* (group-prefetch) schedule of Cimple's
     * batching spectrum. The dynamic variant — advance every live
     * chain one probe step per sweep — was prototyped and measured
     * 0.6x on a wide out-of-order host: its per-lane bookkeeping
     * defeats the speculation that already overlaps independent
     * probes, while linear probing's sequential chain walk needs no
     * per-step software help. Group prefetch keeps the scalar loop's
     * speculative goodness and still issues the batch's misses up
     * front, which is where the win lives on latency-bound (KNL-ish)
     * hosts.
     */
    void
    findBatch(const uint64_t *keys, uint32_t n, V **out)
    {
        if (!prefetch_) {
            // Cache-resident table: there is no latency to hide, and
            // at a few cycles per probe even the group stride is
            // measurable overhead — take the tight loop.
            for (uint32_t i = 0; i < n; ++i)
                out[i] = find(keys[i]);
            return;
        }
        for (uint32_t base = 0; base < n; base += kProbeBatch) {
            const uint32_t b = std::min(kProbeBatch, n - base);
            for (uint32_t l = 0; l < b; ++l)
                prefetchKey(keys[base + l]);
            for (uint32_t l = 0; l < b; ++l)
                out[base + l] = find(keys[base + l]);
        }
    }

    /**
     * Batched upsert: visit(i, findOrInsert(keys[i])) for i in
     * [0, n). Unlike findBatch, lanes may collide through mutation
     * (an insert changes what later keys must see), so each group is
     * group-prefetched — all kProbeBatch head slots' misses issued up
     * front — and then resolved strictly in key order. That keeps the
     * slot layout, probe counts and load-factor asserts bit-identical
     * to n scalar findOrInsert calls while still overlapping the
     * first-probe misses that dominate an out-of-cache upsert loop.
     */
    template <typename Fn>
    void
    findOrInsertBatch(const uint64_t *keys, uint32_t n, Fn &&visit)
    {
        if (!prefetch_) {
            // Cache-resident: tight scalar loop, as in findBatch.
            for (uint32_t i = 0; i < n; ++i)
                visit(i, findOrInsert(keys[i]));
            return;
        }
        for (uint32_t base = 0; base < n; base += kProbeBatch) {
            const uint32_t b = std::min(kProbeBatch, n - base);
            for (uint32_t l = 0; l < b; ++l)
                prefetchKey(keys[base + l]);
            for (uint32_t l = 0; l < b; ++l)
                visit(base + l, findOrInsert(keys[base + l]));
        }
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

    /** Issue the loads a probe of slot @p idx will need. */
    void
    prefetchSlot(size_t idx) const
    {
#if defined(__GNUC__) || defined(__clang__)
        __builtin_prefetch(&slots_[idx]);
        __builtin_prefetch(&used_[idx]);
#else
        (void)idx;
#endif
    }

    std::vector<Slot> slots_;
    std::vector<uint8_t> used_;
    size_t mask_ = 0;
    size_t size_ = 0;
    bool prefetch_ = false;
};

} // namespace sbhbm::algo

#endif // SBHBM_ALGO_HASH_TABLE_H
