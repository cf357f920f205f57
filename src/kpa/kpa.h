/**
 * @file
 * Key Pointer Array (paper §4.1): the only data structure
 * StreamBox-HBM places in HBM.
 *
 * A KPA is a contiguous sequence of 16-byte key/pointer pairs plus:
 *  - the identity of the resident column its keys replicate,
 *  - a sorted flag (grouping primitives require/maintain sortedness),
 *  - a list of source bundles it references. Each KPA holds one
 *    reference per distinct source bundle; bundles are reclaimed when
 *    their reference count drops to zero (paper §5.1).
 */

#ifndef SBHBM_KPA_KPA_H
#define SBHBM_KPA_KPA_H

#include <algorithm>
#include <memory>
#include <vector>

#include "columnar/bundle.h"
#include "columnar/record.h"
#include "common/logging.h"
#include "mem/hybrid_memory.h"

namespace sbhbm::kpa {

using columnar::Bundle;
using columnar::BundleHandle;
using columnar::ColumnId;
using columnar::KpEntry;

class Kpa;
using KpaPtr = std::unique_ptr<Kpa>;

/** Where a new KPA should be allocated (decided by the runtime). */
struct Placement
{
    mem::Tier tier = mem::Tier::kHbm;
    bool urgent = false;

    /** Owning stream (tenant), for per-stream occupancy accounting. */
    uint32_t stream = 0;

    /**
     * Grouping-state bytes per entry relative to a 16-byte pair: 1.0
     * for real KPAs; record_bytes/16 when grouping full records (the
     * NoKPA ablation), whose window state is whole rows — which is
     * what blows the cache-mode working set past HBM capacity.
     */
    double entry_scale = 1.0;
};

/** A Key Pointer Array. */
class Kpa
{
  public:
    /**
     * Allocate a KPA with room for @p capacity entries.
     * The granted tier may be DRAM even when HBM was requested
     * (capacity spill, paper §5).
     */
    static KpaPtr
    create(mem::HybridMemory &hm, uint32_t capacity, Placement place)
    {
        return KpaPtr(new Kpa(hm, capacity, place));
    }

    Kpa(const Kpa &) = delete;
    Kpa &operator=(const Kpa &) = delete;

    ~Kpa() { hm_.free(block_); }

    KpEntry *entries() { return static_cast<KpEntry *>(block_.ptr); }
    const KpEntry *
    entries() const
    {
        return static_cast<const KpEntry *>(block_.ptr);
    }

    KpEntry &
    at(uint32_t i)
    {
        sbhbm_assert(i < size_, "KPA index %u out of %u", i, size_);
        return entries()[i];
    }

    const KpEntry &
    at(uint32_t i) const
    {
        sbhbm_assert(i < size_, "KPA index %u out of %u", i, size_);
        return entries()[i];
    }

    uint32_t size() const { return size_; }
    uint32_t capacity() const { return capacity_; }
    bool empty() const { return size_ == 0; }

    /** Bytes of entry data (16 per entry). */
    uint64_t bytes() const { return uint64_t{size_} * sizeof(KpEntry); }

    /** Tier the entries actually live on. */
    mem::Tier tier() const { return block_.tier; }

    /**
     * Touch generation: a counter bumped by every mutation (append,
     * bulk commit, sort-flag change). Incremental checkpointing keys
     * on it — a run whose generation is unchanged since the last
     * snapshot need not be copied again. It is kept deliberately
     * cheap: one counter increment on mutation paths, nothing on
     * reads.
     */
    uint64_t touchGen() const { return touch_gen_; }

    /** Append one entry (invalidates the sorted flag). */
    void
    push(uint64_t key, uint64_t *row)
    {
        sbhbm_assert(size_ < capacity_, "KPA overflow");
        entries()[size_++] = KpEntry{key, row};
        sorted_ = false;
        ++touch_gen_;
    }

    /**
     * Set the logical size after entries were written directly into
     * entries() (bulk kernels like merge). Caller must have filled
     * exactly @p n entries.
     */
    void
    setSizeUnsafe(uint32_t n)
    {
        sbhbm_assert(n <= capacity_, "size %u beyond capacity %u", n,
                     capacity_);
        size_ = n;
        ++touch_gen_;
    }

    /**
     * Bulk-append cursor: hot loops write entries here directly and
     * commit once, instead of paying push()'s assert + sorted-flag
     * store per element. At most capacity() - size() entries may be
     * written before commitAppend().
     */
    KpEntry *appendCursor() { return entries() + size_; }

    /**
     * Commit @p n entries written at appendCursor(). Invalidates the
     * sorted flag exactly like n push() calls would: any nonzero
     * append clears it, a zero-length commit leaves it untouched.
     */
    void
    commitAppend(uint32_t n)
    {
        sbhbm_assert(uint64_t{size_} + n <= capacity_,
                     "KPA overflow: %u + %u beyond %u", size_, n,
                     capacity_);
        size_ += n;
        if (n > 0) {
            sorted_ = false;
            ++touch_gen_;
        }
    }

    /** The column the resident keys replicate; kNoColumn if derived. */
    ColumnId residentColumn() const { return resident_col_; }
    void setResidentColumn(ColumnId c) { resident_col_ = c; }

    bool sorted() const { return sorted_; }

    void
    setSorted(bool s)
    {
        if (sorted_ != s)
            ++touch_gen_;
        sorted_ = s;
    }

    /**
     * Link a source bundle (takes a reference unless already linked).
     * Paper §5.1: "it adds a link pointing to R if one does not exist
     * and increments the reference count".
     */
    void
    addSource(Bundle *b)
    {
        for (const auto &h : sources_)
            if (h.get() == b)
                return;
        sources_.push_back(BundleHandle::share(b));
    }

    /**
     * Inherit all of @p other's source links (merge / partition
     * outputs reference everything their inputs did).
     */
    void
    adoptSourcesFrom(const Kpa &other)
    {
        for (const auto &h : other.sources_)
            addSource(h.get());
    }

    const std::vector<BundleHandle> &sources() const { return sources_; }

    /**
     * Number of columns of the underlying full records. Panics when
     * the KPA references no bundle (nothing to dereference).
     */
    uint32_t
    recordCols() const
    {
        sbhbm_assert(!sources_.empty(), "KPA has no source bundles");
        return sources_.front()->cols();
    }

  private:
    Kpa(mem::HybridMemory &hm, uint32_t capacity, Placement place)
        : hm_(hm),
          block_(hm.alloc(
              std::max<uint64_t>(
                  static_cast<uint64_t>(
                      static_cast<double>(uint64_t{capacity}
                                          * sizeof(KpEntry))
                      * std::max(place.entry_scale, 1.0)),
                  sizeof(KpEntry)),
              place.tier, place.urgent, place.stream)),
          capacity_(capacity)
    {
    }

    mem::HybridMemory &hm_;
    mem::Block block_;
    uint32_t capacity_;
    uint32_t size_ = 0;
    uint64_t touch_gen_ = 0;
    ColumnId resident_col_ = columnar::kNoColumn;
    bool sorted_ = false;
    std::vector<BundleHandle> sources_;
};

} // namespace sbhbm::kpa

#endif // SBHBM_KPA_KPA_H
