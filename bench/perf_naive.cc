#include "perf_naive.h"

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <utility>

#include "algo/sort.h"

namespace sbhbm::bench {

using columnar::Bundle;
using columnar::BundleHandle;
using columnar::ColumnId;
using columnar::KpEntry;
using kpa::Ctx;
using kpa::Kpa;
using kpa::KpaPtr;
using kpa::Placement;
using kpa::RangePartition;

std::vector<RangePartition>
naivePartitionByRange(Ctx ctx, const Kpa &src, uint64_t range_width,
                      Placement place)
{
    std::vector<std::pair<uint64_t, uint32_t>> counts;
    const KpEntry *e = src.entries();
    for (uint32_t i = 0; i < src.size(); ++i) {
        const uint64_t rg = e[i].key / range_width;
        auto it =
            std::find_if(counts.begin(), counts.end(),
                         [rg](const auto &p) { return p.first == rg; });
        if (it == counts.end())
            counts.emplace_back(rg, 1);
        else
            ++it->second;
    }
    std::sort(counts.begin(), counts.end());

    std::vector<RangePartition> out;
    out.reserve(counts.size());
    for (const auto &[rg, n] : counts) {
        RangePartition rp;
        rp.range = rg;
        rp.part = Kpa::create(ctx.hm, n, ctx.place(place));
        rp.part->setResidentColumn(src.residentColumn());
        rp.part->adoptSourcesFrom(src);
        out.push_back(std::move(rp));
    }
    for (uint32_t i = 0; i < src.size(); ++i) {
        const uint64_t rg = e[i].key / range_width;
        for (auto &rp : out) {
            if (rp.range == rg) {
                rp.part->push(e[i].key, e[i].row);
                break;
            }
        }
    }
    for (auto &rp : out)
        rp.part->setSorted(src.sorted());
    return out;
}

BundleHandle
naiveJoin(Ctx ctx, const Kpa &l, const Kpa &r,
          const std::vector<ColumnId> &l_cols,
          const std::vector<ColumnId> &r_cols)
{
    const uint32_t out_cols =
        1 + static_cast<uint32_t>(l_cols.size() + r_cols.size());
    std::vector<std::pair<const KpEntry *, const KpEntry *>> matches;
    const KpEntry *le = l.entries();
    const KpEntry *re = r.entries();
    uint32_t i = 0, j = 0;
    while (i < l.size() && j < r.size()) {
        if (le[i].key < re[j].key) {
            ++i;
        } else if (re[j].key < le[i].key) {
            ++j;
        } else {
            const uint64_t key = le[i].key;
            uint32_t i_end = i;
            while (i_end < l.size() && le[i_end].key == key)
                ++i_end;
            uint32_t j_end = j;
            while (j_end < r.size() && re[j_end].key == key)
                ++j_end;
            for (uint32_t x = i; x < i_end; ++x)
                for (uint32_t y = j; y < j_end; ++y)
                    matches.emplace_back(&le[x], &re[y]);
            i = i_end;
            j = j_end;
        }
    }
    const auto m = static_cast<uint32_t>(matches.size());
    Bundle *out =
        Bundle::create(ctx.hm, out_cols, std::max<uint32_t>(m, 1));
    for (const auto &[a, b] : matches) {
        uint64_t *row = out->appendRaw();
        uint32_t c = 0;
        row[c++] = a->key;
        for (ColumnId lc : l_cols)
            row[c++] = a->row[lc];
        for (ColumnId rc : r_cols)
            row[c++] = b->row[rc];
    }
    return BundleHandle::adopt(out);
}

void
naiveMergeRuns(const KpEntry *a, size_t na, const KpEntry *b, size_t nb,
               KpEntry *out)
{
    size_t i = 0, j = 0, k = 0;
    while (i < na && j < nb)
        out[k++] = (b[j].key < a[i].key) ? b[j++] : a[i++];
    while (i < na)
        out[k++] = a[i++];
    while (j < nb)
        out[k++] = b[j++];
}

namespace {

/** The two-column row buffer the keyed reduce wrote into. */
class NaiveRowSink
{
  public:
    void
    push(std::initializer_list<uint64_t> row)
    {
        flat_.insert(flat_.end(), row.begin(), row.end());
    }

    BundleHandle
    toBundle(mem::HybridMemory &hm) const
    {
        if (flat_.empty())
            return BundleHandle{};
        auto *b = Bundle::create(hm, 2,
                                 static_cast<uint32_t>(flat_.size() / 2));
        for (size_t i = 0; i < flat_.size(); i += 2)
            b->append(&flat_[i]);
        return BundleHandle::adopt(b);
    }

  private:
    std::vector<uint64_t> flat_;
};

} // namespace

BundleHandle
naiveReduce(mem::HybridMemory &hm, const Kpa &merged, NaiveReducer reducer,
            ColumnId value_col)
{
    std::function<void(uint64_t, const KpEntry *, size_t, NaiveRowSink &)>
        per_key;
    if (reducer == NaiveReducer::kSum) {
        per_key = [value_col](uint64_t key, const KpEntry *run, size_t n,
                              NaiveRowSink &sink) {
            uint64_t sum = 0;
            for (size_t i = 0; i < n; ++i)
                sum += run[i].row[value_col];
            sink.push({key, sum});
        };
    } else {
        per_key = [value_col](uint64_t key, const KpEntry *run, size_t n,
                              NaiveRowSink &sink) {
            std::vector<uint64_t> vals;
            vals.reserve(n);
            for (size_t i = 0; i < n; ++i)
                vals.push_back(run[i].row[value_col]);
            std::sort(vals.begin(), vals.end());
            const auto uniq = std::unique(vals.begin(), vals.end());
            sink.push({key, static_cast<uint64_t>(uniq - vals.begin())});
        };
    }
    NaiveRowSink sink;
    kpa::forEachKeyRun(merged,
                       [&](uint64_t key, const KpEntry *run, size_t n) {
                           per_key(key, run, n, sink);
                       });
    return sink.toBundle(hm);
}

namespace {

/** Branchless compare-exchange: afterwards a holds the smaller key. */
void
compareExchange(KpEntry &a, KpEntry &b)
{
    const bool swap = b.key < a.key;
    const KpEntry lo = swap ? b : a;
    const KpEntry hi = swap ? a : b;
    a = lo;
    b = hi;
}

/** Bitonic sorting network over exactly kSortBlock entries. */
void
bitonicSortBlock(KpEntry *e)
{
    constexpr size_t n = algo::kSortBlock;
    for (size_t k = 2; k <= n; k <<= 1) {
        for (size_t j = k >> 1; j > 0; j >>= 1) {
            for (size_t i = 0; i < n; ++i) {
                const size_t l = i ^ j;
                if (l <= i)
                    continue;
                if ((i & k) == 0)
                    compareExchange(e[i], e[l]);
                else
                    compareExchange(e[l], e[i]);
            }
        }
    }
}

} // namespace

void
naiveSortRun(KpEntry *data, size_t n, KpEntry *scratch)
{
    if (n <= 1)
        return;
    for (size_t i = 0; i < n; i += algo::kSortBlock) {
        if (n - i >= algo::kSortBlock)
            bitonicSortBlock(data + i);
        else
            algo::insertionSort(data + i, n - i);
    }
    KpEntry *src = data;
    KpEntry *dst = scratch;
    for (size_t width = algo::kSortBlock; width < n; width <<= 1) {
        for (size_t i = 0; i < n; i += 2 * width) {
            const size_t mid = std::min(i + width, n);
            const size_t end = std::min(i + 2 * width, n);
            naiveMergeRuns(src + i, mid - i, src + mid, end - mid,
                           dst + i);
        }
        std::swap(src, dst);
    }
    if (src != data) {
        for (size_t i = 0; i < n; ++i)
            data[i] = src[i];
    }
}

KpaPtr
naiveSelect(Ctx ctx, Bundle &src, ColumnId key_col,
            const std::function<bool(const uint64_t *)> &pred,
            Placement place)
{
    const uint32_t n = src.size();
    const uint32_t cols = src.cols();
    KpaPtr out = Kpa::create(ctx.hm, std::max<uint32_t>(n, 1),
                             ctx.place(place));
    KpEntry *dst = out->appendCursor();
    uint32_t kept = 0;
    uint64_t *row = src.data();
    for (uint32_t r = 0; r < n; ++r, row += cols) {
        if (pred(row))
            dst[kept++] = KpEntry{row[key_col], row};
    }
    out->commitAppend(kept);
    out->setResidentColumn(key_col);
    out->setSorted(out->size() <= 1);
    out->addSource(&src);

    ctx.hm.charge(ctx.log, src.tier(), sim::AccessPattern::kSequential,
                  src.dataBytes());
    ctx.hm.charge(ctx.log, out->tier(), sim::AccessPattern::kSequential,
                  ctx.scaled(out->bytes()));
    ctx.kernel(sim::cost::kSelectNsPerRec * src.size());
    return out;
}

KpaPtr
naiveExtract(Ctx ctx, Bundle &src, ColumnId key_col, Placement place)
{
    KpaPtr out = Kpa::create(ctx.hm, src.size(), ctx.place(place));
    for (uint32_t r = 0; r < src.size(); ++r) {
        uint64_t *row = src.row(r);
        out->push(row[key_col], row);
    }
    out->setResidentColumn(key_col);
    out->setSorted(src.size() <= 1);
    out->addSource(&src);
    return out;
}

BundleHandle
naiveMaterialize(Ctx ctx, const Kpa &k)
{
    const uint32_t cols = k.recordCols();
    Bundle *out = Bundle::create(ctx.hm, cols, k.size());
    const KpEntry *e = k.entries();
    for (uint32_t i = 0; i < k.size(); ++i)
        out->append(e[i].row);
    return BundleHandle::adopt(out);
}

} // namespace sbhbm::bench
