/**
 * @file
 * Keyed Aggregation operators (Table 1 / Fig 4a) and the aggregator
 * library backing benchmarks 1-6 of §6: TopK / Sum / Median / Average
 * / Count / UniqueCount per key.
 *
 * An Aggregation is one of a closed set of typed reducers — count,
 * sum, avg, median, top-K and unique count — plus the value column
 * it reads and top-K's K, all set by the aggs:: factories. Each
 * reducer turns one key run of the window's fully-sorted KPA into
 * (key, value) rows. Aggregation::per_key is the per-run entry point:
 * KeyedAggOp's close loop calls the same reducer for every run, and
 * the perfbench replay calls per_key directly. Reducers that sort or
 * select values reuse the RowSink's scratch vector, so no key run
 * allocates. The operator charges the Table 2 "Keyed" reduction costs
 * (sequential KPA scan, random value-column loads, output emission).
 *
 * Memory control plane: the sorted runs a KeyedAggOp accumulates per
 * window are exactly the long-lived HBM state the pressure director
 * targets — the SortedRunsOp base demotes every run beyond the target
 * watermark's window (SortedRunsOp::demoteColdState), so under HBM
 * capacity pressure cold aggregation state moves to DRAM while the
 * window about to close keeps its HBM residency.
 */

#ifndef SBHBM_PIPELINE_AGGREGATIONS_H
#define SBHBM_PIPELINE_AGGREGATIONS_H

#include <algorithm>
#include <cstring>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "pipeline/sorted_runs_op.h"

namespace sbhbm::pipeline {

/** Collects fixed-arity output rows before bundling them. */
class RowSink
{
  public:
    explicit RowSink(uint32_t cols) : cols_(cols) {}

    /** Append one row; @p row must have cols() values. */
    void
    push(std::initializer_list<uint64_t> row)
    {
        sbhbm_assert(row.size() == cols_, "row arity %zu vs %u",
                     row.size(), cols_);
        flat_.insert(flat_.end(), row.begin(), row.end());
    }

    /** Append one (key, value) row to a two-column sink. */
    void
    push(uint64_t key, uint64_t value)
    {
        sbhbm_assert(cols_ == 2, "row arity 2 vs %u", cols_);
        flat_.push_back(key);
        flat_.push_back(value);
    }

    /** Reserve room for @p rows rows. */
    void reserve(uint64_t rows) { flat_.reserve(rows * cols_); }

    /** Reducer scratch, reused across the key runs of one sink. */
    std::vector<uint64_t> &scratch() { return scratch_; }

    uint32_t cols() const { return cols_; }
    uint64_t rows() const { return flat_.size() / cols_; }

    /** Materialize the rows as a DRAM bundle (empty -> null handle). */
    BundleHandle
    toBundle(mem::HybridMemory &hm) const
    {
        if (flat_.empty())
            return BundleHandle{};
        const auto n = static_cast<uint32_t>(rows());
        auto *b = columnar::Bundle::create(hm, cols_, n);
        std::memcpy(b->appendBlockRaw(n), flat_.data(),
                    flat_.size() * sizeof(uint64_t));
        return BundleHandle::adopt(b);
    }

  private:
    uint32_t cols_;
    std::vector<uint64_t> flat_;
    std::vector<uint64_t> scratch_;
};

class Aggregation;

namespace aggs {
Aggregation countPerKey();
Aggregation sumPerKey(columnar::ColumnId value_col);
Aggregation avgPerKey(columnar::ColumnId value_col);
Aggregation medianPerKey(columnar::ColumnId value_col);
Aggregation topKPerKey(columnar::ColumnId value_col, size_t k);
Aggregation uniqueCountPerKey(columnar::ColumnId value_col);
} // namespace aggs

/** One keyed aggregation: a typed reducer over each key run. */
class Aggregation
{
  public:
    /** The closed reducer set. */
    enum class Kind : uint8_t
    {
        kCount,       //!< (key, run length); touches no values
        kSum,         //!< (key, sum of values)
        kAvg,         //!< (key, floor(mean of values))
        kMedian,      //!< (key, upper median of values)
        kTopK,        //!< (key, value) for the K largest, descending
        kUniqueCount, //!< (key, distinct values)
    };

    /** Output columns: every reducer emits (key, value) rows. */
    static constexpr uint32_t out_cols = 2;

    /** A count reducer; the aggs:: factories build the others. */
    Aggregation() = default;

    columnar::ColumnId valueCol() const { return value_col_; }

    /** Does the reduction dereference record values? */
    bool touchesValues() const { return kind_ != Kind::kCount; }

    /** Extra scalar CPU charged per input value (per-key value work). */
    double
    extraCpuPerValue() const
    {
        switch (kind_) {
          case Kind::kMedian: return 800.0; // per-key nth_element
          case Kind::kTopK: return 800.0; // partial sort + K-fold output
          case Kind::kUniqueCount: return 100.0; // value sort + unique
          default: return 0.0;
        }
    }

    /** Call fn(std::integral_constant<Kind, K>{}) for this kind K. */
    template <typename Fn>
    void
    visit(Fn &&fn) const
    {
        switch (kind_) {
          case Kind::kCount: return fn(tag<Kind::kCount>{});
          case Kind::kSum: return fn(tag<Kind::kSum>{});
          case Kind::kAvg: return fn(tag<Kind::kAvg>{});
          case Kind::kMedian: return fn(tag<Kind::kMedian>{});
          case Kind::kTopK: return fn(tag<Kind::kTopK>{});
          case Kind::kUniqueCount: return fn(tag<Kind::kUniqueCount>{});
        }
    }

    /** Reduce one key run of @p n entries; append rows to @p sink. */
    template <Kind K>
    void
    reduceRun(uint64_t key, const kpa::KpEntry *run, size_t n,
              RowSink &sink) const
    {
        if constexpr (K == Kind::kCount) {
            sink.push(key, n);
        } else if constexpr (K == Kind::kSum || K == Kind::kAvg) {
            uint64_t sum = 0;
            for (size_t i = 0; i < n; ++i)
                sum += run[i].row[value_col_];
            sink.push(key, K == Kind::kSum ? sum : (n > 0 ? sum / n : 0));
        } else {
            std::vector<uint64_t> &vals = sink.scratch();
            vals.resize(n);
            for (size_t i = 0; i < n; ++i)
                vals[i] = run[i].row[value_col_];
            if constexpr (K == Kind::kMedian) {
                const auto mid = vals.begin() + n / 2;
                std::nth_element(vals.begin(), mid, vals.end());
                sink.push(key, *mid);
            } else if constexpr (K == Kind::kTopK) {
                const size_t keep = std::min(k_, n);
                std::partial_sort(vals.begin(), vals.begin() + keep,
                                  vals.end(), std::greater<>());
                for (size_t i = 0; i < keep; ++i)
                    sink.push(key, vals[i]);
            } else {
                std::sort(vals.begin(), vals.end());
                const auto uniq = std::unique(vals.begin(), vals.end());
                sink.push(key, static_cast<uint64_t>(uniq - vals.begin()));
            }
        }
    }

    /** Visit one key run; append output rows to the sink. */
    void
    per_key(uint64_t key, const kpa::KpEntry *run, size_t n,
            RowSink &sink) const
    {
        visit([&](auto k) {
            reduceRun<decltype(k)::value>(key, run, n, sink);
        });
    }

  private:
    template <Kind K>
    using tag = std::integral_constant<Kind, K>;

    Aggregation(Kind kind, columnar::ColumnId value_col, size_t k = 0)
        : kind_(kind), value_col_(value_col), k_(k)
    {
    }

    friend Aggregation aggs::countPerKey();
    friend Aggregation aggs::sumPerKey(columnar::ColumnId);
    friend Aggregation aggs::avgPerKey(columnar::ColumnId);
    friend Aggregation aggs::medianPerKey(columnar::ColumnId);
    friend Aggregation aggs::topKPerKey(columnar::ColumnId, size_t);
    friend Aggregation aggs::uniqueCountPerKey(columnar::ColumnId);

    Kind kind_ = Kind::kCount;
    columnar::ColumnId value_col_ = 0;
    size_t k_ = 0; //!< kTopK only
};

namespace aggs {

/** Count Per Key: emits (key, count); touches no values. */
inline Aggregation
countPerKey()
{
    return Aggregation(Aggregation::Kind::kCount, 0);
}

/** Windowed Sum Per Key (benchmark 2): emits (key, sum). */
inline Aggregation
sumPerKey(columnar::ColumnId value_col)
{
    return Aggregation(Aggregation::Kind::kSum, value_col);
}

/** Windowed Average Per Key (benchmark 4): emits (key, floor(avg)). */
inline Aggregation
avgPerKey(columnar::ColumnId value_col)
{
    return Aggregation(Aggregation::Kind::kAvg, value_col);
}

/** Windowed Median Per Key (benchmark 3): emits (key, median). */
inline Aggregation
medianPerKey(columnar::ColumnId value_col)
{
    return Aggregation(Aggregation::Kind::kMedian, value_col);
}

/**
 * TopK Per Key (benchmark 1): emits (key, value) rows for the K
 * largest values of each key, descending.
 */
inline Aggregation
topKPerKey(columnar::ColumnId value_col, size_t k)
{
    return Aggregation(Aggregation::Kind::kTopK, value_col, k);
}

/** Unique Count Per Key (benchmark 6): emits (key, distinct values). */
inline Aggregation
uniqueCountPerKey(columnar::ColumnId value_col)
{
    return Aggregation(Aggregation::Kind::kUniqueCount, value_col);
}

} // namespace aggs

/**
 * Keyed Aggregation operator: sorted-run accumulation (base class)
 * plus a per-key reduction at window close.
 */
class KeyedAggOp : public SortedRunsOp
{
  public:
    KeyedAggOp(Pipeline &pipe, std::string name,
               columnar::ColumnId key_col, Aggregation agg)
        : SortedRunsOp(pipe, std::move(name), key_col), agg_(agg)
    {
    }

  protected:
    void
    reduceWindow(columnar::WindowId w, const kpa::Kpa &merged,
                 uint32_t lo, uint32_t hi, sim::CostLog &log,
                 Emitter &em) override
    {
        auto ctx = makeCtx(log, merged.recordCols());
        RowSink sink(agg_.out_cols);
        sink.reserve(hi - lo); // no reducer emits more rows than entries
        agg_.visit([&](auto k) {
            reduceRuns<decltype(k)::value>(merged, lo, hi, sink);
        });
        const uint64_t scanned = hi - lo;
        kpa::chargeKeyedReduce(ctx, merged, scanned,
                               agg_.touchesValues() ? scanned : 0,
                               sink.rows(), agg_.out_cols);
        log.cpu(agg_.extraCpuPerValue() * static_cast<double>(scanned));

        BundleHandle out = sink.toBundle(eng_.memory());
        if (out) {
            em.push(Msg::ofBundle(std::move(out),
                                  pipe_.windows().start(w))
                        .withWindow(w));
        }
    }

  private:
    /**
     * Reduce the key runs of entries [lo, hi). The scan for each
     * run's end issues the value-row loads kPrefetchAhead entries
     * ahead, so a run's random row misses overlap before its reducer
     * reads them.
     */
    template <Aggregation::Kind K>
    void
    reduceRuns(const kpa::Kpa &merged, uint32_t lo, uint32_t hi,
               RowSink &sink) const
    {
        constexpr uint32_t kAhead = kpa::detail::kPrefetchAhead;
        sbhbm_assert(merged.sorted(),
                     "keyed reduction requires a sorted KPA");
        sbhbm_assert(hi <= merged.size() && lo <= hi, "bad key-run range");
        const kpa::KpEntry *e = merged.entries();
        sbhbm_assert(lo == 0 || lo == hi || e[lo].key != e[lo - 1].key,
                     "range start splits a key run");
        const columnar::ColumnId col = agg_.valueCol();
        for (uint32_t i = lo; i < hi;) {
            const uint64_t key = e[i].key;
            uint32_t j = i;
            do {
                if (K != Aggregation::Kind::kCount && j + kAhead < hi)
                    kpa::detail::prefetchRow(e[j + kAhead].row + col);
                ++j;
            } while (j < hi && e[j].key == key);
            agg_.reduceRun<K>(key, e + i, j - i, sink);
            i = j;
        }
    }

    Aggregation agg_;
};

} // namespace sbhbm::pipeline

#endif // SBHBM_PIPELINE_AGGREGATIONS_H
