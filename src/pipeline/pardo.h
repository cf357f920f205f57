/**
 * @file
 * ParDo-family operators (Table 1): stateless per-record functions.
 *
 * Filter/Sample do not produce new records, so they run as Selection
 * over KPA (paper §4.2): the output is a KPA of surviving
 * key/pointer pairs, allocated by the runtime's placement decision.
 */

#ifndef SBHBM_PIPELINE_PARDO_H
#define SBHBM_PIPELINE_PARDO_H

#include <functional>
#include <vector>
#include <utility>

#include "pipeline/operator.h"

namespace sbhbm::pipeline {

/**
 * Filter: select the records whose column @p filter_col equals
 * @p filter_value, producing KPA(key_col) for downstream grouping.
 * First grouping-adjacent operator of YSB (step 2 of Fig 5), which
 * keeps view events: event_type == view.
 *
 * The predicate is a column match rather than an arbitrary function
 * so that selectFromBundle inlines it into its branch-free loop: on
 * YSB, a std::function call per record took as much host time as the
 * select loop itself.
 */
class FilterOp : public Operator
{
  public:
    /**
     * @param key_col      resident column of the produced KPA.
     * @param filter_col   column the filter compares.
     * @param filter_value keep rows with row[filter_col] == filter_value.
     */
    FilterOp(Pipeline &pipe, std::string name, columnar::ColumnId key_col,
             columnar::ColumnId filter_col, uint64_t filter_value)
        : Operator(pipe, std::move(name)), key_col_(key_col),
          filter_col_(filter_col), filter_value_(filter_value)
    {
    }

  protected:
    void
    process(Msg msg, int) override
    {
        sbhbm_assert(msg.isBundle(), "FilterOp expects record bundles");
        sbhbm_assert(key_col_ < msg.bundle->cols()
                         && filter_col_ < msg.bundle->cols(),
                     "FilterOp column out of %u", msg.bundle->cols());
        const ImpactTag tag = classify(msg.min_ts);
        spawnTracked(tag, [this, tag, msg = std::move(msg)](
                              sim::CostLog &log, Emitter &em) mutable {
            auto ctx = makeCtx(log, msg.bundle->cols());
            const auto place = placeKpa(
                tag, uint64_t{msg.bundle->size()} * sizeof(kpa::KpEntry));
            const columnar::ColumnId col = filter_col_;
            const uint64_t value = filter_value_;
            auto out = kpa::selectFromBundle(
                ctx, *msg.bundle, key_col_,
                [col, value](const uint64_t *row) {
                    return row[col] == value;
                },
                place);
            if (!out->empty())
                em.push(Msg::ofKpa(std::move(out), msg.min_ts));
        });
    }

  private:
    columnar::ColumnId key_col_;
    columnar::ColumnId filter_col_;
    uint64_t filter_value_;
};

/**
 * KPA-side filter: selection over an already-extracted KPA,
 * predicate on the resident key.
 */
class KpaFilterOp : public Operator
{
  public:
    using KeyPred = std::function<bool(uint64_t)>;

    KpaFilterOp(Pipeline &pipe, std::string name, KeyPred pred)
        : Operator(pipe, std::move(name)), pred_(std::move(pred))
    {
    }

  protected:
    void
    process(Msg msg, int) override
    {
        sbhbm_assert(msg.isKpa(), "KpaFilterOp expects KPAs");
        const ImpactTag tag = classify(msg.min_ts);
        spawnTracked(tag, [this, tag, msg = std::move(msg)](
                              sim::CostLog &log, Emitter &em) mutable {
            auto ctx = makeCtx(log, msg.kpa->recordCols());
            const auto place = placeKpa(
                tag, uint64_t{msg.kpa->size()} * sizeof(kpa::KpEntry));
            auto out = kpa::selectFromKpa(ctx, *msg.kpa, pred_, place);
            if (!out->empty()) {
                Msg outm = Msg::ofKpa(std::move(out), msg.min_ts);
                if (msg.has_window)
                    outm = std::move(outm).withWindow(msg.window);
                em.push(std::move(outm));
            }
        });
    }

  private:
    KeyPred pred_;
};

/**
 * Sample (Table 1, a non-record-producing ParDo like Filter): keep a
 * deterministic pseudo-random fraction of a KPA's records, selecting
 * on a hash of the resident key so the choice is stable across runs.
 */
class SampleOp : public KpaFilterOp
{
  public:
    SampleOp(Pipeline &pipe, std::string name, double rate,
             uint64_t seed = 0x9e3779b97f4a7c15ull)
        : KpaFilterOp(pipe, std::move(name),
                      [rate, seed](uint64_t key) {
                          // splitmix64 finalizer: small consecutive
                          // keys must land uniformly in [0, 1).
                          uint64_t h = key + seed;
                          h ^= h >> 30;
                          h *= 0xbf58476d1ce4e5b9ull;
                          h ^= h >> 27;
                          h *= 0x94d049bb133111ebull;
                          h ^= h >> 31;
                          return static_cast<double>(h >> 11)
                                     / static_cast<double>(1ull << 53)
                                 < rate;
                      })
    {
        sbhbm_assert(rate >= 0.0 && rate <= 1.0,
                     "sample rate outside [0,1]");
    }
};

/**
 * FlatMap (Table 1, a record-producing ParDo): apply a function to
 * every record of a bundle, emitting zero or more output rows per
 * input record into a new DRAM bundle (paper 4.2: "When they produce
 * new records (e.g., FlatMap), StreamBox-HBM performs Reduction and
 * emits new records to DRAM").
 */
class FlatMapOp : public Operator
{
  public:
    /** fn(row, emit): call emit(values...) any number of times. */
    using Emit = std::function<void(const uint64_t *)>;
    using RowFn = std::function<void(const uint64_t *, const Emit &)>;

    FlatMapOp(Pipeline &pipe, std::string name, uint32_t out_cols,
              RowFn fn)
        : Operator(pipe, std::move(name)), out_cols_(out_cols),
          fn_(std::move(fn))
    {
    }

  protected:
    void
    process(Msg msg, int) override
    {
        sbhbm_assert(msg.isBundle(), "FlatMapOp expects record bundles");
        const ImpactTag tag = classify(msg.min_ts);
        spawnTracked(tag, [this, msg = std::move(msg)](
                              sim::CostLog &log, Emitter &em) mutable {
            auto ctx = makeCtx(log, msg.bundle->cols());
            const columnar::Bundle &b = *msg.bundle;
            std::vector<uint64_t> flat;
            const Emit emit = [&](const uint64_t *row) {
                flat.insert(flat.end(), row, row + out_cols_);
            };
            for (uint32_t r = 0; r < b.size(); ++r)
                fn_(b.row(r), emit);

            const auto out_records =
                static_cast<uint32_t>(flat.size() / out_cols_);
            kpa::chargeUnkeyedReduce(ctx, b, out_records, out_cols_);
            if (out_records > 0) {
                auto *out = columnar::Bundle::create(
                    eng_.memory(), out_cols_, out_records);
                for (size_t i = 0; i < flat.size(); i += out_cols_)
                    out->append(&flat[i]);
                Msg outm = Msg::ofBundle(
                    columnar::BundleHandle::adopt(out), msg.min_ts);
                if (msg.has_window)
                    outm = std::move(outm).withWindow(msg.window);
                em.push(std::move(outm));
            }
        });
    }

  private:
    uint32_t out_cols_;
    RowFn fn_;
};

} // namespace sbhbm::pipeline

#endif // SBHBM_PIPELINE_PARDO_H
