/**
 * @file
 * The ParDo Filter operator (Table 1): a stateless per-record
 * function.
 *
 * Filter does not produce new records, so it runs as Selection
 * (paper §4.2): the output is a KPA of surviving key/pointer pairs,
 * allocated by the runtime's placement decision.
 */

#ifndef SBHBM_PIPELINE_PARDO_H
#define SBHBM_PIPELINE_PARDO_H

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

} // namespace sbhbm::pipeline

#endif // SBHBM_PIPELINE_PARDO_H
