/**
 * @file
 * Unkeyed windowed reductions (Table 1: AvgAll).
 *
 * Per Table 2, unkeyed reduction scans record bundles directly —
 * there is nothing to group, so no KPA is extracted (and the paper's
 * §4.3 "fewer than three columns" rule would skip extraction anyway).
 */

#ifndef SBHBM_PIPELINE_UNKEYED_H
#define SBHBM_PIPELINE_UNKEYED_H

#include <map>
#include <utility>

#include "pipeline/operator.h"

namespace sbhbm::pipeline {

/**
 * Windowed Average All (benchmark 5): mean of one value column over
 * every record in the window. Emits one (window_start, avg) record
 * per window.
 */
class AvgAllOp : public Operator
{
  public:
    AvgAllOp(Pipeline &pipe, std::string name, columnar::ColumnId ts_col,
             columnar::ColumnId value_col)
        : Operator(pipe, std::move(name)), ts_col_(ts_col),
          value_col_(value_col)
    {
    }

  protected:
    void
    process(Msg msg, int) override
    {
        sbhbm_assert(msg.isBundle(), "AvgAllOp expects record bundles");
        const ImpactTag tag = classify(msg.min_ts);
        const columnar::WindowSpec spec = pipe_.windows();
        spawnTracked(tag, [this, spec, msg = std::move(msg)](
                              sim::CostLog &log, Emitter &) mutable {
            auto ctx = makeCtx(log, msg.bundle->cols());
            const columnar::Bundle &b = *msg.bundle;
            for (uint32_t r = 0; r < b.size(); ++r) {
                const uint64_t *row = b.row(r);
                Acc &acc = state_[spec.windowOf(row[ts_col_])];
                acc.sum += row[value_col_];
                ++acc.count;
            }
            kpa::chargeUnkeyedReduce(ctx, b);
        });
    }

    void
    onWatermark(Watermark wm) override
    {
        const columnar::WindowSpec spec = pipe_.windows();
        for (auto it = state_.begin(); it != state_.end();) {
            const columnar::WindowId w = it->first;
            if (spec.end(w) > wm.ts) {
                ++it;
                continue;
            }
            const Acc acc = it->second;
            it = state_.erase(it);
            spawnTracked(ImpactTag::kUrgent,
                         [this, w, acc, spec](sim::CostLog &log,
                                              Emitter &em) {
                             auto *out = columnar::Bundle::create(
                                 eng_.memory(), 2, 1);
                             out->append(
                                 {spec.start(w),
                                  acc.count ? acc.sum / acc.count : 0});
                             log.cpu(sim::cost::kEmitNsPerRec);
                             em.push(Msg::ofBundle(
                                         BundleHandle::adopt(out),
                                         spec.start(w))
                                         .withWindow(w));
                         });
        }
    }

  private:
    struct Acc
    {
        uint64_t sum = 0;
        uint64_t count = 0;
    };

    /** Holds accumulators it does not capture: tenants running this
     *  operator recover by scratch-restart (a full replay). */
    SnapshotSupport
    snapshotState(OperatorSnapshot &, const OperatorSnapshot *,
                  sim::CostLog &) override
    {
        return SnapshotSupport::kUnsupported;
    }

    columnar::ColumnId ts_col_;
    columnar::ColumnId value_col_;
    std::map<columnar::WindowId, Acc> state_;
};

} // namespace sbhbm::pipeline

#endif // SBHBM_PIPELINE_UNKEYED_H
