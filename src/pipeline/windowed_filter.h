/**
 * @file
 * Windowed Filter (benchmark 8): two input streams; per window,
 * compute the average value of stream A, then keep the records of
 * stream B whose value exceeds that average.
 */

#ifndef SBHBM_PIPELINE_WINDOWED_FILTER_H
#define SBHBM_PIPELINE_WINDOWED_FILTER_H

#include <map>
#include <utility>
#include <vector>

#include "pipeline/operator.h"

namespace sbhbm::pipeline {

/**
 * Port 0: record bundles of stream A (averaged).
 * Port 1: windowed KPAs of stream B with the value column resident
 *         (filtered against A's window average at close).
 */
class WindowedFilterOp : public Operator
{
  public:
    WindowedFilterOp(Pipeline &pipe, std::string name,
                     columnar::ColumnId ts_col,
                     columnar::ColumnId value_col)
        : Operator(pipe, std::move(name), /*num_ports=*/2),
          ts_col_(ts_col), value_col_(value_col)
    {
    }

  protected:
    void
    process(Msg msg, int port) override
    {
        if (port == 0)
            processAvgSide(std::move(msg));
        else
            processFilterSide(std::move(msg));
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
            auto held = std::make_shared<std::vector<kpa::KpaPtr>>(
                std::move(it->second.held));
            const uint64_t avg = it->second.count
                                     ? it->second.sum / it->second.count
                                     : 0;
            it = state_.erase(it);

            // One Urgent task per held KPA: select survivors and
            // materialize them as output records.
            for (auto &k : *held) {
                auto kpa_shared =
                    std::make_shared<kpa::KpaPtr>(std::move(k));
                spawnTracked(
                    ImpactTag::kUrgent,
                    [this, w, avg, kpa_shared, spec](sim::CostLog &log,
                                                     Emitter &em) {
                        auto ctx =
                            makeCtx(log, (*kpa_shared)->recordCols());
                        auto survivors = kpa::selectFromKpa(
                            ctx, **kpa_shared,
                            [avg](uint64_t v) { return v > avg; },
                            placeKpa(ImpactTag::kUrgent,
                                          (*kpa_shared)->bytes()));
                        if (!survivors->empty()) {
                            BundleHandle out =
                                kpa::materialize(ctx, *survivors);
                            em.push(Msg::ofBundle(std::move(out),
                                                  spec.start(w))
                                        .withWindow(w));
                        }
                    });
            }
        }
    }

  private:
    void
    processAvgSide(Msg msg)
    {
        sbhbm_assert(msg.isBundle(),
                     "WindowedFilterOp port 0 expects bundles");
        const ImpactTag tag = classify(msg.min_ts);
        const columnar::WindowSpec spec = pipe_.windows();
        spawnTracked(tag, [this, spec, msg = std::move(msg)](
                              sim::CostLog &log, Emitter &) mutable {
            auto ctx = makeCtx(log, msg.bundle->cols());
            const columnar::Bundle &b = *msg.bundle;
            for (uint32_t r = 0; r < b.size(); ++r) {
                const uint64_t *row = b.row(r);
                WindowState &ws = state_[spec.windowOf(row[ts_col_])];
                ws.sum += row[value_col_];
                ++ws.count;
            }
            kpa::chargeUnkeyedReduce(ctx, b);
        });
    }

    void
    processFilterSide(Msg msg)
    {
        sbhbm_assert(msg.isKpa() && msg.has_window,
                     "WindowedFilterOp port 1 expects windowed KPAs");
        const columnar::WindowId w = msg.window;
        const ImpactTag tag = classify(msg.min_ts);
        spawnTracked(tag, [this, w, msg = std::move(msg)](
                              sim::CostLog &log, Emitter &) mutable {
            auto ctx = makeCtx(log, msg.kpa->recordCols());
            // Hold the KPA with values resident, ready for the close.
            kpa::keySwap(ctx, *msg.kpa, value_col_);
            state_[w].held.push_back(std::move(msg.kpa));
        });
    }

    struct WindowState
    {
        uint64_t sum = 0;
        uint64_t count = 0;
        std::vector<kpa::KpaPtr> held;
    };

    columnar::ColumnId ts_col_;
    columnar::ColumnId value_col_;
    std::map<columnar::WindowId, WindowState> state_;
};

} // namespace sbhbm::pipeline

#endif // SBHBM_PIPELINE_WINDOWED_FILTER_H
