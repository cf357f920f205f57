/**
 * @file
 * Temporal Join (Table 1 / Fig 4b, benchmark 7): join two record
 * streams by key within each temporal window.
 *
 * Per the paper's design, each incoming sorted KPA is (1) joined
 * against the other stream's window state and (2) merged into its own
 * stream's window state, both per arrival — so every cross-stream key
 * pair within a window is emitted exactly once, streaming.
 *
 * Host-speed notes. kpa::join scans the incoming KPA against state
 * once, branch-free, and lists the matching key runs; only about 3% of
 * the scanned entries match. It then reads payload rows for those runs
 * alone, prefetching the rows of runs a batch ahead (Cimple-style
 * software pipelining) so DRAM misses overlap instead of serializing.
 * With a host pool of more than one thread, every kernel of a task
 * forks on the engine's host WorkerPool once its input reaches
 * kpa::detail::kShardParallelMin entries: keySwap swaps one index
 * range per thread, sortKpa sorts two halves at once and merges them,
 * join scans and emits one key range per thread, and kpa::merge
 * slices the merge into window state. None of this changes simulated
 * costs or emitted bytes.
 */

#ifndef SBHBM_PIPELINE_TEMPORAL_JOIN_H
#define SBHBM_PIPELINE_TEMPORAL_JOIN_H

#include <map>
#include <utility>

#include "pipeline/operator.h"

namespace sbhbm::pipeline {

/** Two-stream windowed sort-merge join. */
class TemporalJoinOp : public Operator
{
  public:
    /**
     * @param key_col   join key column (both streams).
     * @param value_col payload column carried into output records.
     */
    TemporalJoinOp(Pipeline &pipe, std::string name,
                   columnar::ColumnId key_col, columnar::ColumnId value_col)
        : Operator(pipe, std::move(name), /*num_ports=*/2),
          key_col_(key_col), value_col_(value_col)
    {
    }

  protected:
    void
    process(Msg msg, int port) override
    {
        sbhbm_assert(msg.isKpa() && msg.has_window,
                     "TemporalJoinOp expects windowed KPAs");
        const columnar::WindowId w = msg.window;
        const ImpactTag tag = classify(msg.min_ts);
        spawnTracked(tag, [this, w, port, msg = std::move(msg)](
                              sim::CostLog &log, Emitter &em) mutable {
            auto ctx = makeCtx(log, msg.kpa->recordCols());
            kpa::keySwap(ctx, *msg.kpa, key_col_);
            kpa::sortKpa(ctx, *msg.kpa);

            WindowState &ws = state_[w];
            kpa::KpaPtr &mine = ws.side[port];
            kpa::KpaPtr &theirs = ws.side[1 - port];

            // (1) Join the incoming KPA with the other side's state.
            if (theirs != nullptr && !theirs->empty()) {
                BundleHandle out = kpa::join(ctx, *msg.kpa, *theirs,
                                             {value_col_}, {value_col_});
                if (out->size() > 0) {
                    em.push(Msg::ofBundle(std::move(out), msg.min_ts)
                                .withWindow(w));
                }
            }

            // (2) Merge the incoming KPA into this side's state.
            if (mine == nullptr || mine->empty()) {
                mine = std::move(msg.kpa);
            } else {
                const ImpactTag state_tag =
                    classify(pipe_.windows().start(w));
                mine = kpa::merge(
                    ctx, *mine, *msg.kpa,
                    placeKpa(state_tag,
                                  (uint64_t{mine->size()}
                                   + msg.kpa->size())
                                      * sizeof(kpa::KpEntry)));
            }
        });
    }

    void
    onWatermark(Watermark wm) override
    {
        // All pairs were emitted streaming; closing just drops state.
        const columnar::WindowSpec spec = pipe_.windows();
        for (auto it = state_.begin(); it != state_.end();) {
            if (spec.end(it->first) <= wm.ts)
                it = state_.erase(it);
            else
                ++it;
        }
    }

    /**
     * Demotion candidates: both sides' accumulated state of windows
     * beyond the target watermark's, coldest first. A demoted side is
     * still probed/merged by later arrivals (the join reads charge
     * the tier the KPA actually lives on), so a victim stream keeps
     * draining — at DRAM speed.
     */
    std::vector<kpa::Kpa *>
    coldState() override
    {
        std::vector<kpa::Kpa *> cold;
        const columnar::WindowId hot = pipe_.targetWindow();
        for (auto it = state_.rbegin(); it != state_.rend(); ++it) {
            if (it->first <= hot)
                break;
            for (const kpa::KpaPtr &side : it->second.side)
                if (side != nullptr)
                    cold.push_back(side.get());
        }
        return cold;
    }

  private:
    struct WindowState
    {
        kpa::KpaPtr side[2];
    };

    columnar::ColumnId key_col_;
    columnar::ColumnId value_col_;
    std::map<columnar::WindowId, WindowState> state_;
};

} // namespace sbhbm::pipeline

#endif // SBHBM_PIPELINE_TEMPORAL_JOIN_H
